(** The MIRO baseline (Xu & Rexford, SIGCOMM 2006), strict-policy mode.

    MIRO achieves multi-path interdomain routing on the control plane:
    a source AS negotiates alternative routes with (remote) ASes over a
    dedicated channel and tunnels packets to them.  For scalability the
    paper's evaluation adopts MIRO's {e strict} policy: an AS only
    announces alternative paths in the same local-preference class as its
    default path, and the number of negotiated alternates is capped.

    We model MIRO at the path-set level — which end-to-end paths a source
    can place traffic on — because that is all the evaluation exercises:

    + the source AS must be MIRO-capable;
    + each alternate is a same-preference-class RIB route via a
      MIRO-capable neighbor (the negotiation counterpart);
    + at most [cap] alternates per destination (the advertisement
      budget);
    + the rest of the path follows default BGP routing (MIRO tunnels to
      the alternate next hop and the packet continues conventionally).

    Unlike MIFO, this needs extra control-plane machinery (negotiation
    messages, tunnel state) and reacts at control-plane timescales; the
    simulator charges it no message cost, so the comparison is
    conservative in MIRO's favour. *)

type config = { cap : int  (** negotiated alternates per destination *) }

val default_config : config
(** [cap = 5]. *)

val candidates :
  ?config:config ->
  Mifo_bgp.Routing.t ->
  deployment:Mifo_core.Deployment.t ->
  src:int ->
  int list
(** The alternate first hops (neighbor ASes) the source may tunnel to
    (excluding the default route), best-first, already filtered by
    capability, class and cap.  Empty when [src] is not MIRO-capable or
    has no RIB. *)

val available_path_count :
  ?config:config ->
  Mifo_bgp.Routing.t ->
  deployment:Mifo_core.Deployment.t ->
  src:int ->
  int
(** Default path + negotiated alternates — the Fig. 7 series for MIRO. *)

val alternate_paths :
  ?config:config ->
  Mifo_bgp.Routing.t ->
  deployment:Mifo_core.Deployment.t ->
  src:int ->
  int list list
(** The explicit end-to-end AS paths (alternate first hop, then default
    continuation), loop-filtered as BGP would. *)

val extra_announcements :
  ?config:config ->
  Mifo_bgp.Routing.t ->
  deployment:Mifo_core.Deployment.t ->
  int
(** Control-plane cost of MIRO for this one destination prefix: every
    MIRO-capable AS advertises each of its negotiated alternates to each
    neighbor it exports the default route to.  MIFO's corresponding
    number is zero — it reads the RIB it already has (Section II-B). *)
