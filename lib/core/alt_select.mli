(** Greedy selection of the best alternative path (Section III-C).

    End-to-end available-bandwidth probing is both too slow for a data
    plane and unscalable across 50K ASes, so MIFO turns "path"
    measurement into "link" monitoring: the priority of an alternative
    path is the spare capacity of the directly connected inter-AS link it
    starts with.  This module ranks the RIB alternatives accordingly for
    the k-alternative data plane and applies the valley-free deflection
    filter.  The flow-level simulator applies the same rule to a single
    pick ([Mifo_netsim.Flowsim]), scanning the packed RIB rows in
    place. *)

val ranked_alternatives :
  Mifo_bgp.Routing.t ->
  src_as:int ->
  upstream:Mifo_topology.Relationship.t option ->
  spare:(int -> float) ->
  k:int ->
  int list
(** The ranked candidate set for the k-alternative data plane, as the
    neighbours the alternatives go through: the first
    [min k Fib.max_alts] RIB alternatives (BGP preference order),
    valley-free-filtered for [upstream] and restricted to first-hop
    links with positive [spare], ordered most spare capacity first
    (ties to the lower neighbor id).  Pool-capping happens {e before}
    filtering, in RIB preference order, so a k-limited static check
    that admits deflections onto the first k RIB alternatives soundly
    over-approximates every set this function can return.  All of them
    are next-hop-disjoint from the default route. *)
