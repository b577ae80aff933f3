(** Packet-level event-driven network simulator.

    The substrate for the prototype/testbed experiments (Section V): real
    packets with MIFO tags and IP-in-IP headers, FIFO tx queues with tail
    drop, store-and-forward links, TCP sources ({!Tcp}), routers running
    the {!Mifo_core.Engine} on every packet, and the {!Mifo_core.Daemon}
    ticking periodically on every router.  The congestion signal is the
    tx-queue occupancy ratio, exactly the paper's choice.

    Build a network with [add_router] / [add_host] / [connect], populate
    FIBs, optionally install an alternative-path chooser per router
    (otherwise alt ports stay as configured), add flows, then [run].

    Everything is deterministic; there is no randomness anywhere in the
    simulator. *)

type t
type node_id = int

type config = {
  queue_bits : int;  (** default per-link tx queue (1 Mbit ≈ 125 KB) *)
  daemon_period : float;  (** seconds between daemon epochs *)
  daemon_config : Mifo_core.Daemon.config;
  engine_congest_ratio : float;
      (** tx-queue ratio at/above which the engine sees congestion *)
  mss_bits : int;  (** data segment size (paper: 1 KB = 8000 bits) *)
  ack_bits : int;
  series_interval : float;  (** aggregate-throughput bucket width *)
  tag_check : bool;  (** disable only for the loop ablation *)
  ibgp_encap : bool;  (** disable only for the iBGP-cycling ablation *)
  packet_trains : bool;
      (** batch back-to-back departures on one link into a single
          queue entry (default [true]); behavior-neutral, see
          {!Eventq.alloc_seq}.  [false] schedules every departure as
          its own event: that per-packet discipline is the oracle of
          the packet-level differential tests, which require
          bit-identical runs under both settings *)
}

val default_config : config

val create : ?config:config -> unit -> t
val config : t -> config

val add_router : t -> as_id:int -> node_id
val add_host : t -> addr:Mifo_bgp.Prefix.addr -> node_id

val connect :
  t ->
  a:node_id ->
  b:node_id ->
  kind_ab:Mifo_core.Engine.port_kind ->
  kind_ba:Mifo_core.Engine.port_kind ->
  rate:float ->
  ?delay:float ->
  ?queue_bits:int ->
  unit ->
  int * int
(** Full-duplex link; returns (port on [a], port on [b]).  [kind_ab] is
    how [a] sees the port toward [b].  Default delay 50 µs. *)

val fib : t -> node_id -> Mifo_core.Fib.t
(** The router's FIB, to be populated by the caller.
    @raise Invalid_argument on a host node. *)

val set_alt_chooser :
  t -> node_id -> (Mifo_bgp.Prefix.t -> Mifo_core.Fib.entry -> int option) -> unit
(** Installed per router; called by the daemon every epoch to refresh
    [alt_port].  Without a chooser the daemon keeps the configured
    alternative. *)

val set_ranked_chooser :
  t -> node_id -> (Mifo_bgp.Prefix.t -> Mifo_core.Fib.entry -> int list) -> unit
(** Ranked-set variant (best first, truncated at {!Mifo_core.Fib.max_alts}):
    when installed it wins over {!set_alt_chooser} and the daemon tick
    runs {!Mifo_core.Daemon.epoch_ranked} for this router, spreading the
    deflected buckets across the returned slots. *)

val spare_capacity : t -> node_id -> int -> float
(** Smoothed spare capacity (bits/s) of the link behind a port since the
    last daemon epoch — the measurement border routers exchange over
    iBGP; typical input for an alt chooser. *)

val add_flow : t -> src:node_id -> dst:node_id -> bytes:int -> start:float -> int
(** A TCP transfer between two hosts; returns the flow id.
    @raise Invalid_argument on non-host endpoints or a bad size. *)

val add_udp_flow :
  t -> src:node_id -> dst:node_id -> bytes:int -> ?burst:int -> start:float -> unit -> int
(** An open-loop UDP-style transfer: the source streams its segments
    back-to-back at the host link's line rate in bursts of [burst]
    (default 32) packets per emission event, self-paced off the link's
    serialization — the software analogue of the testbed's [iperf -u]
    probe traffic that creates the paper's congestion regimes.  No ack
    clock, no retransmission: lost segments stay lost, and the flow's
    [finish] is set only if every segment reaches the sink (the
    completion hook fires there too).  Returns the flow id.
    @raise Invalid_argument on non-host endpoints, a bad size, or a
    non-positive [burst]. *)

val run : ?until:float -> t -> unit
(** Process events until the queue drains or simulated [until]
    (default: drain). *)

val now : t -> float

val events_processed : t -> int
(** Total simulator events handled so far (packet arrivals, flow starts,
    timeouts, daemon ticks) — the denominator of the events/sec
    benchmark. *)

(** {1 Results} *)

type flow_result = {
  flow : int;
  start : float;
  finish : float option;  (** completion time of the whole transfer *)
  bytes : int;
}

val flow_results : t -> flow_result array

val throughput_series : t -> (float * float) array
(** (bucket start time, aggregate goodput in bits/s) measured at the
    receiving hosts. *)

type counters = {
  delivered_packets : int;
  dropped_queue : int;
  dropped_ttl : int;
  dropped_valley : int;
  dropped_no_route : int;
  encapsulated : int;  (** packets tunneled between iBGP peers *)
  deflected : int;  (** packets sent via an alternative (eBGP) port *)
}

val counters : t -> counters
val path_switches : t -> (int * int) list
(** Per flow id, how many times its egress port changed at some router —
    the testbed view of Fig. 9's switch count. *)

(** {1 State export}

    Read-only views of the built network for the static verifier
    ({!Mifo_analysis}): it audits FIBs against RIBs and walks the product
    forwarding automaton over these accessors without touching any
    mutable simulator state. *)

type node_view =
  | Router_view of { as_id : int }
  | Host_view of { addr : Mifo_bgp.Prefix.addr }

val node_count : t -> int
val node_view : t -> node_id -> node_view

val port_count : t -> node_id -> int

val port_kind : t -> node_id -> int -> Mifo_core.Engine.port_kind
(** How the node sees its port [p] — exactly the view the engine's env
    exposes during forwarding. *)

val port_peer : t -> node_id -> int -> node_id * int
(** [(peer node, peer's port)] at the far end of the link behind a port. *)

val ibgp_route : t -> node_id -> node_id -> int option
(** [ibgp_route t r peer] is the local port of router [r] carrying its
    iBGP session toward router [peer], if one exists — the engine's
    [route_to_peer], i.e. how an in-transit tunnel is steered.
    @raise Invalid_argument on a host node. *)

val set_completion_hook : t -> (int -> unit) -> unit
(** Called (with the flow id) the moment a sender sees its last byte
    acknowledged; may add new flows — how the testbed chains its
    back-to-back transfers. *)

val set_tracer :
  t -> (float -> int -> Mifo_core.Packet.t -> Mifo_core.Engine.action -> unit) -> unit
(** Install a per-hop trace hook: called with (time, router node, packet
    as received, engine action) for every packet a router processes.
    Used by tests and debugging tools to reconstruct packet paths. *)

val clear_tracer : t -> unit
