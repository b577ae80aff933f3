(** Per-destination interdomain route computation.

    Computes, for one destination AS [d], the stable Gao–Rexford routing
    state of {e every} AS: which neighbors exported a route (the local
    BGP RIB MIFO mines for alternative paths), the selected best route
    and its class, and the default next hop.

    Selection follows the paper exactly (Section IV-A): customer routes
    are preferred over peer routes over provider routes; within a class
    the shorter AS path wins, and the lowest next-hop AS id breaks the
    remaining ties.  Export follows {!Mifo_topology.Relationship.exports_to}:
    an AS advertises only its selected best route, to every neighbor for
    customer routes and only to customers otherwise.

    The algorithm is the standard three-phase propagation over the
    provider hierarchy (customer routes by BFS up the provider edges,
    peer routes in one step, provider routes down the hierarchy in
    topological order) and runs in O(V + E) per destination.

    The tree pass is int-only: array BFS, argmin scans over the sorted
    neighbour arrays and an int-stack DFS over a CSR of the tree, with
    per-domain scratch, so {!compute} allocates only its result and a
    copy of the graph's topological order.  The local RIB of a node
    (its {e row}) is not built by {!compute}: it is built the first
    time it is read, so work that reads rows only where it acts (MIFO
    and MIRO at congested nodes; the BGP baseline reads none) pays only
    for those.

    {b Thread safety.}  A [t] is immutable except for its row slots.  A
    row is built in a fresh array whose cells are written as it is
    allocated (copied from the building domain's private scratch), then
    published by a single store into the node's slot.  The store is
    idempotent: every build of a row yields the same cells, so when two
    domains race on an unbuilt row each builds it and the later store
    replaces the row with an equal one.  A reader that loads the slot
    sees either the unbuilt marker (and builds the row itself) or a
    complete row, because OCaml 5 makes a block's initialising writes
    visible to any domain that obtains a pointer to it.  So {!compute}
    results can be cached and shared across domains freely — which is
    exactly what {!Routing_table.precompute} does. *)

type route_class = Customer_route | Peer_route | Provider_route

type t
(** Routing state toward one destination. *)

val dest : t -> int

val compute : Mifo_topology.As_graph.t -> int -> t
(** [compute g d].  @raise Invalid_argument if [d] is out of range.
    @raise Failure (see {!check_next_hop}) if the next-hop phase
    contradicts the route classes and lengths of the first three
    phases, which the construction rules out. *)

val check_next_hop :
  dest:int -> node:int -> route_class -> via:int -> len:int -> expected:int -> unit
(** The invariant {!compute} checks at every node: the best neighbour
    [via] of the selected route's class exists ([via >= 0]) and the
    route through it has the selected length ([len = expected]).
    @raise Failure naming [dest], [node] and the route class when
    either fails. *)

val reachable : t -> int -> bool
(** Every AS is reachable in a connected topology (provider routes reach
    everywhere), but the accessor keeps callers honest on subgraphs. *)

val best_class : t -> int -> route_class option
(** [None] at the destination itself or when unreachable. *)

val best_len : t -> int -> int
(** AS-path length (in AS hops) of the selected route; [0] at the
    destination.  @raise Invalid_argument when unreachable. *)

val next_hop : t -> int -> int option
(** Default next hop; [None] at the destination. *)

val customer_route_len : t -> int -> int option
(** Length of the best customer-learned route at an AS, if any.  The
    export rules make this the value a neighbor sees when this AS
    advertises to a provider or peer. *)

val export_len : t -> int -> int option
(** Length of the route this AS advertises to its customers (= its best
    route), if reachable. *)

val default_path : t -> int -> int list
(** [default_path t s] is the full default AS path [s; ...; d] obtained by
    following default next hops.  At most [V] hops by construction. *)

(** {1 The local RIB}

    A node's RIB holds one route per exporting neighbour, sorted
    best-first (class, then length, then next-hop id); index [0] is the
    default route, [1 ..] the alternatives.  The packed accessors read
    the node's row, building it on first read; none allocates once the
    row exists.  The row is empty at the destination. *)

type rib_entry = {
  via : int;  (** the neighbor that exported the route *)
  rel : Mifo_topology.Relationship.t;  (** that neighbor's role relative to us *)
  len : int;  (** AS-path length of the route via this neighbor *)
}

val rib_size : t -> int -> int
(** Number of RIB entries at an AS. *)

val rib_via : t -> int -> int -> int
val rib_len_at : t -> int -> int -> int
val rib_rel_at : t -> int -> int -> Mifo_topology.Relationship.t
(** [rib_via t v i] / [rib_len_at t v i] / [rib_rel_at t v i] are the
    neighbour, AS-path length and relationship of entry [i] of [v]'s
    RIB.  Indices must be [< rib_size t v]. *)

val rib : t -> int -> rib_entry list
(** The whole RIB of an AS as records, decoded afresh on every call —
    for cold callers (replay, the CLI's path inspection, tests).  Hot
    loops use the packed accessors. *)

val rib_mem : t -> int -> int -> bool
(** [rib_mem t v nb]: does [v]'s RIB hold a route via [nb]?  Answered
    from the route state in O(log degree) without building the row. *)

val first_alternative : t -> int -> int
(** [rib_via t v 1] when [rib_size t v > 1], else [-1].  Read from the
    row when it is built, otherwise answered in O(degree) without
    building it. *)

val on_selected_path : t -> node:int -> int -> bool
(** [on_selected_path t ~node x] — does [x] lie on [node]'s selected
    default path (endpoints included)?  O(1) against the DFS interval
    labelling built at construction; this is the predicate behind the
    RIB's BGP loop filter. *)
