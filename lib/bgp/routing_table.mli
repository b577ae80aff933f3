(** Cache of per-destination routing states.

    Experiments query routes toward many destinations; this table
    memoizes {!Routing.compute} per destination.  [precompute] fans the
    independent per-destination computations out over a
    {!Mifo_util.Parallel} domain pool; larger graphs can rely on lazy
    filling with an optional bound on the number of cached
    destinations.

    {b Thread safety.}  The table is safe to use from any number of
    domains concurrently.  The cache is sharded by destination
    ([d mod nshards], one mutex per shard), so parallel fills of
    distinct destinations proceed without contention; [Routing.compute]
    itself runs outside the shard lock.  Repeated [get]s of the same
    destination return physically equal ([==]) states, including under
    a racy double-compute (the first insert wins).  Cached
    {!Routing.t} values may be shared freely across domains — see the
    thread-safety note in {!Routing}.

    {b Eviction.}  Each shard is an exact LRU: a cache {e hit} refreshes
    the entry's recency, so a bounded table under a skewed workload
    keeps the hot destinations and evicts the cold ones (the previous
    FIFO evicted in insertion order regardless of use).  With
    [~max_cached:m] the effective bound is
    [nshards * (m / nshards) <= m] where
    [nshards = min 16 m]. *)

type t

val create : ?max_cached:int -> Mifo_topology.As_graph.t -> t
(** [max_cached] defaults to unbounded.
    @raise Invalid_argument if [max_cached < 1]. *)

val graph : t -> Mifo_topology.As_graph.t

val get : t -> int -> Routing.t
(** Routing state toward destination [d], computed on first use.
    @raise Invalid_argument if [d] is out of range. *)

val precompute : ?pool:Mifo_util.Parallel.pool -> t -> int array -> unit
(** [precompute ~pool t dests] fills the cache for every listed
    destination, fanning {!Routing.compute} out across the pool's
    domains ([pool] defaults to {!Mifo_util.Parallel.get_default}).
    Results are identical to serial [get]s — only the wall-clock
    changes. *)

val cached_count : t -> int
