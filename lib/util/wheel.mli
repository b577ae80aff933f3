(** Hierarchical timing wheel keyed by [(time, seq)].

    A priority queue specialised for discrete-event simulation: most
    events are scheduled a short, bounded distance into the future
    (link-serialization times), with a long tail of far-future timers
    (retransmission timeouts, daemon ticks).  Times are quantized to an
    integer tick; each level of the hierarchy covers [256x] the span of
    the one below it, so near-present events land in level 0 and pop in
    near-constant time while far-future events park in an upper level
    and cascade down as the current time approaches them.

    Cells are allocated from a free-listed arena and linked intrusively
    through an [int] next-index array, so steady-state scheduling
    allocates nothing on the OCaml heap.

    Determinism contract: for any interleaving of {!schedule} and {!pop}
    calls with strictly increasing [seq] per queue, the pop sequence is
    {e exactly} the [(time, seq)]-lexicographic order — bit-identical to
    a binary heap over the same keys.  Quantization never reorders:
    events that share a tick are sorted by their exact [(time, seq)] key
    when the tick's bucket is drained, and events scheduled into the
    current tick are merge-inserted into the pending run at their sorted
    position.

    Not domain-safe; confine a wheel to one domain. *)

type 'a t

val bits : int
(** Buckets per level as a power of two (256 buckets = 8 bits). *)

val levels : int
(** Number of hierarchy levels; the wheel spans [2^(bits*levels)] ticks
    (far beyond any simulated horizon at the default tick).  Events
    beyond the span are clamped into the top level and still pop in
    correct [(time, seq)] order. *)

val create : ?tick:float -> unit -> 'a t
(** [tick] is the quantization granularity in seconds (default [1e-6],
    i.e. one microsecond of simulated time per level-0 bucket).
    @raise Invalid_argument if [tick] is not positive and finite. *)

val schedule : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an event.  [time] must be non-negative and not NaN ([+inf]
    is allowed and clamps into the top level, like any time beyond the
    wheel's span); [seq] is the caller's tie-break (unique per live
    event, increasing in insertion order for FIFO-on-ties semantics).
    @raise Invalid_argument on NaN or negative time. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum-[(time, seq)] event. *)

val peek : 'a t -> (float * int) option
(** Key of the next event without removing it. *)

val pop_before : 'a t -> until:float -> cell:float array -> 'a option
(** Pop the head event only if its time is [<= until]; on success the
    popped time is written to [cell.(0)] (a flat store — a float
    returned across a non-inlined call would be boxed) and the payload
    returned.  [None] when empty or the head is beyond [until].  The
    dispatch-loop fast path: one [Some] is its only allocation. *)

val precedes : 'a t -> time:float -> seq:int -> bool
(** Whether [(time, seq)] strictly precedes the wheel's head key (true
    on an empty wheel), without allocating.  Used by batched callers to
    test if an element may be processed ahead of the queue. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Empty the wheel and reset the current tick to zero; the arena and
    bucket arrays are retained for reuse.  Statistics reset too. *)

type stats = {
  occupancy : int array;  (** resident events per level, length {!levels} *)
  ready : int;  (** events drained into the current run, not yet popped *)
  cascades : int;  (** upper-level buckets redistributed since create/clear *)
}

val stats : 'a t -> stats
