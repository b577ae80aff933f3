(** Simulation event queue.

    Keyed by simulated time with a monotonic sequence number, so
    simultaneous events pop in insertion order (determinism matters:
    every run must be reproducible).  Backed by a {!Mifo_util.Wheel}
    hierarchical timing wheel: near-O(1) for the near-present events
    that dominate packet simulation, with far-future timers cascading
    down on demand.  It pops the exact [(time, seq)]-lexicographic
    sequence (see the determinism contract in {!Mifo_util.Wheel}); a
    binary-heap queue with the same interface lives with the tests
    ([test/oracle/eventq_heap.ml]) as its oracle. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on NaN or negative time. *)

val alloc_seq : 'a t -> int
(** Claim the next tie-break sequence number without scheduling.  Lets
    a caller batching several logical events into one queue entry (see
    packet trains in {!Packetsim}) assign each element the seq it would
    have received from {!schedule}, preserving order equivalence with
    the unbatched schedule-per-event discipline. *)

val schedule_pre : 'a t -> time:float -> seq:int -> 'a -> unit
(** Schedule under a sequence number claimed earlier with {!alloc_seq}
    (or carried over when re-scheduling); does not advance the counter.
    @raise Invalid_argument on NaN or negative time. *)

val next : 'a t -> (float * 'a) option

val pop_before : 'a t -> until:float -> 'a option
(** Pop the next event only if its time is [<= until]; the popped
    event's time is available from {!last_time}.  Fuses peek, the
    horizon check, and pop into one call with a single [Some]
    allocation — the dispatch-loop fast path. *)

val last_time : 'a t -> float
(** Time of the event returned by the last successful {!pop_before}
    (0.0 before the first). *)

val time_cell : 'a t -> float array
(** The 1-slot flat float cell behind {!last_time}: [cell.(0)] is
    updated in place by every successful {!pop_before}.  A dispatch
    loop holds onto this array and reads the current time straight out
    of it — without flambda, {!last_time}'s float return would be boxed
    on every event. *)

val precedes_head : 'a t -> time:float -> seq:int -> bool
(** Whether [(time, seq)] strictly precedes the queue head's key (true
    on an empty queue), without allocating.  Lets a caller holding a
    batch of keyed work (a packet train) test if its next element is
    still globally next. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val clear : 'a t -> unit
(** Empty the queue {e and} reset the sequence counter, so a reused
    queue is indistinguishable from a fresh one. *)

val peek_time : 'a t -> float option
(** Time of the next event without removing it. *)

val peek_key : 'a t -> (float * int) option
(** [(time, seq)] of the next event without removing it. *)

val peak_length : 'a t -> int
(** High-water mark of {!length} since creation or {!clear}. *)

val wheel_stats : 'a t -> Mifo_util.Wheel.stats
(** Occupancy/cascade statistics of the underlying wheel. *)
