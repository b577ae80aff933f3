(** Max-min fair bandwidth allocation (progressive filling).

    The flow-level simulator models long-lived TCP flows sharing links as
    a max-min fair allocation, the standard fluid abstraction: all flow
    rates rise together until a link saturates, the flows bottlenecked
    there freeze at the fair share, and the rest keep rising.

    The implementation keeps a lazy min-heap of per-link saturation
    levels.  A link's level (cap - frozen) / unfrozen only grows as flows
    freeze, so a popped stale key can simply be re-pushed; the run time is
    O((L + sum of path lengths) log L).

    {!Solver} is the incremental engine the simulator's hot loop uses:
    flows register their link sets once, every scratch array persists
    across solves, and a solve allocates nothing at steady state.  The
    stateless reference allocator it is checked against lives with the
    tests ([test/oracle/maxmin_ref.ml]); a QCheck property pins the two
    bit-identical. *)

val dedup_links : int array -> int array
(** Canonical link set of a path: sorted ascending, duplicates removed.
    Returns a fresh array; the input is untouched. *)

(** Persistent incremental solver: progressive filling with zero
    allocation per solve at steady state.

    Intended use: [create] once per simulation, [register] each flow's
    {!dedup_links}-canonical link set at arrival, [set_links] on a path
    switch, [unregister] at completion, [set_capacity] on failure, and
    call [solve] each epoch.  [solve] also computes the per-link
    allocation (folded into the same pass), exposed
    via {!val-link_allocs}. *)
module Solver : sig
  type t

  val create : ?capacity:float -> nlinks:int -> unit -> t
  (** [create ~nlinks ()] makes a solver for links [0 .. nlinks - 1],
      each with initial capacity [capacity] (default [0.]).

      @raise Invalid_argument on negative [nlinks] or a negative or NaN
      [capacity]. *)

  val nlinks : t -> int
  val capacity : t -> int -> float

  val set_capacity : t -> int -> float -> unit
  (** @raise Invalid_argument on a negative or NaN capacity. *)

  val register : t -> int array -> int
  (** [register t links] admits a flow crossing [links] and returns its
      slot handle.  [links] must be sorted ascending and duplicate-free
      ({!dedup_links} output); the array is kept by reference — do not
      mutate it while registered.

      @raise Invalid_argument on unsorted, duplicated, or out-of-range
      link ids. *)

  val set_links : t -> int -> int array -> unit
  (** Replace a registered flow's link set (path switch).  Same
      preconditions as {!register}. *)

  val unregister : t -> int -> unit
  (** Release a slot (flow completed).  The slot id may be reused by a
      later {!register}. *)

  val solve : t -> int array -> int -> unit
  (** [solve t active n] runs waterfilling over the flows
      [active.(0 .. n - 1)] (slot handles, caller's order).  Flow order
      determines the per-link allocation accumulation order, so pass the
      same order the reference allocator is given.  Rates of slots not in
      [active] are stale after the call; reading them is a caller bug.

      @raise Invalid_argument on a bad length or an unknown slot. *)

  val rate : t -> int -> float
  (** Rate of a slot as of the last {!solve} ([Float.infinity] for a
      flow with an empty link set). *)

  val link_allocs : t -> float array
  (** Per-link allocated bandwidth as of the last {!solve}.  Returns the
      solver's internal array — valid until the next {!solve}, and not
      to be mutated. *)

  val solves : t -> int
  (** Number of {!solve} calls so far (skip-rate accounting). *)
end
