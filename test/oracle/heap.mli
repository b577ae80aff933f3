(** Polymorphic binary min-heap.

    O(log n) push/pop, amortized O(1) space reuse via a growable array;
    the order is given at creation time.  Backs the oracle event queue
    ({!Eventq_heap}) and the reference max-min allocator
    ({!Maxmin_ref}). *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option

val top_exn : 'a t -> 'a
(** The minimum element without removing it, no allocation.
    @raise Invalid_argument on an empty heap. *)

val drop : 'a t -> unit
(** Remove the top element (no-op when empty) without returning it —
    the allocation-free counterpart of {!pop} for callers that already
    read the top via {!top_exn}. *)

val pop : 'a t -> 'a option
val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
val of_array : cmp:('a -> 'a -> int) -> 'a array -> 'a t
(** Heapify in O(n). *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; ascending order. *)
