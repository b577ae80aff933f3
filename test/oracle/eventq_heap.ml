(* The binary-heap event queue: O(log n) per operation, no time
   quantization.  It is the oracle the production timing-wheel
   {!Mifo_netsim.Eventq} is compared against, with the same
   [(time, seq)] keys and validation; [S] is the interface both
   implement, so one test can drive either. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t
  val schedule : 'a t -> time:float -> 'a -> unit
  val alloc_seq : 'a t -> int
  val schedule_pre : 'a t -> time:float -> seq:int -> 'a -> unit
  val next : 'a t -> (float * 'a) option
  val pop_before : 'a t -> until:float -> 'a option
  val last_time : 'a t -> float
  val time_cell : 'a t -> float array
  val precedes_head : 'a t -> time:float -> seq:int -> bool
  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val clear : 'a t -> unit
  val peek_time : 'a t -> float option
  val peek_key : 'a t -> (float * int) option
  val peak_length : 'a t -> int
end

type 'a item = { time : float; seq : int; payload : 'a }

type 'a t = {
  heap : 'a item Heap.t;
  mutable next_seq : int;
  mutable peak : int;
  last : float array;
}

let cmp a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { heap = Heap.create ~cmp (); next_seq = 0; peak = 0; last = [| 0. |] }
let length t = Heap.length t.heap

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let schedule_pre t ~time ~seq payload =
  if Float.is_nan time || time < 0. then invalid_arg "Eventq.schedule: bad time";
  Heap.push t.heap { time; seq; payload };
  let n = length t in
  if n > t.peak then t.peak <- n

let schedule t ~time payload =
  let seq = alloc_seq t in
  schedule_pre t ~time ~seq payload

let next t =
  match Heap.pop t.heap with
  | None -> None
  | Some { time; payload; _ } -> Some (time, payload)

let is_empty t = Heap.is_empty t.heap

let pop_before t ~until =
  if Heap.is_empty t.heap then None
  else begin
    let it = Heap.top_exn t.heap in
    if it.time > until then None
    else begin
      Heap.drop t.heap;
      t.last.(0) <- it.time;
      Some it.payload
    end
  end

let last_time t = t.last.(0)
let time_cell t = t.last

let precedes_head t ~time ~seq =
  Heap.is_empty t.heap
  ||
  let it = Heap.top_exn t.heap in
  let c = Float.compare time it.time in
  c < 0 || (c = 0 && seq < it.seq)

let clear t =
  Heap.clear t.heap;
  t.next_seq <- 0;
  t.peak <- 0;
  t.last.(0) <- 0.

let peek_time t =
  match Heap.peek t.heap with None -> None | Some { time; _ } -> Some time

let peek_key t =
  match Heap.peek t.heap with None -> None | Some { time; seq; _ } -> Some (time, seq)

let peak_length t = t.peak
