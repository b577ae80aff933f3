module Wheel = Mifo_util.Wheel

type 'a t = {
  wheel : 'a Wheel.t;
  mutable next_seq : int;
  mutable peak : int;
  last : float array;
      (* time of the last pop_before result, in a 1-slot flat float
         array: a [mutable float] field of this mixed record would box
         a fresh float on every pop *)
}

let create () = { wheel = Wheel.create (); next_seq = 0; peak = 0; last = [| 0. |] }
let length t = Wheel.length t.wheel

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let schedule_pre t ~time ~seq payload =
  if Float.is_nan time || time < 0. then invalid_arg "Eventq.schedule: bad time";
  Wheel.schedule t.wheel ~time ~seq payload;
  let n = Wheel.length t.wheel in
  if n > t.peak then t.peak <- n

let schedule t ~time payload =
  let seq = alloc_seq t in
  schedule_pre t ~time ~seq payload

let next t =
  match Wheel.pop t.wheel with
  | None -> None
  | Some (time, _, payload) -> Some (time, payload)

let is_empty t = Wheel.is_empty t.wheel

(* Fused peek-filter-pop for the dispatch loop: one [Some payload]
   allocation per event instead of an option per peek plus a tuple per
   pop.  The popped event's time is read back via {!last_time}. *)
let pop_before t ~until = Wheel.pop_before t.wheel ~until ~cell:t.last
let last_time t = t.last.(0)
let time_cell t = t.last

(* Allocation-free "may this key run ahead of the queue?" test for
   batched callers; true when the queue is empty. *)
let precedes_head t ~time ~seq = Wheel.precedes t.wheel ~time ~seq

let clear t =
  Wheel.clear t.wheel;
  (* Reset the tie-break counter too: a cleared queue must schedule and
     pop exactly like a fresh one, or reuse breaks reproducibility. *)
  t.next_seq <- 0;
  t.peak <- 0;
  t.last.(0) <- 0.

let peek_time t =
  match Wheel.peek t.wheel with None -> None | Some (time, _) -> Some time

let peek_key t = Wheel.peek t.wheel
let peak_length t = t.peak
let wheel_stats t = Wheel.stats t.wheel
