(* Wall-clock spans around calls into the library's layers.

   The workloads wrap every call into a layer's public function in
   [span].  With tracing off (the untraced run that produces the
   end-to-end numbers) [span] is a direct call: no clock read, no
   sampling, no allocation beyond the closure.  With tracing on, each
   call gets one span holding its name, start and end (wall seconds since
   [start_run]), its parent span and the run id, plus the deltas of a
   fixed set of probes sampled at the same boundary:

   - [alloc_w]: words allocated, from [Gc.quick_stat] (minor + major -
     promoted).  In OCaml 5.1 this sums every domain, but a live worker
     domain's share is sampled at its last minor collection, so a span
     can miss up to one minor heap (256K words) per worker domain.
   - [gc_major]: major collections.
   - every [Obs] counter listed in [watched_counters], the [fib.entries]
     gauge and, on packetsim spans, the [packetsim.train_batch]
     histogram's sum (one sample per packet arrival handled by a port
     train).

   Spans are kept in memory and written out once, when the run ends. *)

module Obs = Mifo_util.Obs

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  run_id : string;
  start : float;
  stop : float;
  values : (string * float) list;  (** probe deltas, then the caller's attributes *)
}

let watched_counters =
  [
    "flowsim.epochs";
    "flowsim.solver.solves";
    "flowsim.solver.skipped_epochs";
    "flowsim.path_switches";
    "packetsim.delivered";
    "packetsim.deflected";
    "packetsim.encapsulated";
    "packetsim.dropped.queue";
    "packetsim.dropped.ttl";
    "packetsim.dropped.valley";
    "packetsim.dropped.no_route";
    "daemon.alt_changed";
    "daemon.ramp_up_buckets";
    "daemon.ramp_down_buckets";
  ]

let gauge_or_zero name =
  let v = Obs.gauge_value name in
  if Float.is_nan v then 0. else v

let histogram_sum name =
  let open Obs.Json in
  match member "histograms" (parse (Obs.snapshot_json ())) with
  | None -> 0.
  | Some hs -> (
    match member name hs with
    | None -> 0.
    | Some h -> ( match member "sum" h with Some (Num s) -> s | _ -> 0.))

(* The histogram sum needs a full metrics snapshot, so only packetsim
   spans take it. *)
let sample ~packetsim =
  let g = Gc.quick_stat () in
  ("alloc_w", g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words)
  :: ("gc_major", float_of_int g.Gc.major_collections)
  :: ("fib.entries", gauge_or_zero "fib.entries")
  :: ("packetsim.events", if packetsim then histogram_sum "packetsim.train_batch" else 0.)
  :: List.map (fun c -> (c, float_of_int (Obs.counter_value c))) watched_counters

let enabled = ref false
let run_id = ref ""
let epoch = ref 0.
let next_id = ref 0
let open_spans : int list ref = ref []
let finished : t list ref = ref []

let now () = Unix.gettimeofday () -. !epoch

let start_run ~trace ~id =
  enabled := trace;
  run_id := id;
  epoch := Unix.gettimeofday ();
  next_id := 0;
  open_spans := [];
  finished := []

let span ?(attrs = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let packetsim = String.starts_with ~prefix:"packetsim" name in
    let before = sample ~packetsim in
    let start = now () in
    let close extra =
      let stop = now () in
      let after = sample ~packetsim in
      open_spans := List.tl !open_spans;
      let deltas = List.map2 (fun (k, a) (_, b) -> (k, a -. b)) after before in
      finished :=
        { id; parent; name; run_id = !run_id; start; stop; values = deltas @ extra }
        :: !finished
    in
    match f () with
    | v ->
      close (attrs v);
      v
    | exception e ->
      close [ ("raised", 1.) ];
      raise e
  end

(* [f ()] with tracing off. *)
let untraced f =
  let saved = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := saved) f

let spans () = List.rev !finished
let duration s = s.stop -. s.start
let value s key = Option.value ~default:0. (List.assoc_opt key s.values)

(* A span's layer is its name up to the first dot: [flowsim.mifo] belongs
   to [flowsim]. *)
let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Self time: the span minus the time covered by its direct children. *)
let self_time all s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) all

let to_json s =
  let open Obs.Json in
  Obj
    ([
       ("id", Num (float_of_int s.id));
       ("parent", Num (float_of_int s.parent));
       ("name", Str s.name);
       ("run", Str s.run_id);
       ("start", Num s.start);
       ("end", Num s.stop);
     ]
    @ List.map (fun (k, v) -> (k, Num v)) s.values)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Obs.Json.to_string (to_json s));
      output_char oc '\n')
    (spans ());
  close_out oc
