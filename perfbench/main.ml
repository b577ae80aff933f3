(* One benchmark workload, run once, in this process.

     main.exe --workload NAME --seed N --jobs J --trace 0|1 [--spans FILE]

   Pins the shared domain pool to J jobs, sets the workload up, runs its
   measured part, checks its outputs and prints one JSON object on
   stdout: set-up and measured wall time, peak RSS, the jobs that ran,
   per-operation outcomes and fingerprints and, with --trace 1, the
   per-layer metrics derived from the spans (written to FILE as JSONL).
   perfbench/run.py starts one such process per workload run, so every
   run starts with a cold route cache and its own memory high-water
   mark. *)

open Perfbench
module Json = Mifo_util.Obs.Json
module Parallel = Mifo_util.Parallel

let usage =
  "usage: main.exe --workload uniform|powerlaw|testbed|check44k --seed N --jobs J \
   --trace 0|1 [--spans FILE]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

type args = {
  workload : Workloads.t;
  seed : int;
  jobs : int;
  trace : bool;
  spans : string option;
}

let parse_args argv =
  let rec pairs acc = function
    | [] -> List.rev acc
    | [ flag ] -> die "%s needs a value" flag
    | flag :: value :: rest -> pairs ((flag, value) :: acc) rest
  in
  let given = pairs [] (List.tl (Array.to_list argv)) in
  List.iter
    (fun (flag, _) ->
      if not (List.mem flag [ "--workload"; "--seed"; "--jobs"; "--trace"; "--spans" ]) then
        die "unknown argument %S" flag)
    given;
  let get flag =
    match List.assoc_opt flag given with Some v -> v | None -> die "missing %s" flag
  in
  let int_arg flag ~min =
    let v = get flag in
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | Some _ -> die "%s must be >= %d (got %S)" flag min v
    | None -> die "%s must be an integer (got %S)" flag v
  in
  let workload =
    let name = get "--workload" in
    match Workloads.find name with
    | Some w -> w
    | None -> die "unknown workload %S" name
  in
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | v -> die "--trace must be 0 or 1 (got %S)" v
  in
  {
    workload;
    seed = int_arg "--seed" ~min:0;
    jobs = int_arg "--jobs" ~min:1;
    trace;
    spans = List.assoc_opt "--spans" given;
  }

(* VmHWM: the process's resident-set high-water mark, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Per-layer metrics from the measured part's spans.  A metric of a
   layer that did not run on this workload is 0. *)
let layer_metrics ~measure ~cpu ~gc_major =
  let all = Span.spans () in
  let inside = List.filter (fun s -> s.Span.parent = measure.Span.id) all in
  let matching p = List.filter p inside in
  let of_layer l = matching (fun s -> Span.layer s = l) in
  let named n = matching (fun s -> s.Span.name = n) in
  let self spans = List.fold_left (fun acc s -> acc +. Span.self_time all s) 0. spans in
  let sum key spans = List.fold_left (fun acc s -> acc +. Span.value s key) 0. spans in
  let per num den = if den > 0. then num /. den else 0. in
  let mw spans = sum "alloc_w" spans /. 1e6 in
  let routing = of_layer "routing" and flowsim = of_layer "flowsim" in
  let packetsim = of_layer "packetsim" and netbuild = of_layer "netbuild" in
  let props = named "verifier.props" and net = named "verifier.net" in
  let setup_layer l = List.filter (fun s -> Span.layer s = l) all in
  let epochs = sum "flowsim.epochs" flowsim in
  let events = sum "packetsim.events" packetsim in
  let measured = Span.duration measure in
  let uncovered = Span.self_time all measure in
  [
    ("routing.self_s", self routing);
    ("routing.dests", sum "dests" routing);
    ("routing.us_per_dest", 1e6 *. per (self routing) (sum "dests" routing));
    ("routing.alloc_mw", mw routing);
    ("flowsim.self_s", self flowsim);
    ("flowsim.bgp.self_s", self (named "flowsim.bgp"));
    ("flowsim.miro.self_s", self (named "flowsim.miro"));
    ("flowsim.mifo.self_s", self (named "flowsim.mifo"));
    ("flowsim.epochs", epochs);
    ("flowsim.solves", sum "flowsim.solver.solves" flowsim);
    ("flowsim.skipped_epochs", sum "flowsim.solver.skipped_epochs" flowsim);
    ("flowsim.epochs_per_s", per epochs (self flowsim));
    ("flowsim.path_switches", sum "flowsim.path_switches" flowsim);
    ("flowsim.alloc_mw", mw flowsim);
    ("pathcount.self_s", self (of_layer "pathcount"));
    ("pathcount.pairs", sum "pairs" (of_layer "pathcount"));
    ("figure.self_s", self (of_layer "figure"));
    ("packetsim.self_s", self packetsim);
    ("packetsim.events", events);
    ("packetsim.events_per_s", per events (self packetsim));
    ("packetsim.delivered", sum "packetsim.delivered" packetsim);
    ("packetsim.deflected", sum "packetsim.deflected" packetsim);
    ("packetsim.encapsulated", sum "packetsim.encapsulated" packetsim);
    ( "packetsim.dropped",
      List.fold_left
        (fun acc k -> acc +. sum ("packetsim.dropped." ^ k) packetsim)
        0. [ "queue"; "ttl"; "valley"; "no_route" ] );
    ("daemon.alt_changed", sum "daemon.alt_changed" packetsim);
    ( "daemon.ramp_buckets",
      sum "daemon.ramp_up_buckets" packetsim +. sum "daemon.ramp_down_buckets" packetsim );
    ("packetsim.alloc_mw", mw packetsim);
    ("netbuild.self_s", self netbuild);
    ("netbuild.fib_entries", sum "fib.entries" netbuild);
    ("netbuild.alloc_mw", mw netbuild);
    ("verifier.props.self_s", self props);
    ("verifier.props.states", sum "states" props);
    ("verifier.props.states_per_s", per (sum "states" props) (self props));
    ("verifier.props.failed_links", sum "failed_links" props);
    ("verifier.replay.self_s", self (named "verifier.replay"));
    ("verifier.net.self_s", self net);
    ("verifier.net.states", sum "states" net);
    ("verifier.net.fib_entries", sum "fib_entries" net);
    ("topology.self_s", self (setup_layer "topology"));
    ("topology.ases", sum "ases" (setup_layer "topology"));
    ("topology.links", sum "links" (setup_layer "topology"));
    ("traffic.self_s", self (setup_layer "traffic"));
    ("traffic.flows", sum "flows" (setup_layer "traffic"));
    ("process.cpu_s", cpu);
    ("process.gc_major", gc_major);
    ("uncovered_s", uncovered);
    ("span_coverage", per (measured -. uncovered) measured);
  ]

let () =
  let a = parse_args Sys.argv in
  let w = a.workload in
  Span.start_run ~trace:a.trace
    ~id:(Printf.sprintf "%s-seed%d-pid%d" w.Workloads.name a.seed (Unix.getpid ()));
  let clock = Unix.gettimeofday in
  let setup () =
    Parallel.set_default_jobs a.jobs;
    w.Workloads.setup Workloads.full ~seed:a.seed
  in
  let timed f =
    let t = clock () in
    let v = f () in
    (clock () -. t, v)
  in
  (* Set up [setup_reps] times, untraced but for the last, whose inputs
     the measured part uses; setup_s is the median. *)
  let warm =
    List.init (w.Workloads.setup_reps - 1) (fun _ -> fst (timed (fun () -> Span.untraced setup)))
  in
  let last, measure = timed (fun () -> Span.span "setup" setup) in
  let setup_s = List.nth (List.sort compare (last :: warm)) (List.length warm / 2) in
  let jobs = Parallel.jobs (Parallel.get_default ()) in
  let t1 = clock () in
  let cpu0 = cpu_s () and gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let check = Span.span "measure" measure in
  let t2 = clock () in
  let cpu = cpu_s () -. cpu0 in
  let gc_major = float_of_int ((Gc.quick_stat ()).Gc.major_collections - gc0) in
  let outcomes = check () in
  let expected = Expected.lookup ~workload:w.Workloads.name ~seed:a.seed in
  let outcomes =
    List.map
      (fun (o : Workloads.outcome) ->
        match (o.Workloads.result, expected) with
        | Ok fp, Some table -> (
          match List.assoc_opt o.Workloads.label table with
          | Some want when want = fp -> o
          | Some want ->
            { o with result = Error (Printf.sprintf "fingerprint %s, recorded %s" fp want) }
          | None -> { o with result = Error "no recorded fingerprint for this operation" })
        | _ -> o)
      outcomes
  in
  let failed = List.filter (fun o -> Result.is_error o.Workloads.result) outcomes in
  let layers =
    if not a.trace then []
    else begin
      Option.iter Span.write a.spans;
      let measure_span = List.find (fun s -> s.Span.name = "measure") (Span.spans ()) in
      [
        ( "layers",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Num v))
               (layer_metrics ~measure:measure_span ~cpu ~gc_major)) );
      ]
    end
  in
  let num x = Json.Num x in
  let json =
    Json.Obj
      ([
         ("workload", Json.Str w.Workloads.name);
         ("seed", num (float_of_int a.seed));
         ("seed_used", Json.Bool w.Workloads.seed_used);
         ("jobs", num (float_of_int jobs));
         ("trace", Json.Bool a.trace);
         ("setup_s", num setup_s);
         ("wall_s", num (t2 -. t1));
         ("peak_rss_mb", num (peak_rss_mb ()));
         ("cpu_s", num cpu);
         ("gc_major", num gc_major);
         ("attempted", num (float_of_int (List.length outcomes)));
         ("failed", num (float_of_int (List.length failed)));
         ("fingerprints_recorded", Json.Bool (expected <> None));
         ( "fingerprints",
           Json.Obj
             (List.filter_map
                (fun (o : Workloads.outcome) ->
                  match o.Workloads.result with
                  | Ok fp -> Some (o.Workloads.label, Json.Str fp)
                  | Error _ -> None)
                outcomes) );
         ( "errors",
           Json.Obj
             (List.filter_map
                (fun (o : Workloads.outcome) ->
                  match o.Workloads.result with
                  | Error e -> Some (o.Workloads.label, Json.Str e)
                  | Ok _ -> None)
                outcomes) );
       ]
      @ layers)
  in
  print_endline (Json.to_string json)
