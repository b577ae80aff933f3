(* Workload = entry point, at reduced size.

   Each benchmark workload re-issues the layer calls of an entry point so
   it can wrap them in spans.  This test runs both, traced workload and
   entry point, at small sizes and requires identical results:
   - uniform  vs Experiments.Throughput.fig5 and Experiments.Fig7.run
   - powerlaw vs Experiments.Throughput.fig6
   - testbed  vs Experiments.Fig12.run
   - check44k vs the JSON report [mifo_sim check] writes for the same
     arguments (the binary is the first command-line argument).
   If an entry point is reorganized and its workload is not, this fails.

     dune build @perfbench/runtest *)

open Perfbench
module Context = Mifo_exp.Context
module Exp = Mifo_exp.Experiments
module Flowsim = Mifo_netsim.Flowsim
module Testbed = Mifo_testbed.Testbed
module Generator = Mifo_topology.Generator

(* Not the snapshot seed, so the flow-level workloads' split between the
   snapshot topology and the seeded traffic is exercised. *)
let seed = 7

let small =
  {
    Workloads.ases = 200;
    scale = Context.quick_scale;
    testbed = { Testbed.default_config with Testbed.flows_per_source = 3; flow_bytes = 300_000 };
    check_ases = 300;
    check_dests = 4;
    check_fail_links = 8;
    check_hosts = 6;
  }

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "MISMATCH %s\n%!" what
  end

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s raised %s" what e)

let entry_ctx () =
  Context.of_graph ~scale:small.scale ~seed
    (Generator.generate
       ~params:{ Generator.default_params with Generator.ases = small.ases }
       ~seed:Workloads.snapshot_seed ())

(* As [Experiments.Throughput.curve_of_result]'s median. *)
let median_mbps r =
  let cdf = Mifo_util.Dist.cdf_of_samples (Array.map (fun t -> t /. 1e6) (Flowsim.throughputs r)) in
  if Mifo_util.Dist.cdf_size cdf = 0 then 0. else Mifo_util.Dist.percentile cdf 50.

let same_panels fig entry replica =
  expect (fig ^ " panel count") (List.length entry = List.length replica);
  List.iter2
    (fun (x, curves) (x', runs) ->
      expect (Printf.sprintf "%s panel %g" fig x) (x = x');
      List.iter2
        (fun (c : Exp.Throughput.curve) (run : Workloads.flowsim_run) ->
          let r = ok_exn c.Exp.Throughput.label run.Workloads.output in
          let what = Printf.sprintf "%s %g %s" fig x c.Exp.Throughput.label in
          expect (what ^ " label") (c.Exp.Throughput.label = run.Workloads.run_label);
          expect (what ^ " offload") (c.Exp.Throughput.offload = r.Flowsim.offload_fraction);
          expect (what ^ " median") (c.Exp.Throughput.median_mbps = median_mbps r))
        curves runs)
    entry replica

let all_ok what outcomes =
  List.iter
    (fun (o : Workloads.outcome) ->
      match o.Workloads.result with
      | Ok _ -> ()
      | Error e -> expect (Printf.sprintf "%s %s: %s" what o.Workloads.label e) false)
    outcomes

let uniform () =
  let ctx = entry_ctx () in
  let fig5 = Exp.Throughput.fig5 ctx in
  let fig7 = Exp.Fig7.run ctx in
  let u = Workloads.uniform_measure (Workloads.uniform_setup small ~seed) in
  same_panels "fig5" fig5 u.Workloads.panels;
  expect "fig7 pairs" (fig7.Exp.Fig7.pairs = u.Workloads.fig7.Workloads.pairs);
  List.iter2
    (fun (s : Exp.Fig7.series) (s' : Workloads.fig7_series) ->
      expect ("fig7 label " ^ s.Exp.Fig7.label) (s.Exp.Fig7.label = s'.Workloads.series_label);
      expect ("fig7 rows " ^ s.Exp.Fig7.label)
        (s.Exp.Fig7.percentile_counts = ok_exn s.Exp.Fig7.label s'.Workloads.counts))
    fig7.Exp.Fig7.series u.Workloads.fig7.Workloads.series;
  all_ok "uniform" (Workloads.uniform_check u)

let powerlaw () =
  let fig6 = Exp.Throughput.fig6 (entry_ctx ()) in
  let p = Workloads.powerlaw_measure (Workloads.powerlaw_setup small ~seed) in
  same_panels "fig6" fig6 p;
  all_ok "powerlaw" (Workloads.powerlaw_check p)

let testbed () =
  let fig12 = Exp.Fig12.run ~config:small.testbed () in
  let runs = Workloads.testbed_measure small.testbed in
  List.iter2
    (fun (tag, (r : Testbed.result)) (tag', r') ->
      let r' = ok_exn tag' r' in
      expect ("fig12 protocol " ^ tag) (tag = tag');
      expect ("fig12 counters " ^ tag) (r.Testbed.counters = r'.Testbed.counters);
      expect ("fig12 fct " ^ tag) (r.Testbed.fct = r'.Testbed.fct);
      expect ("fig12 aggregate " ^ tag) (r.Testbed.mean_aggregate = r'.Testbed.mean_aggregate);
      expect ("fig12 makespan " ^ tag) (r.Testbed.makespan = r'.Testbed.makespan))
    [ ("bgp", fig12.Exp.Fig12.bgp); ("mifo", fig12.Exp.Fig12.mifo) ]
    runs;
  all_ok "testbed" (Workloads.testbed_check small.testbed runs)

let check44k mifo_sim =
  let out = "selfcheck-report.json" in
  let args =
    [
      "check"; "--ases"; string_of_int small.check_ases; "--seed"; string_of_int seed;
      "--dests"; string_of_int small.check_dests; "--fail-links";
      string_of_int small.check_fail_links; "--hosts"; string_of_int small.check_hosts;
      "--props"; "loops,delivery,stretch,resilience"; "--out"; out;
    ]
  in
  let code =
    Sys.command (Filename.quote_command mifo_sim ~stdout:Filename.null ~stderr:Filename.null args)
  in
  expect (Printf.sprintf "mifo_sim check exit %d" code) (code = 0);
  let entry = In_channel.with_open_bin out In_channel.input_all in
  let c = Workloads.check_setup small ~seed in
  let r = Workloads.check_measure small ~seed c in
  let replica = ok_exn "check" r in
  expect "check report" (entry = Mifo_analysis.Report.to_json_string replica.Workloads.report ^ "\n");
  all_ok "check44k" (Workloads.check_check c r)

let () =
  let mifo_sim =
    if Array.length Sys.argv = 2 then Sys.argv.(1)
    else (prerr_endline "usage: selfcheck.exe PATH-TO-mifo_sim.exe"; exit 2)
  in
  Mifo_util.Parallel.set_default_jobs 2;
  Span.start_run ~trace:true ~id:"selfcheck";
  uniform ();
  powerlaw ();
  testbed ();
  check44k mifo_sim;
  let layers = List.sort_uniq compare (List.map Span.layer (Span.spans ())) in
  List.iter
    (fun l -> expect ("no span for layer " ^ l) (List.mem l layers))
    [
      "topology"; "traffic"; "routing"; "pathcount"; "figure"; "flowsim"; "packetsim"; "netbuild";
      "verifier";
    ];
  if !failures > 0 then begin
    Printf.printf "perfbench selfcheck: %d mismatch(es)\n" !failures;
    exit 1
  end;
  print_endline "perfbench selfcheck: every workload matches its entry point"
