(* Integration tests: the experiment harness end-to-end at quick scale.
   These exercise topology generation -> routing -> traffic -> simulation
   -> figure extraction in one pass and assert the paper's qualitative
   relationships (who wins, monotonicity), not absolute numbers. *)

module Exp = Mifo_exp.Experiments
module Ablations = Mifo_exp.Ablations
module Context = Mifo_exp.Context
module Generator = Mifo_topology.Generator
module Topo_stats = Mifo_topology.Topo_stats

(* substring check without the Str dependency *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A small topology + quick scale so the whole file runs in seconds. *)
let ctx =
  lazy
    (Context.create
       ~params:
         {
           Generator.default_params with
           Generator.ases = 600;
           tier1 = 8;
           content_providers = 6;
           content_peer_span = (5, 20);
         }
       ~scale:{ Context.quick_scale with Context.flows = 500; arrival_rate = 1_500. }
       ~seed:7 ())

let test_table1 () =
  let ctx = Lazy.force ctx in
  let s = Exp.Table1.run ctx in
  Alcotest.(check int) "nodes" 600 s.Topo_stats.nodes;
  Alcotest.(check int) "links add up" s.Topo_stats.links
    (s.Topo_stats.pc_links + s.Topo_stats.peering_links);
  let rendered = Exp.Table1.render s in
  Alcotest.(check bool) "mentions node count" true
    (contains rendered (Mifo_util.Table.fmt_count s.Topo_stats.nodes))

let test_fig7_relationships () =
  let ctx = Lazy.force ctx in
  let t = Exp.Fig7.run ctx in
  Alcotest.(check int) "four series" 4 (List.length t.Exp.Fig7.series);
  (* each series is sorted descending over percentiles *)
  List.iter
    (fun s ->
      let pc = s.Exp.Fig7.percentile_counts in
      for i = 1 to Array.length pc - 1 do
        Alcotest.(check bool) "monotone" true (snd pc.(i) <= snd pc.(i - 1))
      done)
    t.Exp.Fig7.series;
  (* the paper's headline: MIFO >> MIRO in available paths *)
  let median = Exp.Fig7.median_of t in
  Alcotest.(check bool) "MIFO-100 median > MIRO-100 median" true
    (median "100% Deployed MIFO" > median "100% Deployed MIRO");
  Alcotest.(check bool) "MIFO-100 >= MIFO-50" true
    (median "100% Deployed MIFO" >= median "50% Deployed MIFO")

let test_fig5_relationships () =
  let ctx = Lazy.force ctx in
  let panels = Exp.Throughput.fig5 ~ratios:[ 1.0 ] ctx in
  match panels with
  | [ (ratio, curves) ] ->
    Alcotest.(check (float 1e-9)) "ratio" 1.0 ratio;
    Alcotest.(check int) "three protocols" 3 (List.length curves);
    let find label =
      List.find (fun (c : Exp.Throughput.curve) -> c.Exp.Throughput.label = label) curves
    in
    let bgp = find "BGP" and mifo = find "100% Deployed MIFO" in
    (* CDF values are valid percentages and monotone *)
    List.iter
      (fun (c : Exp.Throughput.curve) ->
        Array.iteri
          (fun i (_, y) ->
            Alcotest.(check bool) "percent" true (y >= 0. && y <= 100.);
            if i > 0 then
              Alcotest.(check bool) "monotone" true (y >= snd c.Exp.Throughput.cdf.(i - 1)))
          c.Exp.Throughput.cdf)
      curves;
    Alcotest.(check (float 1e-9)) "BGP offloads nothing" 0. bgp.Exp.Throughput.offload;
    Alcotest.(check bool) "MIFO offloads" true (mifo.Exp.Throughput.offload > 0.);
    Alcotest.(check bool) "MIFO >= BGP at 500 Mbps" true
      (mifo.Exp.Throughput.at_least_500m >= bgp.Exp.Throughput.at_least_500m)
  | _ -> Alcotest.fail "expected one panel"

let test_fig6_structure () =
  let ctx = Lazy.force ctx in
  let panels = Exp.Throughput.fig6 ~alphas:[ 1.0 ] ctx in
  match panels with
  | [ (alpha, curves) ] ->
    Alcotest.(check (float 1e-9)) "alpha" 1.0 alpha;
    Alcotest.(check int) "three protocols" 3 (List.length curves);
    List.iter
      (fun (c : Exp.Throughput.curve) ->
        Alcotest.(check bool) "median sane" true
          (c.Exp.Throughput.median_mbps >= 0. && c.Exp.Throughput.median_mbps <= 1000.))
      curves
  | _ -> Alcotest.fail "expected one panel"

let test_fig8_monotone_trend () =
  let ctx = Lazy.force ctx in
  let t = Exp.Fig8.run ~ratios:[ 0.1; 0.5; 1.0 ] ctx in
  Alcotest.(check int) "three points" 3 (Array.length t);
  Array.iter
    (fun (_, f) -> Alcotest.(check bool) "fraction" true (f >= 0. && f <= 1.))
    t;
  let _, at10 = t.(0) and _, at100 = t.(2) in
  Alcotest.(check bool) "more deployment, more offload" true (at100 >= at10);
  Alcotest.(check bool) "full deployment offloads a nontrivial share" true (at100 > 0.05)

let test_fig9_distribution () =
  let ctx = Lazy.force ctx in
  let t = Exp.Fig9.run ctx in
  let total = Array.fold_left ( +. ) 0. t.Exp.Fig9.fractions in
  Alcotest.(check bool) "fractions sum to ~1 over switched flows" true
    (t.Exp.Fig9.switched_flows = 0 || abs_float (total -. 1.0) < 1e-6);
  Alcotest.(check bool) "some flows switched" true (t.Exp.Fig9.switched_flows > 0);
  Alcotest.(check bool) "switched <= total" true
    (t.Exp.Fig9.switched_flows <= t.Exp.Fig9.total_flows);
  (* stability: the bulk of switched flows switch few times *)
  Alcotest.(check bool) "1-2 switches dominate" true
    (t.Exp.Fig9.fractions.(0) +. t.Exp.Fig9.fractions.(1) > 0.5)

let test_fig12_quick () =
  let config =
    { Mifo_testbed.Testbed.default_config with
      Mifo_testbed.Testbed.flows_per_source = 3; flow_bytes = 5_000_000 }
  in
  let t = Exp.Fig12.run ~config () in
  Alcotest.(check int) "bgp flows" 6 (Array.length t.Exp.Fig12.bgp.Mifo_testbed.Testbed.fct);
  Alcotest.(check int) "mifo flows" 6 (Array.length t.Exp.Fig12.mifo.Mifo_testbed.Testbed.fct);
  Alcotest.(check bool) "MIFO not worse than 0.9x BGP" true (t.Exp.Fig12.improvement > -0.1);
  let rendered = Exp.Fig12.render t in
  Alcotest.(check bool) "render mentions both protocols" true
    (contains rendered "BGP" && contains rendered "MIFO")

let test_tag_check_ablation () =
  let t = Ablations.Tag_check.run_gadget () in
  Alcotest.(check int) "all loop without the check" 3
    t.Ablations.Tag_check.without_check.Ablations.Tag_check.looped;
  Alcotest.(check int) "none loop with the check" 0
    t.Ablations.Tag_check.with_check.Ablations.Tag_check.looped;
  Alcotest.(check int) "drops replace loops" 3
    t.Ablations.Tag_check.with_check.Ablations.Tag_check.dropped_valley;
  (* the static verifier's verdicts ride along: clean with the check,
     a machine-checked (replay-confirmed) loop counterexample without *)
  Alcotest.(check bool) "static: loop-free with the check" true
    t.Ablations.Tag_check.static_on.Ablations.Tag_check.loop_free;
  Alcotest.(check bool) "static: counterexample without it" false
    t.Ablations.Tag_check.static_off.Ablations.Tag_check.loop_free;
  Alcotest.(check bool) "static: counterexample replays to a loop" true
    t.Ablations.Tag_check.static_off.Ablations.Tag_check.replay_confirmed

let test_tag_check_ablation_generated () =
  let ctx = Lazy.force ctx in
  let t = Ablations.Tag_check.run ~sources:60 ctx in
  Alcotest.(check int) "never loops with the check" 0
    t.Ablations.Tag_check.with_check.Ablations.Tag_check.looped;
  Alcotest.(check bool) "static: loop-free with the check" true
    t.Ablations.Tag_check.static_on.Ablations.Tag_check.loop_free;
  Alcotest.(check bool) "static: any counterexample replays" true
    (t.Ablations.Tag_check.static_off.Ablations.Tag_check.loop_free
    || t.Ablations.Tag_check.static_off.Ablations.Tag_check.replay_confirmed)

let test_selection_ablation () =
  let ctx = Lazy.force ctx in
  match Ablations.Selection.run ctx with
  | [ greedy; oracle ] ->
    Alcotest.(check bool) "both measured" true
      (greedy.Ablations.Selection.median_mbps > 0.
       && oracle.Ablations.Selection.median_mbps > 0.)
  | _ -> Alcotest.fail "expected two rows"

let test_threshold_ablation () =
  let ctx = Lazy.force ctx in
  let rows = Ablations.Threshold.run ~thresholds:[ 0.9; 0.99 ] ctx in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Ablations.Threshold.row) ->
      Alcotest.(check bool) "switch counts sane" true (r.Ablations.Threshold.mean_switches >= 0.))
    rows

let test_validation_agreement () =
  let v = Mifo_exp.Validation.run ~ases:100 ~flows:12 ~flow_bytes:5_000_000 ~seed:3 () in
  Alcotest.(check bool)
    (Printf.sprintf "correlation %.2f > 0.5" v.Mifo_exp.Validation.bgp_correlation)
    true
    (v.Mifo_exp.Validation.bgp_correlation > 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "mean ratio %.2f within 0.7..1.3" v.Mifo_exp.Validation.bgp_mean_ratio)
    true
    (v.Mifo_exp.Validation.bgp_mean_ratio > 0.7 && v.Mifo_exp.Validation.bgp_mean_ratio < 1.3);
  Alcotest.(check bool) "invariants reported" true
    (v.Mifo_exp.Validation.invariants <> []);
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) ("invariant: " ^ name) true ok)
    v.Mifo_exp.Validation.invariants

let test_convergence_ablation () =
  let ctx = Lazy.force ctx in
  let t = Ablations.Convergence.run ~failures:5 ctx in
  Alcotest.(check int) "five failures measured" 5 t.Ablations.Convergence.failures;
  Alcotest.(check bool) "convergence costs messages" true
    (t.Ablations.Convergence.mean_messages > 0.)

let test_failure_ablation () =
  let ctx = Lazy.force ctx in
  let t = Ablations.Failure.run ~fail_count:2 ctx in
  Alcotest.(check bool) "some flows affected" true (t.Ablations.Failure.affected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "MIFO (%.2f) saves more affected flows than BGP (%.2f)"
       t.Ablations.Failure.mifo_completed t.Ablations.Failure.bgp_completed)
    true
    (t.Ablations.Failure.mifo_completed > t.Ablations.Failure.bgp_completed)

(* The multicore layer must not change any result: runs with a 4-way
   pool and with the serial pool must produce structurally identical
   figures (slot-indexed accumulation, serial flattening). *)
let test_mifo_jobs_determinism () =
  let params =
    {
      Generator.default_params with
      Generator.ases = 300;
      tier1 = 6;
      content_providers = 4;
      content_peer_span = (4, 12);
    }
  in
  let scale = { Context.quick_scale with Context.flows = 200; arrival_rate = 1_000. } in
  let run_at jobs =
    Mifo_util.Parallel.set_default_jobs jobs;
    let ctx = Context.create ~params ~scale ~seed:11 () in
    let fig7 = Exp.Fig7.run ctx in
    let fig8 = Exp.Fig8.run ~ratios:[ 0.5; 1.0 ] ctx in
    let fig5 = Exp.Throughput.fig5 ctx and fig6 = Exp.Throughput.fig6 ctx in
    (fig7, fig8, fig5, fig6)
  in
  let serial = run_at 1 in
  let parallel = run_at 4 in
  Mifo_util.Parallel.set_default_jobs (Mifo_util.Parallel.default_jobs ());
  let (f7s, f8s, f5s, f6s) = serial and (f7p, f8p, f5p, f6p) = parallel in
  Alcotest.(check (pair int int)) "three fig5 and three fig6 panels" (3, 3)
    (List.length f5s, List.length f6s);
  (* [compare], not [=]: a NaN statistic must equal itself *)
  Alcotest.(check bool) "fig5 identical" true (compare f5s f5p = 0);
  Alcotest.(check bool) "fig6 identical" true (compare f6s f6p = 0);
  List.iter2
    (fun (a : Exp.Fig7.series) (b : Exp.Fig7.series) ->
      Alcotest.(check string) "series label" a.Exp.Fig7.label b.Exp.Fig7.label;
      Alcotest.(check bool)
        (Printf.sprintf "series %S identical" a.Exp.Fig7.label)
        true
        (a.Exp.Fig7.percentile_counts = b.Exp.Fig7.percentile_counts))
    f7s.Exp.Fig7.series f7p.Exp.Fig7.series;
  Alcotest.(check bool) "fig8 identical" true (f8s = f8p)

let test_overhead_ablation () =
  let ctx = Lazy.force ctx in
  let t = Ablations.Overhead.run ~destinations:4 ctx in
  Alcotest.(check bool) "BGP pays messages" true (t.Ablations.Overhead.bgp_messages > 0.);
  Alcotest.(check bool) "MIRO pays extra" true (t.Ablations.Overhead.miro_extra > 0.);
  Alcotest.(check (float 1e-9)) "MIFO pays nothing" 0. t.Ablations.Overhead.mifo_extra

let () =
  Alcotest.run "mifo_exp"
    [
      ("table1", [ Alcotest.test_case "attributes" `Quick test_table1 ]);
      ("fig7", [ Alcotest.test_case "path diversity relationships" `Quick test_fig7_relationships ]);
      ("fig5", [ Alcotest.test_case "throughput CDFs" `Slow test_fig5_relationships ]);
      ("fig6", [ Alcotest.test_case "power-law panels" `Slow test_fig6_structure ]);
      ("fig8", [ Alcotest.test_case "offload trend" `Slow test_fig8_monotone_trend ]);
      ("fig9", [ Alcotest.test_case "switch distribution" `Slow test_fig9_distribution ]);
      ( "determinism",
        [ Alcotest.test_case "MIFO_JOBS=4 matches serial" `Quick test_mifo_jobs_determinism ] );
      ("fig12", [ Alcotest.test_case "testbed quick" `Slow test_fig12_quick ]);
      ( "ablations",
        [
          Alcotest.test_case "tag-check on the gadget" `Quick test_tag_check_ablation;
          Alcotest.test_case "tag-check on generated topology" `Quick
            test_tag_check_ablation_generated;
          Alcotest.test_case "selection rule" `Slow test_selection_ablation;
          Alcotest.test_case "threshold sweep" `Slow test_threshold_ablation;
          Alcotest.test_case "convergence dynamics" `Slow test_convergence_ablation;
          Alcotest.test_case "failure recovery" `Slow test_failure_ablation;
          Alcotest.test_case "control-plane overhead" `Slow test_overhead_ablation;
        ] );
      ( "validation",
        [ Alcotest.test_case "simulators agree" `Slow test_validation_agreement ] );
    ]
