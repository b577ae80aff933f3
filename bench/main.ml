(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table I, Figs. 5-9, Fig. 12), runs the ablation benches
   from DESIGN.md, and measures the hot paths with Bechamel.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig5 fig7 # a subset
     dune exec bench/main.exe -- micro     # only the microbenchmarks

   Scale via environment (documented in README):
     MIFO_ASES, MIFO_SEED, MIFO_FLOWS, MIFO_RATE, MIFO_DESTS,
     MIFO_TESTBED_MB, MIFO_TESTBED_FLOWS *)

module Exp = Mifo_exp.Experiments
module Ablations = Mifo_exp.Ablations
module Context = Mifo_exp.Context

(* An unset or empty variable takes the default; a malformed one stops
   the run (exit 2) with a message naming the variable and its value,
   as MIFO_JOBS and MIFO_K_ALT do. *)
let env_value name ~expected parse default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
    match String.trim v with
    | "" -> default
    | t -> (
      match parse t with
      | Some x -> x
      | None ->
        Printf.eprintf "bench: %s: expected %s, got %S\n%!" name expected v;
        exit 2))

let env_int name default = env_value name ~expected:"an integer" int_of_string_opt default

let env_float name default =
  env_value name ~expected:"a number"
    (fun t ->
      match float_of_string_opt t with
      | Some f when Float.is_finite f -> Some f
      | _ -> None)
    default

let seed = env_int "MIFO_SEED" 42

(* Any bit-identity violation flips this; the process exits nonzero
   after the JSON is written, so CI fails loudly but the numbers are
   still on disk for debugging. *)
let bench_failed = ref false

let scale =
  {
    Context.default_scale with
    Context.flows = env_int "MIFO_FLOWS" Context.default_scale.Context.flows;
    arrival_rate = env_float "MIFO_RATE" Context.default_scale.Context.arrival_rate;
    dest_samples = env_int "MIFO_DESTS" Context.default_scale.Context.dest_samples;
  }

let params =
  let d = Mifo_topology.Generator.default_params in
  { d with Mifo_topology.Generator.ases = env_int "MIFO_ASES" d.Mifo_topology.Generator.ases }

let testbed_config =
  {
    Mifo_testbed.Testbed.default_config with
    Mifo_testbed.Testbed.flow_bytes = env_int "MIFO_TESTBED_MB" 10 * 1_000_000;
    flows_per_source = env_int "MIFO_TESTBED_FLOWS" 30;
  }

let context = lazy (Context.create ~params ~scale ~seed ())

(* Wall time per figure, collected for BENCH_routing.json. *)
let figure_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  figure_times := !figure_times @ [ (name, dt) ];
  Printf.printf "%s\n[%s regenerated in %.1fs]\n\n%!" result name dt

let table1 () = timed "Table I" (fun () -> Exp.Table1.render (Exp.Table1.run (Lazy.force context)))
let fig5 () = timed "Fig. 5" (fun () -> Exp.Throughput.render_fig5 (Exp.Throughput.fig5 (Lazy.force context)))
let fig6 () = timed "Fig. 6" (fun () -> Exp.Throughput.render_fig6 (Exp.Throughput.fig6 (Lazy.force context)))
let fig7 () = timed "Fig. 7" (fun () -> Exp.Fig7.render (Exp.Fig7.run (Lazy.force context)))
let fig8 () = timed "Fig. 8" (fun () -> Exp.Fig8.render (Exp.Fig8.run (Lazy.force context)))
let fig9 () = timed "Fig. 9" (fun () -> Exp.Fig9.render (Exp.Fig9.run (Lazy.force context)))
let fig12 () = timed "Fig. 12" (fun () -> Exp.Fig12.render (Exp.Fig12.run ~config:testbed_config ()))

let ablations () =
  let ctx = Lazy.force context in
  timed "Ablation: tag-check (Fig. 2a gadget)" (fun () ->
      Ablations.Tag_check.render ~label:"Fig. 2(a) gadget"
        (Ablations.Tag_check.run_gadget ()));
  timed "Ablation: tag-check (generated topology)" (fun () ->
      Ablations.Tag_check.render ~label:"generated topology"
        (Ablations.Tag_check.run ctx));
  timed "Ablation: IP-in-IP" (fun () ->
      let config = { testbed_config with Mifo_testbed.Testbed.flows_per_source = 5 } in
      Ablations.Encap.render (Ablations.Encap.run ~config ()));
  timed "Ablation: selection rule" (fun () ->
      Ablations.Selection.render (Ablations.Selection.run ctx));
  timed "Ablation: control-plane overhead" (fun () ->
      Ablations.Overhead.render (Ablations.Overhead.run ctx));
  timed "Ablation: convergence dynamics" (fun () ->
      Ablations.Convergence.render (Ablations.Convergence.run ctx));
  timed "Ablation: failure recovery" (fun () ->
      Ablations.Failure.render (Ablations.Failure.run ctx));
  timed "Ablation: threshold sweep" (fun () ->
      Ablations.Threshold.render (Ablations.Threshold.run ctx))

(* --- Parallel route-computation benchmark + BENCH_routing.json --------- *)

type precompute_sample = { jobs : int; secs : float; dests_per_sec : float }

type routing_bench = {
  ases : int;
  links : int;
  dests : int;
  serial : precompute_sample;
  parallel : precompute_sample;
}

let routing_bench_result : routing_bench option ref = ref None

(* Engine forwarding throughput on a deflecting entry, single-alternative
   vs. a ranked pair (the ECMP bucket->slot spread) — filled by [micro],
   recorded in BENCH_routing.json. *)
type forward_bench = { fwd_k1_ns : float; fwd_k2_ns : float }

let forward_bench_result : forward_bench option ref = ref None

(* Throughput of [Routing_table.precompute] over [dests] destinations on
   a fresh (cold) table, serial vs. the MIFO_JOBS / ncores pool.  The
   parallel-vs-serial determinism is asserted by the test suite; this
   measures only the wall clock. *)
let routing_precompute_bench () =
  let module Parallel = Mifo_util.Parallel in
  let module Routing_table = Mifo_bgp.Routing_table in
  let ctx = Lazy.force context in
  let g = Context.graph ctx in
  let n = Mifo_topology.As_graph.n g in
  let k = Stdlib.min 500 n in
  let dests = Array.init k (fun i -> i * n / k) in
  let measure jobs =
    let pool = Parallel.create ~jobs () in
    let table = Routing_table.create g in
    let t0 = Unix.gettimeofday () in
    Routing_table.precompute ~pool table dests;
    let secs = Unix.gettimeofday () -. t0 in
    (* the jobs the pool actually runs, not the request — on a 1-core
       box MIFO_JOBS-less runs collapse to 1 and the JSON must say so *)
    let jobs = Parallel.jobs pool in
    Parallel.shutdown pool;
    { jobs; secs; dests_per_sec = float_of_int k /. secs }
  in
  let serial = measure 1 in
  let parallel = measure (Stdlib.max 1 (Parallel.default_jobs ())) in
  let bench =
    { ases = n; links = Mifo_topology.As_graph.edge_count g; dests = k; serial; parallel }
  in
  routing_bench_result := Some bench;
  Printf.printf
    "== Parallel route precompute (%d dests, %d ASes) ==\n\
     jobs=1: %.2fs (%.0f dests/s)   jobs=%d: %.2fs (%.0f dests/s)   speedup: %.2fx\n\n%!"
    k n serial.secs serial.dests_per_sec parallel.jobs parallel.secs
    parallel.dests_per_sec
    (serial.secs /. parallel.secs)

(* --- Full-Internet-scale routing + incremental re-verification bench --- *)

type check_bench = {
  chk_full_secs : float;  (* mean wall clock of a full As_check DFS *)
  chk_inc_secs : float;  (* mean wall clock of an incremental recheck *)
  chk_deltas : int;  (* rechecks timed (2 per FIB delta: disable + re-enable) *)
  chk_speedup : float;
  chk_verdicts_identical : bool;
}

type scale_bench = {
  sc_ases : int;
  sc_links : int;
  sc_dests : int;
  sc_jobs : int;
  sc_secs : float;
  sc_dests_per_sec : float;
  sc_peak_words : float;  (* routing.peak_words gauge: major-heap high water *)
  sc_rep_identical : bool;  (* CSR rib == boxed-oracle rib, every node *)
  sc_check : check_bench;
}

let scale_bench_result : scale_bench option ref = ref None

(* Graph + warm routing table handed from [scale44k_bench] to
   [check44k_bench] so the 44K topology is generated once per run. *)
let scale44k_ctx :
    (Mifo_topology.As_graph.t * Mifo_bgp.Routing_table.t * int array) option ref =
  ref None

(* The paper's evaluation scale: route computation throughput, peak
   memory, and full-vs-incremental static verification on the 44,340-AS
   preset (MIFO_44K_* shrink it for smoke runs).  The CSR representation
   is cross-checked against the boxed oracle on a full destination's
   RIBs, and every incremental verdict against a fresh full check —
   mismatches flip [bench_failed]. *)
let scale44k_bench () =
  let module Generator = Mifo_topology.Generator in
  let module As_graph = Mifo_topology.As_graph in
  let module Routing = Mifo_bgp.Routing in
  let module Routing_table = Mifo_bgp.Routing_table in
  let module Parallel = Mifo_util.Parallel in
  let module As_check = Mifo_analysis.As_check in
  let module Obs = Mifo_util.Obs in
  let ases = Stdlib.max 10 (env_int "MIFO_44K_ASES" 44_340) in
  let ndests = Stdlib.max 1 (env_int "MIFO_44K_DESTS" 32) in
  let ndeltas = Stdlib.max 1 (env_int "MIFO_44K_DELTAS" 12) in
  let params = { Generator.paper_scale_params with Generator.ases } in
  let topo = Obs.time_phase "bench.44k.generate" (fun () -> Generator.generate ~params ~seed ()) in
  let g = topo.Generator.graph in
  let n = As_graph.n g in
  let links = As_graph.edge_count g in
  Printf.printf "== Full-Internet scale (%d ASes, %d links) ==\n%!" n links;
  (* Route-computation throughput through the pool, with a bounded cache
     so 44K-node Routing.t values recycle instead of accumulating. *)
  let pool = Parallel.create ~jobs:(Stdlib.max 1 (Parallel.default_jobs ())) () in
  let jobs = Parallel.jobs pool in
  let table = Routing_table.create ~max_cached:16 g in
  let dests = Array.init ndests (fun i -> i * n / ndests) in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  Routing_table.precompute ~pool table dests;
  let secs = Unix.gettimeofday () -. t0 in
  Parallel.shutdown pool;
  let dests_per_sec = float_of_int ndests /. secs in
  Printf.printf "route compute: %d dests in %.2fs (%.1f dests/s, jobs=%d)\n%!"
    ndests secs dests_per_sec jobs;
  (* CSR vs boxed oracle: same destination, every node's RIB equal. *)
  let d0 = dests.(Array.length dests / 2) in
  let rt_csr = Routing.compute ~rep:Routing.Csr g d0 in
  let rt_box = Routing.compute ~rep:Routing.Boxed g d0 in
  let rep_identical = ref true in
  for v = 0 to n - 1 do
    if Routing.rib rt_csr v <> Routing.rib rt_box v then rep_identical := false
  done;
  if not !rep_identical then begin
    Printf.printf "   <-- CSR / boxed RIB MISMATCH (dest %d)\n%!" d0;
    bench_failed := true
  end;
  (* Incremental vs full static verification under single-entry FIB
     deltas: disable then re-enable one alternative, recheck after each,
     and compare every verdict against a fresh full DFS. *)
  let inc = As_check.Inc.create g rt_csr in
  let full_time = ref 0. and full_runs = ref 0 in
  let inc_time = ref 0. and inc_runs = ref 0 in
  let verdicts_identical = ref true in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let same_verdict (a : As_check.loop_result) (b : As_check.loop_result) =
    a.As_check.counterexample = b.As_check.counterexample
  in
  (* Deltas target nodes that actually hold an alternative. *)
  let deltas = ref [] in
  let v = ref 0 in
  while List.length !deltas < ndeltas && !v < n do
    if !v <> d0 && Routing.rib_size rt_csr !v >= 2 then
      deltas := (!v, Routing.rib_via rt_csr !v 1) :: !deltas;
    v := !v + (Stdlib.max 1 (n / (4 * ndeltas)))
  done;
  List.iter
    (fun (at, via) ->
      List.iter
        (fun enabled ->
          As_check.Inc.set_deflection inc ~at ~via ~enabled;
          let dt_inc, r_inc = time (fun () -> As_check.Inc.recheck inc) in
          let dt_full, r_full = time (fun () -> As_check.Inc.full_check inc) in
          inc_time := !inc_time +. dt_inc;
          incr inc_runs;
          full_time := !full_time +. dt_full;
          incr full_runs;
          if not (same_verdict r_inc r_full) then verdicts_identical := false)
        [ false; true ])
    !deltas;
  if not !verdicts_identical then begin
    Printf.printf "   <-- INCREMENTAL / FULL VERDICT MISMATCH\n%!";
    bench_failed := true
  end;
  let runs = Stdlib.max 1 !inc_runs in
  let chk_full_secs = !full_time /. float_of_int (Stdlib.max 1 !full_runs) in
  let chk_inc_secs = Stdlib.max 1e-9 (!inc_time /. float_of_int runs) in
  let check =
    {
      chk_full_secs;
      chk_inc_secs;
      chk_deltas = !inc_runs;
      chk_speedup = chk_full_secs /. chk_inc_secs;
      chk_verdicts_identical = !verdicts_identical;
    }
  in
  let peak_words = Obs.gauge_value "routing.peak_words" in
  Printf.printf
    "static check: full %.4fs vs incremental %.6fs per delta (%d rechecks, \
     %.0fx, verdicts identical: %b)\n\
     peak heap: %.1f MWords   rep identical: %b\n\n%!"
    check.chk_full_secs check.chk_inc_secs check.chk_deltas check.chk_speedup
    check.chk_verdicts_identical (peak_words /. 1e6) !rep_identical;
  scale_bench_result :=
    Some
      {
        sc_ases = n;
        sc_links = links;
        sc_dests = ndests;
        sc_jobs = jobs;
        sc_secs = secs;
        sc_dests_per_sec = dests_per_sec;
        sc_peak_words = peak_words;
        sc_rep_identical = !rep_identical;
        sc_check = check;
      };
  scale44k_ctx := Some (g, table, dests)

(* --- Property-suite verification bench at the 44K scale ----------------- *)

type prop_sample = { ps_secs : float; ps_states : int; ps_states_per_sec : float }

type check44k_bench = {
  ck_ases : int;
  ck_dests : int;
  ck_fails : int;  (* seeded resilience sample size per destination *)
  ck_loops : prop_sample;
  ck_delivery : prop_sample;
  ck_stretch : prop_sample;
  ck_resilience : prop_sample;
  ck_max_stretch : int;
  ck_res_sweep_secs : float;
  ck_res_full_secs : float;  (* the same links as N independent full checks *)
  ck_res_speedup : float;
  ck_parallel_identical : bool;
  ck_clean : bool;
  ck_peak_words : float;
}

let check44k_result : check44k_bench option ref = ref None

(* The {!Mifo_analysis.Props} suite over the 44K topology built by
   [scale44k_bench]: wall clock and states/sec per property on a sampled
   destination set, the certificate-based resilience sweep against the
   same links as independent full checks, and the parallel-vs-serial
   report identity (bit-equal JSON at jobs=1 vs the default pool).
   MIFO_44K_CHECK_DESTS / MIFO_44K_FAILS shrink it for smoke runs. *)
let check44k_bench () =
  match !scale44k_ctx with
  | None -> ()
  | Some (g, table, all_dests) ->
    let module As_graph = Mifo_topology.As_graph in
    let module Routing = Mifo_bgp.Routing in
    let module Routing_table = Mifo_bgp.Routing_table in
    let module Parallel = Mifo_util.Parallel in
    let module Props = Mifo_analysis.Props in
    let module Verifier = Mifo_analysis.Verifier in
    let module Report = Mifo_analysis.Report in
    let module Prng = Mifo_util.Prng in
    let n = As_graph.n g in
    let ncheck = Stdlib.max 1 (env_int "MIFO_44K_CHECK_DESTS" 8) in
    let fails = Stdlib.max 1 (env_int "MIFO_44K_FAILS" 64) in
    let dests =
      Array.to_list (Array.sub all_dests 0 (Stdlib.min ncheck (Array.length all_dests)))
    in
    Printf.printf "== Property suite at scale (%d ASes, %d dests, %d sampled fails) ==\n%!"
      n (List.length dests) fails;
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (Unix.gettimeofday () -. t0, r)
    in
    let run props =
      Verifier.verify_props ~fail_links:fails ~seed ~props g ~table ~dests
    in
    let clean = ref true in
    let sample name props states_of =
      let dt, (rep : Report.t) = time (fun () -> run props) in
      if not (Report.ok rep) then clean := false;
      let states = states_of rep.Report.stats in
      Printf.printf "  %-10s %8.3fs  %9d states  %12.0f states/s\n%!" name dt states
        (float_of_int states /. dt);
      ( { ps_secs = dt; ps_states = states; ps_states_per_sec = float_of_int states /. dt },
        rep )
    in
    let loops, _ = sample "loops" [ Props.Loops ] (fun s -> s.Report.states_explored) in
    let delivery, _ =
      sample "delivery" [ Props.Delivery ] (fun s -> s.Report.delivery_states)
    in
    let stretch, stretch_rep =
      sample "stretch" [ Props.Stretch ] (fun s -> s.Report.stretch_states)
    in
    let resilience, res_rep =
      sample "resilience" [ Props.Resilience ] (fun s -> s.Report.failed_links)
    in
    (* The certificate sweep vs the same sampled links as independent full
       checks (loop DFS + delivery scan under each overlay, no
       certificates).  The verdict sets must agree. *)
    let res_full_secs, full_viols =
      time (fun () ->
          let viols = ref 0 in
          List.iter
            (fun d ->
              let rt = Routing_table.get table d in
              let candidates = ref [] in
              for u = n - 1 downto 0 do
                if u <> d && Routing.reachable rt u then candidates := u :: !candidates
              done;
              let candidates = Array.of_list !candidates in
              let chosen =
                if fails < Array.length candidates then begin
                  let rng = Prng.create ~seed:(seed + (31 * d)) () in
                  let idx =
                    Prng.sample_without_replacement rng fails (Array.length candidates)
                  in
                  Array.map (fun i -> candidates.(i)) idx
                end
                else candidates
              in
              Array.iter
                (fun u ->
                  match Routing.next_hop rt u with
                  | Some v when Routing.rib_size rt u >= 2 ->
                    let r =
                      Props.verify_dest ~fail_link:(u, v)
                        ~props:[ Props.Loops; Props.Delivery ] g rt
                    in
                    viols := !viols + List.length r.Report.violations
                  | _ -> ())
                chosen)
            dests;
          !viols)
    in
    let sweep_viols =
      List.length
        (List.filter
           (function
             | Report.Failure_loop _ | Report.Black_hole _ -> true | _ -> false)
           res_rep.Report.violations)
    in
    if sweep_viols <> full_viols then begin
      Printf.printf "   <-- RESILIENCE SWEEP / FULL-CHECK VERDICT MISMATCH (%d vs %d)\n%!"
        sweep_viols full_viols;
      bench_failed := true
    end;
    let res_speedup = res_full_secs /. Stdlib.max 1e-9 resilience.ps_secs in
    (* Bit-identical reports at any domain count: jobs=1 vs the default
       pool over the full suite. *)
    let pool1 = Parallel.create ~jobs:1 () in
    let rep_serial =
      Verifier.verify_props ~pool:pool1 ~fail_links:fails ~seed ~props:Props.all g
        ~table ~dests
    in
    Parallel.shutdown pool1;
    let rep_parallel = run Props.all in
    let parallel_identical =
      Report.to_json_string rep_serial = Report.to_json_string rep_parallel
    in
    if not parallel_identical then begin
      Printf.printf "   <-- PARALLEL / SERIAL REPORT MISMATCH\n%!";
      bench_failed := true
    end;
    let peak_words = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
    Printf.printf
      "  resilience sweep %.3fs vs %d full checks %.3fs (%.1fx)\n\
      \  max stretch %d   parallel identical: %b   clean: %b   peak heap %.1f MWords\n\n%!"
      resilience.ps_secs resilience.ps_states res_full_secs res_speedup
      stretch_rep.Report.stats.Report.max_stretch parallel_identical !clean
      (peak_words /. 1e6);
    check44k_result :=
      Some
        {
          ck_ases = n;
          ck_dests = List.length dests;
          ck_fails = fails;
          ck_loops = loops;
          ck_delivery = delivery;
          ck_stretch = stretch;
          ck_resilience = resilience;
          ck_max_stretch = stretch_rep.Report.stats.Report.max_stretch;
          ck_res_sweep_secs = resilience.ps_secs;
          ck_res_full_secs = res_full_secs;
          ck_res_speedup = res_speedup;
          ck_parallel_identical = parallel_identical;
          ck_clean = !clean;
          ck_peak_words = peak_words;
        }

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let scale44k_json sc =
  let c = sc.sc_check in
  Printf.sprintf
    "{\n\
    \    \"ases\": %d,\n\
    \    \"links\": %d,\n\
    \    \"dests\": %d,\n\
    \    \"jobs\": %d,\n\
    \    \"secs\": %.3f,\n\
    \    \"dests_per_sec\": %.3f,\n\
    \    \"peak_words\": %.0f,\n\
    \    \"rep_identical\": %b,\n\
    \    \"check\": {\"full_secs\": %.6f, \"incremental_secs\": %.9f, \"speedup\": %.1f, \"deltas\": %d, \"verdicts_identical\": %b}\n\
    \  }"
    sc.sc_ases sc.sc_links sc.sc_dests sc.sc_jobs sc.sc_secs sc.sc_dests_per_sec
    sc.sc_peak_words sc.sc_rep_identical c.chk_full_secs c.chk_inc_secs
    c.chk_speedup c.chk_deltas c.chk_verdicts_identical

let write_bench_json path =
  match (!routing_bench_result, !forward_bench_result) with
  | None, None -> ()
  | routing, forward ->
    let cores = Domain.recommended_domain_count () in
    let precompute =
      match routing with
      | None -> ""
      | Some b ->
        let sample s =
          Printf.sprintf "{\"jobs\": %d, \"secs\": %.6f, \"dests_per_sec\": %.1f}" s.jobs
            s.secs s.dests_per_sec
        in
        (* A speedup quoted on a 1-core box (where the pool collapses to one
           worker) is noise, not a measurement — omit the field entirely. *)
        let speedup =
          if cores > 1 && b.parallel.jobs > 1 then
            Printf.sprintf ",\n    \"speedup\": %.3f" (b.serial.secs /. b.parallel.secs)
          else ""
        in
        Printf.sprintf
          "  \"topology\": {\"ases\": %d, \"links\": %d},\n\
          \  \"precompute\": {\n\
          \    \"dests\": %d,\n\
          \    \"serial\": %s,\n\
          \    \"parallel\": %s%s\n\
          \  },\n"
          b.ases b.links b.dests (sample b.serial) (sample b.parallel) speedup
    in
    let forward =
      match forward with
      | None -> ""
      | Some f ->
        Printf.sprintf
          "  \"forward\": {\"deflect_k1_ns\": %.1f, \"deflect_k2_ns\": %.1f},\n"
          f.fwd_k1_ns f.fwd_k2_ns
    in
    let scale44k =
      match !scale_bench_result with
      | None -> ""
      | Some sc -> Printf.sprintf "  \"scale44k\": %s,\n" (scale44k_json sc)
    in
    let check44k =
      match !check44k_result with
      | None -> ""
      | Some c ->
        let prop p =
          Printf.sprintf
            "{\"secs\": %.6f, \"states\": %d, \"states_per_sec\": %.1f}" p.ps_secs
            p.ps_states p.ps_states_per_sec
        in
        Printf.sprintf
          "  \"check44k\": {\n\
          \    \"ases\": %d,\n\
          \    \"dests\": %d,\n\
          \    \"fail_links\": %d,\n\
          \    \"loops\": %s,\n\
          \    \"delivery\": %s,\n\
          \    \"stretch\": %s,\n\
          \    \"resilience\": %s,\n\
          \    \"max_stretch\": %d,\n\
          \    \"resilience_sweep_secs\": %.6f,\n\
          \    \"resilience_full_secs\": %.6f,\n\
          \    \"resilience_speedup\": %.2f,\n\
          \    \"parallel_identical\": %b,\n\
          \    \"clean\": %b,\n\
          \    \"peak_words\": %.0f\n\
          \  },\n"
          c.ck_ases c.ck_dests c.ck_fails (prop c.ck_loops) (prop c.ck_delivery)
          (prop c.ck_stretch) (prop c.ck_resilience) c.ck_max_stretch
          c.ck_res_sweep_secs c.ck_res_full_secs c.ck_res_speedup
          c.ck_parallel_identical c.ck_clean c.ck_peak_words
    in
    let figures =
      String.concat ", "
        (List.map
           (fun (name, dt) -> Printf.sprintf "\"%s\": %.3f" (json_escape name) dt)
           !figure_times)
    in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"machine\": {\"cores\": %d},\n\
       %s%s%s%s\
      \  \"figure_secs\": {%s}\n\
       }\n"
      cores precompute forward scale44k check44k figures;
    close_out oc;
    Printf.printf "[wrote %s]\n%!" path

(* --- Simulator benchmarks + BENCH_sim.json ----------------------------- *)

module Flowsim = Mifo_netsim.Flowsim
module Obs = Mifo_util.Obs

type engine_sample = { epochs : int; solves : int; secs : float; epochs_per_sec : float }

type flowsim_size = {
  size_label : string;
  protocol : string;
  sim_ases : int;
  sim_links : int;
  sim_flows : int;
  sim_time : float;
  oracle : engine_sample;
  production : engine_sample;
  identical : bool;  (* production and oracle produced bit-identical results *)
}

type pkt_engine_sample = { events : int; pkt_secs : float; events_per_sec : float }

type packetsim_size = {
  pkt_label : string;
  pkt_ases : int;
  pkt_flows : int;
  pkt_kb : int;
  per_packet : pkt_engine_sample;  (* one queue entry per departure: the oracle *)
  trains : pkt_engine_sample;  (* per-link packet trains: the fast path *)
  pkt_identical : bool;  (* event counts, finish times, counters all bitwise equal *)
}

let flowsim_sizes : flowsim_size list ref = ref []
let packetsim_sizes : packetsim_size list ref = ref []

(* Flow-level simulator: wall time per epoch, the reference simulator
   (Flowsim_oracle: the pre-optimization epoch loop, solving every epoch
   with the reference allocator) vs. Flowsim.run (the incremental solver
   with clean-epoch skipping).  Same topology, same workload, one row
   per controller (BGP, MIRO at 50% deployment, MIFO everywhere), and —
   asserted here — bit-identical results: every flow's stats, the
   throughput series and the epoch count. *)
let flowsim_bench_size ~label ~ases ~flows:count ~max_time =
  let module Generator = Mifo_topology.Generator in
  let topo =
    Generator.generate
      ~params:{ Generator.default_params with Generator.ases }
      ~seed ()
  in
  let g = topo.Generator.graph in
  let table = Mifo_bgp.Routing_table.create g in
  let n = Mifo_topology.As_graph.n g in
  let specs =
    Mifo_traffic.Traffic.uniform
      (Mifo_util.Prng.create ~seed:(seed + 7) ())
      ~n_ases:n ~count
      ~rate:(float_of_int count /. (0.5 *. max_time))
      ()
  in
  let dests =
    Array.of_list
      (List.sort_uniq Int.compare
         (Array.to_list
            (Array.map (fun (s : Flowsim.flow_spec) -> s.Flowsim.dst) specs)))
  in
  Mifo_bgp.Routing_table.precompute table dests;
  let run name protocol simulate =
    Gc.compact ();
    let params = { Flowsim.default_params with Flowsim.max_time } in
    let t0 = Unix.gettimeofday () in
    let r =
      Obs.time_phase
        (Printf.sprintf "bench.flowsim.%s.%s" label name)
        (fun () -> simulate ~params table protocol specs)
    in
    let secs = Unix.gettimeofday () -. t0 in
    let sample =
      {
        epochs = r.Flowsim.epochs;
        solves = r.Flowsim.solves;
        secs;
        epochs_per_sec = float_of_int r.Flowsim.epochs /. secs;
      }
    in
    (sample, r)
  in
  let same (a : Flowsim.result) (b : Flowsim.result) =
    let bits = Int64.bits_of_float in
    let stats_bits (s : Flowsim.flow_stats) =
      ( (bits s.Flowsim.throughput, bits s.Flowsim.finish, bits s.Flowsim.alt_time,
         bits s.Flowsim.final_rate),
        (s.Flowsim.completed, s.Flowsim.switches, s.Flowsim.used_alt, s.Flowsim.final_path) )
    in
    let series_bits (r : Flowsim.result) =
      Array.map (fun (t, v) -> (bits t, bits v)) r.Flowsim.series
    in
    a.Flowsim.epochs = b.Flowsim.epochs
    && bits a.Flowsim.sim_end = bits b.Flowsim.sim_end
    && series_bits a = series_bits b
    && Array.map stats_bits a.Flowsim.flows = Array.map stats_bits b.Flowsim.flows
  in
  let one (name, protocol) =
    let oracle, oracle_r =
      run name protocol (fun ~params -> Mifo_oracle.Flowsim_oracle.run ~params ?failures:None)
    in
    let production, prod_r =
      run name protocol (fun ~params -> Flowsim.run ~params ?failures:None)
    in
    let identical = same oracle_r prod_r in
    if not identical then bench_failed := true;
    flowsim_sizes :=
      !flowsim_sizes
      @ [
          {
            size_label = label;
            protocol = name;
            sim_ases = n;
            sim_links = Mifo_topology.As_graph.edge_count g;
            sim_flows = count;
            sim_time = max_time;
            oracle;
            production;
            identical;
          };
        ];
    Printf.printf
      "== Flowsim (%s, %s: %d ASes, %d flows, %.0fs horizon) ==\n\
       oracle:     %6d epochs, %6d solves, %6.2fs (%8.0f epochs/s)\n\
       production: %6d epochs, %6d solves, %6.2fs (%8.0f epochs/s)\n\
       speedup: %.2fx   bit-identical: %b%s\n\n%!"
      label name n count max_time oracle.epochs oracle.solves oracle.secs
      oracle.epochs_per_sec production.epochs production.solves production.secs
      production.epochs_per_sec
      (oracle.secs /. production.secs)
      identical
      (if identical then "" else "   <-- ORACLE MISMATCH")
  in
  List.iter one
    [
      ("bgp", Flowsim.Bgp);
      ( "miro50",
        Flowsim.Miro
          {
            deployment = Mifo_core.Deployment.fraction ~n ~ratio:0.5 ~seed;
            cap = Mifo_miro.Miro.default_config.Mifo_miro.Miro.cap;
          } );
      ("mifo", Flowsim.Mifo (Mifo_core.Deployment.full ~n));
    ]

(* Packet-level simulator: events/sec with per-packet scheduling (one
   queue entry per departure, the oracle) and with per-link packet
   trains (the production fast path) on the same workload, asserted
   bit-identical.  Both run on the timing-wheel event queue.  Two
   topologies:

   - chain: every flow funnels into the last AS so the shared tail
     links queue, drop, and retransmit — the TCP hot paths;
   - dumbbell: two core routers, stub ASes split across them, every
     flow crossing the core link — >= 64 ASes without exceeding the
     packet TTL the way a 64-hop chain would.  The dumbbell is the
     event-queue scaling configuration: open-loop UDP blasts from
     20 Gb/s stubs into a 1 Gb/s core, with buffers sized to hold the
     whole offered load, build a backlog of hundreds of thousands of
     in-flight departures.  Per-packet scheduling keeps every one of
     them in the event queue; per-link trains (one queue entry per busy
     link, the backlog held in the link's FIFO) keep the queue a few
     hundred entries deep. *)

module P = Mifo_netsim.Packetsim

let pkt_chain ~k ~nflows ~kb config =
  let module Engine = Mifo_core.Engine in
  let module Prefix = Mifo_bgp.Prefix in
  let module Rel = Mifo_topology.Relationship in
  let sim = P.create ~config () in
  let routers = Array.init k (fun i -> P.add_router sim ~as_id:(i + 1)) in
  let hosts =
    Array.init k (fun i -> P.add_host sim ~addr:(Prefix.host_of_as (i + 1) 1))
  in
  (* host access links *)
  let host_port =
    Array.init k (fun i ->
        let _, rh =
          P.connect sim ~a:hosts.(i) ~b:routers.(i) ~kind_ab:Engine.Local
            ~kind_ba:Engine.Local ~rate:1e9 ()
        in
        rh)
  in
  (* the chain, customer -> provider left to right *)
  let right = Array.make k (-1) and left = Array.make k (-1) in
  for i = 0 to k - 2 do
    let pi, pj =
      P.connect sim ~a:routers.(i) ~b:routers.(i + 1)
        ~kind_ab:(Engine.Ebgp { neighbor_as = i + 2; rel = Rel.Customer })
        ~kind_ba:(Engine.Ebgp { neighbor_as = i + 1; rel = Rel.Provider })
        ~rate:1e9 ()
    in
    right.(i) <- pi;
    left.(i + 1) <- pj
  done;
  for i = 0 to k - 1 do
    let fib = P.fib sim routers.(i) in
    for j = 0 to k - 1 do
      let out =
        if j = i then host_port.(i) else if j > i then right.(i) else left.(i)
      in
      Mifo_core.Fib.insert fib (Prefix.of_as (j + 1)) ~out_port:out ()
    done
  done;
  for f = 0 to nflows - 1 do
    ignore
      (P.add_flow sim
         ~src:hosts.(f mod (k - 1))
         ~dst:hosts.(k - 1)
         ~bytes:(kb * 1000)
         ~start:(0.001 *. float_of_int f))
  done;
  sim

(* Dumbbell: routers 0 and 1 are the core (peering link), stubs 2..k-1
   attach as customers — even ids to core 0, odd ids to core 1.  Flows
   are open-loop UDP blasts, left-side hosts -> right-side hosts, all
   crossing the slow core.  [queue_bits] is sized to the whole offered
   load so nothing drops: every queued packet is a scheduled departure,
   which is exactly the deep-backlog regime packet trains are for. *)
let pkt_dumbbell ~k ~nflows ~kb config =
  let module Engine = Mifo_core.Engine in
  let module Prefix = Mifo_bgp.Prefix in
  let module Rel = Mifo_topology.Relationship in
  let config = { config with P.queue_bits = nflows * kb * 8000 } in
  let sim = P.create ~config () in
  let routers = Array.init k (fun i -> P.add_router sim ~as_id:(i + 1)) in
  let core_ab, core_ba =
    P.connect sim ~a:routers.(0) ~b:routers.(1)
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Rel.Peer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Rel.Peer })
      ~rate:1e9 ()
  in
  (* stub <-> core access; stub i hangs off core (i mod 2) *)
  let up = Array.make k (-1) in
  (* stub's port toward its core *)
  let down = Array.make k (-1) in
  (* core's port toward stub i *)
  let hosts = Array.make k (-1) in
  let host_port = Array.make k (-1) in
  for i = 2 to k - 1 do
    let core = i mod 2 in
    let ps, pc =
      P.connect sim ~a:routers.(i) ~b:routers.(core)
        ~kind_ab:(Engine.Ebgp { neighbor_as = core + 1; rel = Rel.Provider })
        ~kind_ba:(Engine.Ebgp { neighbor_as = i + 1; rel = Rel.Customer })
        ~rate:20e9 ()
    in
    up.(i) <- ps;
    down.(i) <- pc;
    hosts.(i) <- P.add_host sim ~addr:(Prefix.host_of_as (i + 1) 1);
    let hp, rp =
      P.connect sim ~a:hosts.(i) ~b:routers.(i) ~kind_ab:Engine.Local
        ~kind_ba:Engine.Local ~rate:20e9 ()
    in
    ignore hp;
    host_port.(i) <- rp
  done;
  (* FIBs: stubs default up; cores route own-side stubs down, rest across *)
  for i = 2 to k - 1 do
    let fib = P.fib sim routers.(i) in
    for j = 2 to k - 1 do
      let out = if j = i then host_port.(i) else up.(i) in
      Mifo_core.Fib.insert fib (Prefix.of_as (j + 1)) ~out_port:out ()
    done
  done;
  for core = 0 to 1 do
    let fib = P.fib sim routers.(core) in
    let across = if core = 0 then core_ab else core_ba in
    for j = 2 to k - 1 do
      let out = if j mod 2 = core then down.(j) else across in
      Mifo_core.Fib.insert fib (Prefix.of_as (j + 1)) ~out_port:out ()
    done
  done;
  let lefts = ref [] and rights = ref [] in
  for i = k - 1 downto 2 do
    if i mod 2 = 0 then lefts := hosts.(i) :: !lefts
    else rights := hosts.(i) :: !rights
  done;
  let lefts = Array.of_list !lefts and rights = Array.of_list !rights in
  for f = 0 to nflows - 1 do
    ignore
      (P.add_udp_flow sim
         ~src:lefts.(f mod Array.length lefts)
         ~dst:rights.(f mod Array.length rights)
         ~bytes:(kb * 1000)
         ~start:(0.0001 *. float_of_int f)
         ())
  done;
  sim

(* Fingerprint of everything a run can observe: event count, bitwise
   per-flow finish times, and the drop/deflection counters. *)
let pkt_fingerprint sim =
  let finishes =
    Array.map
      (fun (r : P.flow_result) ->
        match r.P.finish with
        | Some f -> Int64.bits_of_float f
        | None -> Int64.minus_one)
      (P.flow_results sim)
  in
  (P.events_processed sim, finishes, P.counters sim)

(* Each discipline runs [repeats] times and reports its best wall clock —
   the standard discipline against scheduler noise.  Every repeat must
   reproduce the same fingerprint (the simulator is deterministic), so
   the repeats double as a determinism check at full bench scale. *)
let pkt_repeats = Stdlib.max 1 (env_int "MIFO_PKT_REPEATS" 2)

let pkt_run ~label ~build trains =
  let run_once () =
    Gc.compact ();
    let config = { P.default_config with P.packet_trains = trains } in
    let sim = build config in
    let t0 = Unix.gettimeofday () in
    Obs.time_phase (Printf.sprintf "bench.packetsim.%s" label) (fun () -> P.run sim);
    let secs = Unix.gettimeofday () -. t0 in
    (secs, pkt_fingerprint sim)
  in
  let secs0, fp = run_once () in
  let best = ref secs0 in
  for _ = 2 to pkt_repeats do
    let secs, fp' = run_once () in
    if fp' <> fp then begin
      Printf.printf "   <-- NONDETERMINISTIC RERUN (%s)\n%!" label;
      bench_failed := true
    end;
    if secs < !best then best := secs
  done;
  let events, _, _ = fp in
  ( {
      events;
      pkt_secs = !best;
      events_per_sec = float_of_int events /. !best;
    },
    fp )

let packetsim_bench_size ~label ~build ~ases:k ~nflows ~kb =
  let per_packet, fp_per_packet = pkt_run ~label ~build false in
  let trains, fp_trains = pkt_run ~label ~build true in
  let e1, f1, c1 = fp_per_packet and e2, f2, c2 = fp_trains in
  let identical = e1 = e2 && f1 = f2 && c1 = c2 in
  if not identical then bench_failed := true;
  packetsim_sizes :=
    !packetsim_sizes
    @ [
        {
          pkt_label = label;
          pkt_ases = k;
          pkt_flows = nflows;
          pkt_kb = kb;
          per_packet;
          trains;
          pkt_identical = identical;
        };
      ];
  Printf.printf
    "== Packetsim (%s: %d ASes, %d flows of %d KB, best of %d) ==\n\
     per-packet:    %9d events, %6.2fs (%8.0f events/s)\n\
     packet trains: %9d events, %6.2fs (%8.0f events/s)\n\
     speedup: %.2fx   bit-identical: %b%s\n\n%!"
    label k nflows kb pkt_repeats per_packet.events per_packet.pkt_secs
    per_packet.events_per_sec trains.events trains.pkt_secs trains.events_per_sec
    (per_packet.pkt_secs /. trains.pkt_secs)
    identical
    (if identical then "" else "   <-- TRAINS MISMATCH")

let packetsim_bench () =
  let k = Stdlib.max 3 (env_int "MIFO_PKT_ASES" 8) in
  let nflows = Stdlib.max 1 (env_int "MIFO_PKT_FLOWS" 12) in
  let kb = Stdlib.max 1 (env_int "MIFO_PKT_KB" 200) in
  packetsim_bench_size ~label:"chain"
    ~build:(pkt_chain ~k ~nflows ~kb)
    ~ases:k ~nflows ~kb;
  let k2 = Stdlib.max 4 (env_int "MIFO_PKT2_ASES" 64) in
  let nflows2 = Stdlib.max 1 (env_int "MIFO_PKT2_FLOWS" 200) in
  let kb2 = Stdlib.max 1 (env_int "MIFO_PKT2_KB" 4000) in
  packetsim_bench_size ~label:"dumbbell"
    ~build:(pkt_dumbbell ~k:k2 ~nflows:nflows2 ~kb:kb2)
    ~ases:k2 ~nflows:nflows2 ~kb:kb2

let sim () =
  let ases = Stdlib.max 10 (env_int "MIFO_SIM_ASES" 400) in
  let flows = Stdlib.max 2 (env_int "MIFO_SIM_FLOWS" 600) in
  let max_time = Float.max 0.1 (env_float "MIFO_SIM_TIME" 20.) in
  flowsim_bench_size ~label:"small" ~ases ~flows ~max_time;
  flowsim_bench_size ~label:"large" ~ases:(3 * ases) ~flows:(3 * flows) ~max_time;
  packetsim_bench ()

(* phase.<name>.seconds gauges accumulated by Obs.time_phase across
   whatever ran this invocation — figures, benches, everything *)
let figure_secs_json () =
  match Obs.Json.parse (Obs.snapshot_json ()) with
  | exception Failure _ -> ""
  | json -> (
    match Obs.Json.member "gauges" json with
    | Some (Obs.Json.Obj gauges) ->
      String.concat ", "
        (List.filter_map
           (fun (name, v) ->
             match v with
             | Obs.Json.Num secs
               when String.length name > 14
                    && String.sub name 0 6 = "phase."
                    && String.sub name (String.length name - 8) 8 = ".seconds" ->
               Some
                 (Printf.sprintf "\"%s\": %.3f"
                    (json_escape
                       (String.sub name 6 (String.length name - 14)))
                    secs)
             | _ -> None)
           gauges)
    | _ -> "")

let write_sim_json path =
  match !flowsim_sizes with
  | [] -> ()
  | sizes ->
    let engine s =
      Printf.sprintf
        "{\"epochs\": %d, \"solves\": %d, \"secs\": %.6f, \"epochs_per_sec\": %.1f}"
        s.epochs s.solves s.secs s.epochs_per_sec
    in
    let size s =
      Printf.sprintf
        "    {\"label\": \"%s\", \"protocol\": \"%s\", \"ases\": %d, \"links\": %d, \
         \"flows\": %d, \"max_time\": %.1f,\n\
        \     \"oracle\": %s,\n\
        \     \"production\": %s,\n\
        \     \"speedup\": %.3f, \"bit_identical\": %b}"
        (json_escape s.size_label) (json_escape s.protocol) s.sim_ases s.sim_links
        s.sim_flows s.sim_time
        (engine s.oracle) (engine s.production)
        (s.oracle.secs /. s.production.secs)
        s.identical
    in
    let pkt_engine s =
      Printf.sprintf
        "{\"events\": %d, \"secs\": %.6f, \"events_per_sec\": %.1f}" s.events
        s.pkt_secs s.events_per_sec
    in
    let pkt p =
      Printf.sprintf
        "    {\"label\": \"%s\", \"ases\": %d, \"flows\": %d, \"kb\": %d,\n\
        \     \"per_packet\": %s,\n\
        \     \"trains\": %s,\n\
        \     \"speedup\": %.3f, \"bit_identical\": %b}"
        (json_escape p.pkt_label) p.pkt_ases p.pkt_flows p.pkt_kb
        (pkt_engine p.per_packet) (pkt_engine p.trains)
        (p.per_packet.pkt_secs /. p.trains.pkt_secs)
        p.pkt_identical
    in
    let packetsim =
      match !packetsim_sizes with
      | [] -> "null"
      | ps ->
        Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.map pkt ps))
    in
    let cores = Domain.recommended_domain_count () in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"machine\": {\"cores\": %d},\n\
      \  \"flowsim\": [\n%s\n  ],\n\
      \  \"packetsim\": %s,\n\
      \  \"figure_secs\": {%s}\n\
       }\n"
      cores
      (String.concat ",\n" (List.map size sizes))
      packetsim (figure_secs_json ());
    close_out oc;
    Printf.printf "[wrote %s]\n%!" path

(* --- Bechamel microbenchmarks of the hot paths ------------------------- *)

let micro () =
  let open Bechamel in
  Gc.compact ();
  let ctx = Lazy.force context in
  let g = Context.graph ctx in
  let n = Mifo_topology.As_graph.n g in
  let table = ctx.Context.table in
  let rt = Mifo_bgp.Routing_table.get table (n / 2) in
  (* A FIB with a realistic number of prefixes. *)
  let fib = Mifo_core.Fib.create () in
  for asn = 0 to Stdlib.min 4095 (n - 1) do
    Mifo_core.Fib.insert fib (Mifo_bgp.Prefix.of_as asn) ~out_port:(asn mod 8)
      ~alt_port:((asn + 1) mod 8) ()
  done;
  let dst = Mifo_bgp.Prefix.host_of_as (n / 2) 1 in
  let env =
    {
      Mifo_core.Engine.router_id = 0;
      fib;
      port_kind =
        (fun p ->
          if p = 7 then Mifo_core.Engine.Local
          else
            Mifo_core.Engine.Ebgp
              { neighbor_as = p; rel = Mifo_topology.Relationship.Customer });
      is_congested = (fun p -> p = 1);
      next_hop_router = (fun _ -> None);
      route_to_peer = (fun _ -> None);
    }
  in
  let packet = Mifo_core.Packet.make ~src:(Mifo_bgp.Prefix.host_of_as 1 1) ~dst ~flow:7 () in
  let deployment = Mifo_core.Deployment.full ~n in
  let tests =
    [
      Test.make ~name:"fib-lookup" (Staged.stage (fun () -> Mifo_core.Fib.lookup fib dst));
      (let trie =
         let t = ref Mifo_bgp.Lpm_trie.empty in
         for asn = 0 to Stdlib.min 4095 (n - 1) do
           t := Mifo_bgp.Lpm_trie.add (Mifo_bgp.Prefix.of_as asn) (asn mod 8) !t
         done;
         !t
       in
       Test.make ~name:"lpm-trie-lookup"
         (Staged.stage (fun () -> Mifo_bgp.Lpm_trie.lookup dst trie)));

      Test.make ~name:"engine-forward"
        (Staged.stage (fun () -> Mifo_core.Engine.forward env ~ingress:(Some 3) packet));
      Test.make ~name:"route-computation-per-dest"
        (Staged.stage (fun () -> Mifo_bgp.Routing.compute g 17));
      Test.make ~name:"rib-enumeration"
        (Staged.stage (fun () -> Mifo_bgp.Routing.rib rt (n / 3)));
      Test.make ~name:"path-count-dp-per-dest"
        (Staged.stage (fun () ->
             Mifo_bgp.Path_count.mifo_counts g rt
               ~capable:(Mifo_core.Deployment.to_fun deployment)));
      Test.make ~name:"tag-check"
        (Staged.stage (fun () ->
             Mifo_core.Policy.check ~tag:true ~downstream:Mifo_topology.Relationship.Peer));
    ]
  in
  let measure_est test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let results = Analyze.all ols instance raw in
    let est = ref 0. in
    Hashtbl.iter
      (fun name ols ->
        match Analyze.OLS.estimates ols with
        | Some [ e ] ->
          Printf.printf "%-34s %12.1f ns/op\n%!" name e;
          est := e
        | Some _ | None -> Printf.printf "%-34s (no estimate)\n%!" name)
      results;
    !est
  in
  let measure test = ignore (measure_est test) in
  Printf.printf "== Microbenchmarks (monotonic clock) ==\n%!";
  List.iter measure tests;
  (* k=1 vs k=2 forwarding on a deflecting entry: the default egress is
     the congested port, every bucket is deflected, so each forward takes
     the alternative path — k=2 additionally pays the bucket->slot spread. *)
  let dfib = Mifo_core.Fib.create () in
  Mifo_core.Fib.insert dfib (Mifo_bgp.Prefix.of_as 1) ~out_port:1 ();
  let dentry =
    match Mifo_core.Fib.find dfib (Mifo_bgp.Prefix.of_as 1) with
    | Some e -> e
    | None -> assert false
  in
  Mifo_core.Fib.set_deflect_buckets dentry Mifo_core.Fib.buckets;
  let denv = { env with Mifo_core.Engine.fib = dfib } in
  let dpkt =
    Mifo_core.Packet.make ~src:(Mifo_bgp.Prefix.host_of_as 2 1)
      ~dst:(Mifo_bgp.Prefix.host_of_as 1 1) ~flow:5 ()
  in
  Mifo_core.Fib.set_alt_port dentry (Some 2);
  let fwd_k1_ns =
    measure_est
      (Test.make ~name:"engine-forward-deflect-k1"
         (Staged.stage (fun () -> Mifo_core.Engine.forward denv ~ingress:(Some 3) dpkt)))
  in
  Mifo_core.Fib.set_alts dentry [ 2; 4 ];
  let fwd_k2_ns =
    measure_est
      (Test.make ~name:"engine-forward-deflect-k2"
         (Staged.stage (fun () -> Mifo_core.Engine.forward denv ~ingress:(Some 3) dpkt)))
  in
  forward_bench_result := Some { fwd_k1_ns; fwd_k2_ns };
  (* the global-table-sized FIB (the paper's 500K-prefix scale) is
     measured separately: its hundreds of MB of live data would distort
     the small benches' GC behaviour *)
  let rng = Mifo_util.Prng.create ~seed:99 () in
  let table = Mifo_bgp.Prefix_table.generate rng ~size:500_000 in
  let big_fib = Mifo_core.Fib.create () in
  Array.iter
    (fun (prefix, next_hop) ->
      Mifo_core.Fib.insert big_fib prefix ~out_port:next_hop ())
    table;
  let big_trie = Mifo_bgp.Prefix_table.load_trie table in
  let probe = (fst table.(123_456)).Mifo_bgp.Prefix.network in
  measure
    (Test.make ~name:"fib-lookup-500k-prefixes"
       (Staged.stage (fun () -> Mifo_core.Fib.lookup big_fib probe)));
  measure
    (Test.make ~name:"lpm-trie-lookup-500k-prefixes"
       (Staged.stage (fun () -> Mifo_bgp.Lpm_trie.lookup probe big_trie)));
  print_newline ()

let validate () =
  timed "Validation: flow-level vs packet-level"
    (fun () -> Mifo_exp.Validation.render (Mifo_exp.Validation.run ~seed ()))

(* The routing/verification track: precompute throughput on the default
   graph, then the 44,340-AS scale run (CSR RIBs, peak-heap gauge,
   incremental re-verification vs the full-DFS oracle). *)
let routing () =
  routing_precompute_bench ();
  scale44k_bench ();
  check44k_bench ()

(* [micro] runs first by default: the later experiments grow the heap by
   hundreds of MB, which would distort nanosecond-scale measurements. *)
let registry =
  [
    ("micro", micro);
    ("routing", routing);
    ("sim", sim);
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig12", fig12);
    ("ablations", ablations);
    ("validate", validate);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst registry
  in
  List.iter
    (fun name ->
      match List.assoc_opt name registry with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown bench %S; available: %s\n" name
          (String.concat ", " (List.map fst registry));
        exit 2)
    requested;
  (* machine-readable perf trajectory, one file per run (see ISSUE/PRs).
     MIFO_BENCH_ROUTING_OUT / MIFO_BENCH_SIM_OUT redirect the JSON so
     smoke runs (make bench-smoke) don't clobber the committed full-size
     numbers. *)
  write_bench_json
    (match Sys.getenv_opt "MIFO_BENCH_ROUTING_OUT" with
    | Some p -> p
    | None -> "BENCH_routing.json");
  write_sim_json
    (match Sys.getenv_opt "MIFO_BENCH_SIM_OUT" with
    | Some p -> p
    | None -> "BENCH_sim.json");
  if !bench_failed then begin
    prerr_endline "bench: oracle representations disagreed (bit-identity broken)";
    exit 1
  end
