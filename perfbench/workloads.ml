(* The four benchmark workloads.

   Each workload re-issues, call for call, the layer calls of the entry
   point it stands for (Figs. 5 and 7, Fig. 6, Fig. 12, [mifo_sim check]),
   with a [Span.span] around every call into a layer's public function.
   The self-check test (selfcheck.ml) pins each workload to its entry point
   at reduced size.

   A workload runs in three steps, each returning the next:
   - [setup] (timed as [setup_s]): inputs — topology, routing table,
     traffic matrices;
   - the measured part (timed as [wall_s]): the layer calls, each
     operation guarded so one that raises fails alone;
   - the check, after the clock stops: per-operation invariants and
     output fingerprints. *)

module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module Routing_table = Mifo_bgp.Routing_table
module Path_count = Mifo_bgp.Path_count
module Deployment = Mifo_core.Deployment
module Flowsim = Mifo_netsim.Flowsim
module Traffic = Mifo_traffic.Traffic
module Miro = Mifo_miro.Miro
module Testbed = Mifo_testbed.Testbed
module Parallel = Mifo_util.Parallel
module Context = Mifo_exp.Context
module Report = Mifo_analysis.Report
module Props = Mifo_analysis.Props
module Verifier = Mifo_analysis.Verifier

type size = {
  ases : int;
  scale : Context.scale;
  testbed : Testbed.config;
  check_ases : int;
  check_dests : int;
  check_fail_links : int;
  check_hosts : int;
}

(* The sizes the entry points run at by default ([mifo_sim check] with the
   arguments named in BENCHMARK.json for the 44K workload). *)
let full =
  {
    ases = Generator.default_params.Generator.ases;
    scale = Context.default_scale;
    testbed = Testbed.default_config;
    check_ases = 44_340;
    check_dests = 8;
    check_fail_links = 64;
    check_hosts = 24;
  }

(* One operation's outcome: its output fingerprint, or why it failed. *)
type outcome = { label : string; result : (string, string) result }

let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let outcome label attempted check =
  let result =
    match attempted with
    | Error e -> Error ("raised " ^ e)
    | Ok v -> ( try Ok (check v) with Failure msg -> Error msg)
  in
  { label; result }

let digest parts = Digest.to_hex (Digest.string (String.concat "|" parts))
let float_bits x = Int64.to_string (Int64.bits_of_float x)

(* ---- layer calls ---------------------------------------------------- *)

let generate ~ases ~seed =
  Span.span "topology"
    ~attrs:(fun (t : Generator.t) ->
      [
        ("ases", float_of_int (As_graph.n t.Generator.graph));
        ("links", float_of_int (As_graph.edge_count t.Generator.graph));
      ])
    (fun () ->
      Generator.generate ~params:{ Generator.default_params with Generator.ases } ~seed ())

let traffic ~count f = Span.span "traffic" ~attrs:(fun m -> [ ("flows", float_of_int (count m)) ]) f

(* [f] fills routing states into [table]; [dests] counts the new ones. *)
let routing table f =
  let before = Routing_table.cached_count table in
  Span.span "routing"
    ~attrs:(fun () ->
      [ ("dests", float_of_int (Routing_table.cached_count table - before)) ])
    f

let precompute table dests = routing table (fun () -> Routing_table.precompute table dests)

(* ---- Figs. 5 and 6: flow-level throughput ---------------------------- *)

type flowsim_run = {
  run_label : string;
  flows : Flowsim.flow_spec array;
  output : (Flowsim.result, string) result;
}

(* As [Experiments.Throughput.run_traffic]: one routing fill, then one
   [Flowsim.run] per protocol. *)
let run_traffic (ctx : Context.t) flows ~ratio =
  routing ctx.Context.table (fun () ->
      Mifo_exp.Experiments.precompute_flow_dests ctx.Context.table flows);
  let deployment = Context.deployment ctx ~ratio in
  let pct = 100. *. ratio in
  List.map
    (fun (tag, label, proto) ->
      {
        run_label = label;
        flows;
        output =
          attempt (fun () ->
              Span.span ("flowsim." ^ tag) (fun () ->
                  Flowsim.run ~params:ctx.Context.scale.sim ctx.Context.table proto flows));
      })
    [
      ("bgp", "BGP", Flowsim.Bgp);
      ( "miro",
        Printf.sprintf "%.0f%% Deployed MIRO" pct,
        Flowsim.Miro { deployment; cap = ctx.Context.scale.miro_cap } );
      ("mifo", Printf.sprintf "%.0f%% Deployed MIFO" pct, Flowsim.Mifo deployment);
    ]

(* Flowsim accounts for every flow, in input order; the fingerprint is the
   per-flow throughput bits plus epochs and solves. *)
let check_flowsim panel_label run =
  outcome
    (Printf.sprintf "%s/%s" panel_label run.run_label)
    run.output
    (fun (r : Flowsim.result) ->
      if Array.length r.Flowsim.flows <> Array.length run.flows then
        failwith
          (Printf.sprintf "flowsim returned %d flows for %d specs"
             (Array.length r.Flowsim.flows) (Array.length run.flows));
      Array.iteri
        (fun i (s : Flowsim.flow_stats) ->
          if s.Flowsim.spec <> run.flows.(i) then
            failwith (Printf.sprintf "flowsim flow %d is not spec %d" i i))
        r.Flowsim.flows;
      digest
        (string_of_int r.Flowsim.epochs :: string_of_int r.Flowsim.solves
        :: Array.to_list (Array.map float_bits (Flowsim.throughputs r))))

(* ---- Fig. 7: available path counts ---------------------------------- *)

type fig7_series = { series_label : string; counts : ((float * float) array, string) result }
type fig7 = { series : fig7_series list; pairs : int }

(* As [Experiments.Fig7.summarize]. *)
let summarize counts =
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let n = Array.length sorted in
  Array.map
    (fun p ->
      let i = Stdlib.min (n - 1) (int_of_float (p /. 100. *. float_of_int (n - 1))) in
      (p, sorted.(i)))
    (Array.init 11 (fun i -> 10. *. float_of_int i))

(* As [Experiments.Fig7.run]. *)
let fig7 (ctx : Context.t) =
  let g = Context.graph ctx in
  let n = As_graph.n g in
  let rng = Context.rng ctx ~purpose:7 in
  let k = Stdlib.min ctx.Context.scale.dest_samples n in
  let dests = Mifo_util.Prng.sample_without_replacement rng k n in
  let dep50 = Context.deployment ctx ~ratio:0.5 in
  let dep100 = Context.deployment ctx ~ratio:1.0 in
  let pool = Parallel.get_default () in
  precompute ctx.Context.table dests;
  let pairs = Array.length dests * (n - 1) in
  let counted tag f =
    Span.span ("pathcount." ^ tag) ~attrs:(fun _ -> [ ("pairs", float_of_int pairs) ]) f
  in
  (* Fig. 7's own post-processing, in the figure layer: flatten the
     per-destination slots in destination order, then take the
     percentile rows. *)
  let rows flatten = Span.span "figure.fig7" (fun () -> summarize (flatten ())) in
  let mifo_rows deployment =
    let per_dest =
      counted "mifo" (fun () ->
          Path_count.mifo_counts_many ~pool g ctx.Context.table ~dests
            ~capable:(Deployment.to_fun deployment))
    in
    rows (fun () ->
        let acc = Mifo_util.Vec.create () in
        Array.iteri
          (fun i counts ->
            let d = dests.(i) in
            Array.iteri (fun src c -> if src <> d then Mifo_util.Vec.push acc c) counts)
          per_dest;
        Mifo_util.Vec.to_array acc)
  in
  let miro_rows deployment =
    let config = { Miro.cap = ctx.Context.scale.miro_cap } in
    let per_dest =
      counted "miro" (fun () ->
          Parallel.parallel_map pool
            (fun d ->
              let rt = Routing_table.get ctx.Context.table d in
              let out = Array.make (n - 1) 0. in
              let j = ref 0 in
              for src = 0 to n - 1 do
                if src <> d then begin
                  out.(!j) <-
                    float_of_int (Miro.available_path_count ~config rt ~deployment ~src);
                  incr j
                end
              done;
              out)
            dests)
    in
    rows (fun () ->
        let acc = Mifo_util.Vec.create () in
        Array.iter (fun counts -> Array.iter (Mifo_util.Vec.push acc) counts) per_dest;
        Mifo_util.Vec.to_array acc)
  in
  let series label f = { series_label = label; counts = attempt f } in
  let series =
    [
      series "50% Deployed MIRO" (fun () -> miro_rows dep50);
      series "100% Deployed MIRO" (fun () -> miro_rows dep100);
      series "50% Deployed MIFO" (fun () -> mifo_rows dep50);
      series "100% Deployed MIFO" (fun () -> mifo_rows dep100);
    ]
  in
  { series; pairs }

(* Percentile rows descend (the counts are sorted descending) and every
   pair has at least its default path. *)
let check_fig7 s =
  outcome ("fig7/" ^ s.series_label) s.counts (fun rows ->
      Array.iteri
        (fun i (_, c) ->
          if c < 1. then failwith (Printf.sprintf "fig7 row %d counts %g paths" i c);
          if i > 0 && c > snd rows.(i - 1) then
            failwith (Printf.sprintf "fig7 row %d is not descending" i))
        rows;
      digest (Array.to_list (Array.map (fun (p, c) -> float_bits p ^ ":" ^ float_bits c) rows)))

(* ---- workloads ------------------------------------------------------ *)

type uniform = { panels : (float * flowsim_run list) list; fig7 : fig7 }

(* The flow-level workloads run on one AS snapshot, the 2,000-AS topology
   of the evaluation's default seed, as the paper runs every figure on
   one snapshot.  Their --seed draws the traffic matrices, the adoption
   order and the Fig. 7 destinations.  (Fig. 6's cost follows the degree
   of the top-ranked content provider, which a fresh topology per seed
   would swing by 3x.) *)
let snapshot_seed = 42

let uniform_setup size ~seed =
  let topo = generate ~ases:size.ases ~seed:snapshot_seed in
  let ctx = Context.of_graph ~scale:size.scale ~seed topo in
  let flows =
    traffic ~count:Array.length (fun () ->
        Traffic.uniform
          (Context.rng ctx ~purpose:5)
          ~n_ases:(Context.n_ases ctx) ~count:size.scale.Context.flows
          ~rate:size.scale.Context.arrival_rate ())
  in
  (ctx, flows)

(* Fig. 5 (as [Experiments.Throughput.fig5]), then Fig. 7. *)
let uniform_measure (ctx, flows) =
  let panels = List.map (fun ratio -> (ratio, run_traffic ctx flows ~ratio)) [ 1.0; 0.5; 0.1 ] in
  { panels; fig7 = fig7 ctx }

let uniform_check u =
  List.concat_map
    (fun (ratio, runs) ->
      List.map (check_flowsim (Printf.sprintf "fig5/%.1f" ratio)) runs)
    u.panels
  @ List.map check_fig7 u.fig7.series

let alphas = [ 0.8; 1.0; 1.2 ]

let powerlaw_setup size ~seed =
  let topo = generate ~ases:size.ases ~seed:snapshot_seed in
  let ctx = Context.of_graph ~scale:size.scale ~seed topo in
  let g = Context.graph ctx in
  let matrices =
    traffic
      ~count:(Array.fold_left (fun acc m -> acc + Array.length m) 0)
      (fun () ->
        let providers = Traffic.content_provider_ranking g in
        Array.of_list
          (List.map
             (fun alpha ->
               Traffic.power_law
                 (Context.rng ctx ~purpose:6)
                 g ~alpha ~providers ~count:size.scale.Context.flows
                 ~rate:size.scale.Context.arrival_rate ())
             alphas))
  in
  (ctx, List.combine alphas (Array.to_list matrices))

(* Fig. 6, as [Experiments.Throughput.fig6]. *)
let powerlaw_measure (ctx, matrices) =
  List.map (fun (alpha, flows) -> (alpha, run_traffic ctx flows ~ratio:0.5)) matrices

let powerlaw_check panels =
  List.concat_map
    (fun (alpha, runs) ->
      List.map (check_flowsim (Printf.sprintf "fig6/%.1f" alpha)) runs)
    panels

(* Fig. 12, as [Experiments.Fig12.run]: BGP, then MIFO. *)
let testbed_measure config =
  List.map
    (fun (tag, proto) ->
      (tag, attempt (fun () -> Span.span ("packetsim." ^ tag) (fun () -> Testbed.run ~config proto))))
    [ ("bgp", Testbed.Bgp_routing); ("mifo", Testbed.Mifo_routing) ]

(* Every flow of both chains completes; the fingerprint is the packet
   counters and the completion times. *)
let testbed_check config runs =
  List.map
    (fun (tag, r) ->
      outcome ("fig12/" ^ tag) r (fun (r : Testbed.result) ->
          let want = 2 * config.Testbed.flows_per_source in
          if Array.length r.Testbed.fct <> want then
            failwith
              (Printf.sprintf "fig12/%s: %d of %d flows completed" tag
                 (Array.length r.Testbed.fct) want);
          let c = r.Testbed.counters in
          let module P = Mifo_netsim.Packetsim in
          digest
            (List.map string_of_int
               [
                 c.P.delivered_packets; c.P.dropped_queue; c.P.dropped_ttl;
                 c.P.dropped_valley; c.P.dropped_no_route; c.P.encapsulated; c.P.deflected;
               ]
            @ Array.to_list (Array.map float_bits r.Testbed.fct))))
    runs

type check_inputs = {
  graph : As_graph.t;
  table : Routing_table.t;
  as_dests : int list;
  host_ases : int list;
}

let check_props = [ Props.Loops; Props.Delivery; Props.Stretch; Props.Resilience ]

(* As [mifo_sim check --ases N --seed S --dests D --hosts H]: the same
   sampling stream (seed + 17, destinations first). *)
let check_setup size ~seed =
  let graph = (generate ~ases:size.check_ases ~seed).Generator.graph in
  let n = As_graph.n graph in
  let table = Routing_table.create graph in
  let rng = Mifo_util.Prng.create ~seed:(seed + 17) () in
  let sample k =
    if n <= k then List.init n (fun i -> i)
    else Array.to_list (Mifo_util.Prng.sample_without_replacement rng k n)
  in
  let as_dests = sample size.check_dests in
  let host_ases = sample size.check_hosts in
  { graph; table; as_dests; host_ases }

type check_result = { report : Report.t; replay_bad : int }

(* As [mifo_sim check ... --fail-links F --props loops,delivery,stretch,
   resilience], counterexample replay included.  The host routes are
   filled before [As_network.build] (which would otherwise fill them
   itself, identically) so their cost lands in the routing layer. *)
let check_measure size ~seed c =
  attempt @@ fun () ->
  let n = As_graph.n c.graph in
  precompute c.table (Array.of_list c.as_dests);
  let as_report =
    Span.span "verifier.props"
      ~attrs:(fun (r : Report.t) ->
        [
          ("states", float_of_int r.Report.stats.Report.states_explored);
          ("failed_links", float_of_int r.Report.stats.Report.failed_links);
        ])
      (fun () ->
        Verifier.verify_props ~stretch_bound:Props.default_stretch_bound
          ~fail_links:size.check_fail_links ~seed ~props:check_props c.graph ~table:c.table
          ~dests:c.as_dests)
  in
  let replay_bad =
    Span.span "verifier.replay" (fun () ->
        List.fold_left
          (fun bad v ->
            match v with
            | Report.Black_hole { dest; path; moves; failed_link; _ } -> (
              let rt = Routing_table.get c.table dest in
              match Props.replay_stranded c.graph rt ~path ~moves ~failed_link with
              | Mifo_core.Loop_walk.Dropped _ -> bad
              | _ -> bad + 1)
            | Report.Stretch_exceeded { dest; actual_len; path; moves; _ } -> (
              let rt = Routing_table.get c.table dest in
              match Props.replay_stretch c.graph rt ~path ~moves with
              | Mifo_core.Loop_walk.Delivered p when List.length p - 1 = actual_len -> bad
              | _ -> bad + 1)
            | _ -> bad)
          0 as_report.Report.violations)
  in
  precompute c.table (Array.of_list (List.sort_uniq Int.compare c.host_ases));
  let net =
    Span.span "netbuild" (fun () ->
        Mifo_netsim.As_network.build c.table ~deployment:(Deployment.full ~n)
          ~hosts:c.host_ases ())
  in
  let routing = List.map (fun d -> (d, Routing_table.get c.table d)) c.host_ases in
  let net_report =
    Span.span "verifier.net"
      ~attrs:(fun (r : Report.t) ->
        [
          ("states", float_of_int r.Report.stats.Report.states_explored);
          ("fib_entries", float_of_int r.Report.stats.Report.fib_entries_checked);
        ])
      (fun () -> Verifier.verify_network net.Mifo_netsim.As_network.sim ~routing)
  in
  { report = Report.merge [ as_report; net_report ]; replay_bad }

(* One operation per verified destination.  All fail together when the
   run raised or a counterexample did not replay; otherwise a destination
   fails when a violation names it, and a router-level finding that names
   no destination fails every one.  The fingerprint is the merged JSON
   report. *)
let check_check c result =
  let whole =
    match result with
    | Error e -> Error ("raised " ^ e)
    | Ok r when r.replay_bad > 0 ->
      Error (Printf.sprintf "%d counterexample(s) did not replay" r.replay_bad)
    | Ok r -> Ok r
  in
  let dest_of = function
    | Report.Forwarding_loop { dest; _ }
    | Report.Valley_path { dest; _ }
    | Report.Rib_len_mismatch { dest; _ }
    | Report.Unreachable { dest; _ }
    | Report.Black_hole { dest; _ }
    | Report.Stretch_exceeded { dest; _ }
    | Report.Failure_loop { dest; _ } -> Some dest
    | Report.Dangling_fib_port _ | Report.Ebgp_tunnel_egress _ -> None
  in
  List.map
    (fun d ->
      let label = Printf.sprintf "check/dest%d" d in
      match whole with
      | Error e -> { label; result = Error e }
      | Ok r -> (
        match
          List.find_opt
            (fun v -> match dest_of v with Some d' -> d' = d | None -> true)
            r.report.Report.violations
        with
        | Some v -> { label; result = Error (Report.violation_to_string v) }
        | None -> { label; result = Ok (digest [ Report.to_json_string r.report ]) }))
    c.as_dests

(* A workload as the runner sees it: [setup] returns the measured part,
   which returns the check. *)
type t = {
  name : string;
  seed_used : bool;
  setup_reps : int;  (** set-ups per process; setup_s is their median *)
  setup : size -> seed:int -> unit -> unit -> outcome list;
}

let all =
  [
    {
      name = "uniform";
      seed_used = true;
      setup_reps = 5;
      setup =
        (fun size ~seed ->
          let inputs = uniform_setup size ~seed in
          fun () ->
            let u = uniform_measure inputs in
            fun () -> uniform_check u);
    };
    {
      name = "powerlaw";
      seed_used = true;
      setup_reps = 5;
      setup =
        (fun size ~seed ->
          let inputs = powerlaw_setup size ~seed in
          fun () ->
            let p = powerlaw_measure inputs in
            fun () -> powerlaw_check p);
    };
    {
      name = "testbed";
      seed_used = false;
      (* set-up is only the pool start, a fraction of a millisecond *)
      setup_reps = 21;
      setup =
        (fun size ~seed:_ () ->
          let runs = testbed_measure size.testbed in
          fun () -> testbed_check size.testbed runs);
    };
    {
      name = "check44k";
      seed_used = true;
      setup_reps = 1;
      setup =
        (fun size ~seed ->
          let c = check_setup size ~seed in
          fun () ->
            let r = check_measure size ~seed c in
            fun () -> check_check c r);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
