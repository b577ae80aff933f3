(* Tests for the AS-level and router-level packet network builders: the
   engine-in-the-loop counterparts of the flow-level experiments. *)

module As_graph = Mifo_topology.As_graph
module Router_level = Mifo_topology.Router_level
module Generator = Mifo_topology.Generator
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Deployment = Mifo_core.Deployment
module Engine = Mifo_core.Engine
module Packet = Mifo_core.Packet
module Packetsim = Mifo_netsim.Packetsim
module As_network = Mifo_netsim.As_network
module As_network_oracle = Mifo_oracle.As_network_oracle
module Fib = Mifo_core.Fib
module Obs = Mifo_util.Obs
module Router_network = Mifo_netsim.Router_network

(* The diamond where MIFO has something to do: both sources' default
   paths share the 3 -> 1 link while 3 -> 2 sits idle. *)
let diamond () =
  As_graph.create ~n:6
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (3, 1, As_graph.Provider_customer);
        (3, 2, As_graph.Provider_customer);
        (3, 4, As_graph.Provider_customer);
        (3, 5, As_graph.Provider_customer);
      ]

let finished results =
  Array.fold_left
    (fun acc (r : Packetsim.flow_result) -> if r.finish <> None then acc + 1 else acc)
    0 results

let makespan results =
  Array.fold_left
    (fun acc (r : Packetsim.flow_result) ->
      match r.finish with Some f -> Float.max acc f | None -> acc)
    0. results

let run_diamond deployment =
  let table = Routing_table.create (diamond ()) in
  let net = As_network.build table ~deployment ~host_rate:10e9 ~hosts:[ 0; 4; 5 ] () in
  ignore (As_network.add_transfer net ~src_as:4 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
  ignore (As_network.add_transfer net ~src_as:5 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
  As_network.run net;
  net

(* ---------- As_network ---------- *)

let test_as_network_bgp_baseline () =
  let net = run_diamond (Deployment.none ~n:6) in
  let results = Packetsim.flow_results net.As_network.sim in
  Alcotest.(check int) "both finish" 2 (finished results);
  let c = Packetsim.counters net.As_network.sim in
  Alcotest.(check int) "no deflection" 0 c.Packetsim.deflected;
  (* 2 x 80 Mbit sharing one 1 Gbps link: at least 160 ms *)
  Alcotest.(check bool) "bottleneck visible" true (makespan results > 0.16)

let test_as_network_mifo_relieves () =
  let bgp = run_diamond (Deployment.none ~n:6) in
  let mifo = run_diamond (Deployment.full ~n:6) in
  let bgp_time = makespan (Packetsim.flow_results bgp.As_network.sim) in
  let mifo_time = makespan (Packetsim.flow_results mifo.As_network.sim) in
  let c = Packetsim.counters mifo.As_network.sim in
  Alcotest.(check bool) "packets deflected" true (c.Packetsim.deflected > 0);
  Alcotest.(check int) "no valley drops (loop filter removed the bad alternates)" 0
    c.Packetsim.dropped_valley;
  Alcotest.(check bool)
    (Printf.sprintf "MIFO (%.3fs) faster than BGP (%.3fs)" mifo_time bgp_time)
    true
    (mifo_time < bgp_time *. 0.95)

let test_as_network_tracer_reconstructs_path () =
  let table = Routing_table.create (diamond ()) in
  let net =
    As_network.build table ~deployment:(Deployment.none ~n:6) ~host_rate:10e9
      ~hosts:[ 0; 4 ] ()
  in
  let hops = ref [] in
  Packetsim.set_tracer net.As_network.sim (fun _time node packet _action ->
      if packet.Packet.kind = Packet.Data && packet.Packet.seq = 0 && packet.Packet.flow = 0
      then hops := node :: !hops);
  ignore (As_network.add_transfer net ~src_as:4 ~dst_as:0 ~bytes:2_000 ~start:0.);
  As_network.run net;
  (* seq 0 of flow 0 crosses routers of 4, 3, 1, 0 in order *)
  let expected = List.map (fun v -> As_network.router net v) [ 4; 3; 1; 0 ] in
  Alcotest.(check (list int)) "hop sequence" expected (List.rev !hops)

let test_as_network_rejects_bad_host () =
  let table = Routing_table.create (diamond ()) in
  Alcotest.(check bool) "range check" true
    (match
       As_network.build table ~deployment:(Deployment.none ~n:6) ~hosts:[ 99 ] ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ---------- As_network against its reference builder ---------- *)

(* Everything the builder wires: the AS -> router and AS -> host maps,
   then in node order each port's kind and far end and every FIB entry
   (iteration order, all alternative slots). *)
let dump_network (net : As_network.t) =
  let sim = net.As_network.sim in
  let hosts =
    Hashtbl.fold (fun a h acc -> (a, h) :: acc) net.As_network.host_of_as []
    |> List.sort compare
  in
  let node id =
    let ports =
      List.init (Packetsim.port_count sim id) (fun p ->
          (Packetsim.port_kind sim id p, Packetsim.port_peer sim id p))
    in
    let fib =
      match Packetsim.node_view sim id with
      | Packetsim.Host_view _ -> []
      | Packetsim.Router_view _ ->
        let acc = ref [] in
        Fib.iter (Packetsim.fib sim id) (fun p e ->
            acc :=
              ( Prefix.to_string p,
                Fib.out_port e,
                List.init Fib.max_alts (Fib.alt_at e),
                Fib.deflect_buckets e )
              :: !acc);
        List.rev !acc
    in
    (ports, fib)
  in
  (net.As_network.router_of_as, hosts, List.init (Packetsim.node_count sim) node)

let daemon_counters =
  [
    "daemon.alt_changed"; "daemon.buckets_reset"; "daemon.slots_rotated";
    "daemon.ramp_up_buckets"; "daemon.ramp_down_buckets";
  ]

(* Run the transfers to [until] and fingerprint the run: counters, every
   flow's finish time as float bits, path switches and the daemon's
   Obs counter deltas. *)
let run_fingerprint (net : As_network.t) ~transfers ~until =
  let before = List.map Obs.counter_value daemon_counters in
  List.iter
    (fun (src_as, dst_as, bytes, start) ->
      ignore (As_network.add_transfer net ~src_as ~dst_as ~bytes ~start))
    transfers;
  As_network.run ~until net;
  let sim = net.As_network.sim in
  let finishes =
    Array.map
      (fun (r : Packetsim.flow_result) ->
        Option.map Int64.bits_of_float r.Packetsim.finish)
      (Packetsim.flow_results sim)
  in
  let deltas = List.map2 (fun b n -> Obs.counter_value n - b) before daemon_counters in
  (Packetsim.counters sim, finishes, Packetsim.path_switches sim, deltas)

(* Build with both builders and require the same network, FIB entries
   and run; returns the daemon counter deltas of the run. *)
let check_against_oracle g ~deployment ~hosts ~transfers ~until =
  let fast =
    As_network.build (Routing_table.create g) ~deployment ~host_rate:10e9 ~hosts ()
  and oracle =
    As_network_oracle.build (Routing_table.create g) ~deployment ~host_rate:10e9 ~hosts ()
  in
  if dump_network fast <> dump_network oracle then
    Alcotest.fail "built networks or FIB entries differ from the reference builder";
  let c1, f1, s1, d1 = run_fingerprint fast ~transfers ~until in
  let c2, f2, s2, d2 = run_fingerprint oracle ~transfers ~until in
  if c1 <> c2 then Alcotest.fail "packet counters differ from the reference builder";
  if f1 <> f2 then Alcotest.fail "flow finish times differ from the reference builder";
  if s1 <> s2 then Alcotest.fail "path switches differ from the reference builder";
  if d1 <> d2 then Alcotest.fail "daemon counters differ from the reference builder";
  d1

(* A three-way diamond: AS 3 reaches AS 0 through 1 (default), 2 and 6,
   so its chooser has two candidates and moves the alternative between
   them as deflected traffic eats one's spare capacity — the chooser
   comparison is not vacuous. *)
let three_way () =
  As_graph.create ~n:7
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (6, 0, As_graph.Provider_customer);
        (3, 1, As_graph.Provider_customer);
        (3, 2, As_graph.Provider_customer);
        (3, 6, As_graph.Provider_customer);
        (3, 4, As_graph.Provider_customer);
        (3, 5, As_graph.Provider_customer);
      ]

let test_as_network_matches_oracle_three_way () =
  let deltas =
    check_against_oracle (three_way ()) ~deployment:(Deployment.full ~n:7)
      ~hosts:[ 0; 4; 5; 4 ]
      ~transfers:(List.init 12 (fun i -> (4 + (i land 1), 0, 1_000_000, 0.)))
      ~until:0.05
  in
  Alcotest.(check bool) "the daemon changed alternatives" true (List.hd deltas > 0)

let prop_as_network_matches_oracle =
  QCheck2.Test.make ~name:"as_network: build and run match the reference builder"
    ~count:25
    QCheck2.Gen.(
      quad (int_range 20 300) (int_bound 1000) (float_bound_inclusive 1.)
        (pair (list_size (int_range 1 6) (int_bound 1_000_000)) (int_bound 3)))
    (fun (ases, seed, ratio, (picks, dups)) ->
      let g =
        (Generator.generate
           ~params:
             {
               Generator.default_params with
               Generator.ases;
               tier1 = 3;
               content_providers = 1;
               content_peer_span = (1, 4);
             }
           ~seed ())
          .Generator.graph
      in
      let n = As_graph.n g in
      let hosts = List.map (fun x -> x mod n) picks in
      (* duplicates: repeat the first [dups] listed hosts *)
      let hosts = hosts @ List.filteri (fun i _ -> i < dups) hosts in
      let distinct = List.sort_uniq Int.compare hosts in
      let transfers =
        match distinct with
        | a :: b :: rest ->
          (a, b, 400_000, 0.)
          :: (b, a, 400_000, 0.001)
          :: List.map (fun c -> (c, a, 400_000, 0.)) rest
        | _ -> []
      in
      let deployment = Deployment.fraction ~n ~ratio ~seed in
      ignore (check_against_oracle g ~deployment ~hosts ~transfers ~until:0.02);
      true)

(* ---------- Router_level ---------- *)

let test_router_level_structure () =
  let g = diamond () in
  let expansion = Router_level.expand ~links_per_router:1 ~max_routers:4 ~seed:3 g ~expand:[ 3 ] in
  Alcotest.(check int) "AS3 split into 4 routers (degree 4)" 4
    (Array.length expansion.Router_level.routers_of_as.(3));
  Alcotest.(check int) "others single-router" 1
    (Array.length expansion.Router_level.routers_of_as.(0));
  Alcotest.(check int) "total routers" 9 (Router_level.router_count expansion);
  Alcotest.(check int) "full iBGP mesh of AS3" 6 (List.length expansion.Router_level.ibgp_pairs);
  (* every adjacency of AS3 is owned by one of its routers *)
  Array.iter
    (fun nb ->
      let r = expansion.Router_level.link_router (3, nb) in
      Alcotest.(check int) "owner belongs to AS3" 3 expansion.Router_level.as_of_router.(r))
    (As_graph.neighbors g 3);
  (* with links_per_router = 1, the 4 links of AS3 land on 4 distinct routers *)
  let owners =
    Array.to_list (Array.map (fun nb -> expansion.Router_level.link_router (3, nb)) (As_graph.neighbors g 3))
  in
  Alcotest.(check int) "distinct owners" 4 (List.length (List.sort_uniq compare owners))

let test_router_level_rejects_bad_expand () =
  let g = diamond () in
  Alcotest.(check bool) "range check" true
    (match Router_level.expand ~seed:1 g ~expand:[ 42 ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_router_level_expand_tier1 () =
  let topo =
    Generator.generate
      ~params:
        {
          Generator.default_params with
          Generator.ases = 120;
          tier1 = 4;
          content_providers = 2;
          content_peer_span = (2, 5);
        }
      ~seed:5 ()
  in
  let expansion = Router_level.expand_tier1 ~seed:9 topo in
  (* exactly the tier-1s are multi-router (their degrees far exceed
     links_per_router) *)
  Array.iteri
    (fun v role ->
      let k = Array.length expansion.Router_level.routers_of_as.(v) in
      match role with
      | Generator.Tier1 -> Alcotest.(check bool) "tier1 expanded" true (k >= 2)
      | Generator.Transit | Generator.Stub ->
        Alcotest.(check int) "others single" 1 k)
    topo.Generator.roles

(* ---------- Router_network ---------- *)

let test_router_network_tunnels () =
  let g = diamond () in
  let table = Routing_table.create g in
  let expansion = Router_level.expand ~links_per_router:1 ~max_routers:4 ~seed:5 g ~expand:[ 3 ] in
  let run dep =
    let net =
      Router_network.build table ~expansion ~deployment:dep ~host_rate:10e9
        ~hosts:[ 0; 4; 5 ] ()
    in
    ignore (Router_network.add_transfer net ~src_as:4 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
    ignore (Router_network.add_transfer net ~src_as:5 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
    Router_network.run net;
    net
  in
  let bgp = run (Deployment.none ~n:6) in
  let mifo = run (Deployment.full ~n:6) in
  let cb = Packetsim.counters bgp.Router_network.sim in
  let cm = Packetsim.counters mifo.Router_network.sim in
  Alcotest.(check int) "BGP: both flows finish" 2
    (finished (Packetsim.flow_results bgp.Router_network.sim));
  Alcotest.(check int) "MIFO: both flows finish" 2
    (finished (Packetsim.flow_results mifo.Router_network.sim));
  Alcotest.(check int) "BGP never tunnels" 0 cb.Packetsim.encapsulated;
  (* the alternative egress lives on a different border router, so MIFO
     deflections must ride IP-in-IP across the iBGP mesh *)
  Alcotest.(check bool) "MIFO tunnels over iBGP" true (cm.Packetsim.encapsulated > 0);
  Alcotest.(check int) "no TTL deaths" 0 cm.Packetsim.dropped_ttl

let test_router_network_rejects_mismatched_graph () =
  let g1 = diamond () in
  let g2 = diamond () in
  let expansion = Router_level.expand ~seed:1 g1 ~expand:[ 3 ] in
  let table = Routing_table.create g2 in
  Alcotest.(check bool) "graph identity check" true
    (match
       Router_network.build table ~expansion ~deployment:(Deployment.none ~n:6)
         ~hosts:[ 0 ] ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let () =
  Alcotest.run "mifo_network"
    [
      ( "as_network",
        [
          Alcotest.test_case "BGP baseline bottlenecks" `Quick test_as_network_bgp_baseline;
          Alcotest.test_case "MIFO relieves the bottleneck" `Slow test_as_network_mifo_relieves;
          Alcotest.test_case "tracer reconstructs the path" `Quick
            test_as_network_tracer_reconstructs_path;
          Alcotest.test_case "host validation" `Quick test_as_network_rejects_bad_host;
          Alcotest.test_case "three-way diamond matches the reference builder" `Quick
            test_as_network_matches_oracle_three_way;
          QCheck_alcotest.to_alcotest prop_as_network_matches_oracle;
        ] );
      ( "router_level",
        [
          Alcotest.test_case "expansion structure" `Quick test_router_level_structure;
          Alcotest.test_case "validation" `Quick test_router_level_rejects_bad_expand;
          Alcotest.test_case "tier-1 expansion" `Quick test_router_level_expand_tier1;
        ] );
      ( "router_network",
        [
          Alcotest.test_case "deflections tunnel over iBGP" `Slow test_router_network_tunnels;
          Alcotest.test_case "graph identity" `Quick test_router_network_rejects_mismatched_graph;
        ] );
    ]
