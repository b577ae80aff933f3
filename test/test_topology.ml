(* Unit and property tests for Mifo_topology: the relationship algebra,
   the AS graph, the generator and as-rel IO. *)

module Relationship = Mifo_topology.Relationship
module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module As_rel_io = Mifo_topology.As_rel_io
module Topo_stats = Mifo_topology.Topo_stats
module Union_find = Mifo_util.Union_find

(* ---------- Relationship ---------- *)

let test_inverse () =
  Alcotest.(check bool) "customer<->provider" true
    (Relationship.equal (Relationship.inverse Relationship.Customer) Relationship.Provider);
  Alcotest.(check bool) "provider<->customer" true
    (Relationship.equal (Relationship.inverse Relationship.Provider) Relationship.Customer);
  Alcotest.(check bool) "peer<->peer" true
    (Relationship.equal (Relationship.inverse Relationship.Peer) Relationship.Peer)

let test_preference () =
  Alcotest.(check (list int)) "customer < peer < provider"
    [ 0; 1; 2 ]
    (List.map Relationship.preference_rank
       [ Relationship.Customer; Relationship.Peer; Relationship.Provider ])

(* Eq. 3: transit allowed iff upstream is customer OR downstream is customer. *)
let test_transit_rule () =
  let open Relationship in
  let cases =
    [
      (Customer, Customer, true); (Customer, Peer, true); (Customer, Provider, true);
      (Peer, Customer, true); (Peer, Peer, false); (Peer, Provider, false);
      (Provider, Customer, true); (Provider, Peer, false); (Provider, Provider, false);
    ]
  in
  List.iter
    (fun (up, down, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s" (to_string up) (to_string down))
        expected
        (transit_allowed ~upstream:up ~downstream:down))
    cases

(* Gao-Rexford export policy table. *)
let test_exports_to () =
  let open Relationship in
  Alcotest.(check bool) "customer routes to everyone" true
    (List.for_all
       (fun nb -> exports_to ~route_learned_from:Customer ~neighbor:nb)
       [ Customer; Peer; Provider ]);
  List.iter
    (fun learned ->
      Alcotest.(check bool) "peer/provider routes only to customers" true
        (exports_to ~route_learned_from:learned ~neighbor:Customer);
      Alcotest.(check bool) "not to peers" false
        (exports_to ~route_learned_from:learned ~neighbor:Peer);
      Alcotest.(check bool) "not to providers" false
        (exports_to ~route_learned_from:learned ~neighbor:Provider))
    [ Peer; Provider ]

let test_valley_free_shapes () =
  let open Relationship in
  Alcotest.(check bool) "up up down down" true (valley_free [ Up; Up; Down; Down ]);
  Alcotest.(check bool) "up flat down" true (valley_free [ Up; Flat; Down ]);
  Alcotest.(check bool) "flat only" true (valley_free [ Flat ]);
  Alcotest.(check bool) "empty" true (valley_free []);
  Alcotest.(check bool) "down up is a valley" false (valley_free [ Down; Up ]);
  Alcotest.(check bool) "two flats" false (valley_free [ Flat; Flat ]);
  Alcotest.(check bool) "flat then up" false (valley_free [ Up; Flat; Up ]);
  Alcotest.(check bool) "down flat" false (valley_free [ Down; Flat ])

(* ---------- As_graph ---------- *)

(* 0 is the customer of 1 and 2; 1-2 peer; 1 is customer of 3. *)
let small_graph () =
  As_graph.create ~n:4
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (1, 2, As_graph.Peer_peer);
        (3, 1, As_graph.Provider_customer);
      ]

let test_graph_basic () =
  let g = small_graph () in
  Alcotest.(check int) "n" 4 (As_graph.n g);
  Alcotest.(check int) "edges" 4 (As_graph.edge_count g);
  Alcotest.(check int) "pc" 3 (As_graph.pc_edge_count g);
  Alcotest.(check int) "peer" 1 (As_graph.peer_edge_count g);
  Alcotest.(check bool) "0's view of 1 is provider" true
    (Relationship.equal (As_graph.rel_exn g 0 1) Relationship.Provider);
  Alcotest.(check bool) "1's view of 0 is customer" true
    (Relationship.equal (As_graph.rel_exn g 1 0) Relationship.Customer);
  Alcotest.(check bool) "1-2 peer" true
    (Relationship.equal (As_graph.rel_exn g 1 2) Relationship.Peer);
  Alcotest.(check bool) "non-adjacent" true (As_graph.rel g 0 3 = None);
  Alcotest.(check int) "degree of 1" 3 (As_graph.degree g 1);
  Alcotest.(check (array int)) "customers of 1" [| 0 |] (As_graph.customers g 1);
  Alcotest.(check (array int)) "providers of 0" [| 1; 2 |] (As_graph.providers g 0);
  Alcotest.(check bool) "0 is stub" true (As_graph.is_stub g 0);
  Alcotest.(check bool) "1 is not stub" false (As_graph.is_stub g 1)

let test_graph_levels () =
  let g = small_graph () in
  Alcotest.(check int) "3 is top" 0 (As_graph.level g 3);
  Alcotest.(check int) "2 is top" 0 (As_graph.level g 2);
  Alcotest.(check int) "1 below 3" 1 (As_graph.level g 1);
  Alcotest.(check int) "0 below 1" 2 (As_graph.level g 0);
  let order = As_graph.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "3 before 1" true (pos.(3) < pos.(1));
  Alcotest.(check bool) "1 before 0" true (pos.(1) < pos.(0))

let test_graph_rejects_cycle () =
  Alcotest.check_raises "provider cycle" As_graph.Cyclic_provider_graph (fun () ->
      ignore
        (As_graph.create ~n:3
           ~edges:
             [
               (0, 1, As_graph.Provider_customer);
               (1, 2, As_graph.Provider_customer);
               (2, 0, As_graph.Provider_customer);
             ]))

let test_graph_rejects_duplicate () =
  Alcotest.check_raises "duplicate" (As_graph.Duplicate_edge (1, 0)) (fun () ->
      ignore
        (As_graph.create ~n:2
           ~edges:[ (0, 1, As_graph.Provider_customer); (1, 0, As_graph.Peer_peer) ]))

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "As_graph.create: self-loop")
    (fun () -> ignore (As_graph.create ~n:2 ~edges:[ (1, 1, As_graph.Peer_peer) ]))

let test_fold_edges () =
  let g = small_graph () in
  let count = As_graph.fold_edges g ~init:0 ~f:(fun acc _ _ _ -> acc + 1) in
  Alcotest.(check int) "each link once" 4 count;
  let pc =
    As_graph.fold_edges g ~init:0 ~f:(fun acc _ _ -> function
      | As_graph.Provider_customer -> acc + 1
      | As_graph.Peer_peer -> acc)
  in
  Alcotest.(check int) "pc links" 3 pc

let test_path_valley_free () =
  let g = small_graph () in
  Alcotest.(check bool) "0 -> 1 -> 3 pure uphill" true
    (As_graph.path_is_valley_free g [ 0; 1; 3 ]);
  Alcotest.(check bool) "3 -> 1 -> 0 pure downhill" true
    (As_graph.path_is_valley_free g [ 3; 1; 0 ]);
  Alcotest.(check bool) "0 up 1 peer 2 down 0" true
    (As_graph.path_is_valley_free g [ 0; 1; 2; 0 ]);
  Alcotest.(check bool) "1 peer 2 down 0 up 1 is a valley" false
    (As_graph.path_is_valley_free g [ 1; 2; 0; 1 ])

(* ---------- Generator ---------- *)

let generated = lazy (Generator.generate ~seed:99 ())

let test_generator_deterministic () =
  let a = Generator.generate ~seed:4 () and b = Generator.generate ~seed:4 () in
  let sa = Topo_stats.compute a.Generator.graph and sb = Topo_stats.compute b.Generator.graph in
  Alcotest.(check int) "same links" sa.Topo_stats.links sb.Topo_stats.links;
  Alcotest.(check int) "same peering" sa.Topo_stats.peering_links sb.Topo_stats.peering_links

let test_generator_connected () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  let uf = Union_find.create (As_graph.n g) in
  ignore (As_graph.fold_edges g ~init:() ~f:(fun () u v _ -> ignore (Union_find.union uf u v)));
  Alcotest.(check int) "one component" 1 (Union_find.count_sets uf)

let test_generator_ratio () =
  let t = Lazy.force generated in
  let stats = Topo_stats.compute t.Generator.graph in
  Alcotest.(check bool)
    (Printf.sprintf "P/C fraction %.2f within 0.64..0.74" stats.Topo_stats.pc_fraction)
    true
    (stats.Topo_stats.pc_fraction > 0.64 && stats.Topo_stats.pc_fraction < 0.74)

let test_generator_roles_consistent () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  Array.iteri
    (fun v role ->
      match role with
      | Generator.Tier1 ->
        Alcotest.(check int) "tier1 has no providers" 0 (Array.length (As_graph.providers g v))
      | Generator.Transit | Generator.Stub ->
        Alcotest.(check bool) "non-tier1 has a provider" true
          (Array.length (As_graph.providers g v) > 0))
    t.Generator.roles

let test_generator_content_are_stubs () =
  let t = Lazy.force generated in
  Array.iter
    (fun cp ->
      Alcotest.(check bool) "content provider is a stub" true
        (t.Generator.roles.(cp) = Generator.Stub))
    t.Generator.content

let test_generator_validates () =
  Alcotest.check_raises "bad tier1" (Invalid_argument "Generator: bad tier1 size")
    (fun () ->
      ignore
        (Generator.generate
           ~params:{ Generator.default_params with Generator.tier1 = 1 }
           ~seed:1 ()))

let prop_generator_valid =
  QCheck2.Test.make ~name:"generated graphs are valid at random sizes" ~count:8
    QCheck2.Gen.(pair (int_range 20 300) (int_range 0 1000))
    (fun (ases, seed) ->
      let params =
        {
          Generator.default_params with
          Generator.ases;
          tier1 = 4;
          content_providers = 2;
          content_peer_span = (2, 6);
        }
      in
      let t = Generator.generate ~params ~seed () in
      let g = t.Generator.graph in
      (* create already validates the DAG; check connectivity *)
      let uf = Union_find.create (As_graph.n g) in
      ignore
        (As_graph.fold_edges g ~init:() ~f:(fun () u v _ -> ignore (Union_find.union uf u v)));
      Union_find.count_sets uf = 1)

let test_fig2a_gadget () =
  let g = Generator.fig2a_gadget () in
  Alcotest.(check int) "4 nodes" 4 (As_graph.n g);
  Alcotest.(check int) "3 peer links" 3 (As_graph.peer_edge_count g);
  Alcotest.(check int) "0 has 3 providers" 3 (Array.length (As_graph.providers g 0))

(* ---------- As_rel_io ---------- *)

let test_as_rel_roundtrip () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  let text = As_rel_io.to_string g in
  let loaded = As_rel_io.parse_string text in
  let s1 = Topo_stats.compute g and s2 = Topo_stats.compute loaded.As_rel_io.graph in
  Alcotest.(check int) "nodes" s1.Topo_stats.nodes s2.Topo_stats.nodes;
  Alcotest.(check int) "links" s1.Topo_stats.links s2.Topo_stats.links;
  Alcotest.(check int) "pc" s1.Topo_stats.pc_links s2.Topo_stats.pc_links;
  Alcotest.(check int) "peering" s1.Topo_stats.peering_links s2.Topo_stats.peering_links

let test_as_rel_parse () =
  let loaded = As_rel_io.parse_string "# comment\n100|200|-1\n200|300|0\n" in
  let g = loaded.As_rel_io.graph in
  Alcotest.(check int) "3 nodes" 3 (As_graph.n g);
  Alcotest.(check int) "1 pc" 1 (As_graph.pc_edge_count g);
  Alcotest.(check int) "1 peer" 1 (As_graph.peer_edge_count g);
  (* AS numbers preserved *)
  Alcotest.(check (array int)) "as numbers" [| 100; 200; 300 |] loaded.As_rel_io.as_number

let test_as_rel_bad_input () =
  let raises_parse_error text =
    match As_rel_io.parse_string text with
    | exception As_rel_io.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad relationship" true (raises_parse_error "1|2|7\n");
  Alcotest.(check bool) "bad AS number" true (raises_parse_error "x|2|0\n");
  (* [int_of_string] takes all of these; an AS number is plain decimal
     in 0 .. 2^32 - 1, and the error names the line and the field *)
  List.iter
    (fun asn ->
      List.iter
        (fun (field, line) ->
          match As_rel_io.parse_string ("# header\n" ^ line) with
          | exception As_rel_io.Parse_error (l, msg) ->
            Alcotest.(check (pair int string)) asn
              (2, Printf.sprintf "bad %s %S" field asn) (l, msg)
          | _ -> Alcotest.failf "AS number %S accepted" asn)
        [ ("first AS number", asn ^ "|2|0\n"); ("second AS number", "1|" ^ asn ^ "|0\n") ])
    [ "-5"; "+7"; "0x10"; "0b11"; "0o7"; "0u12"; "1_000"; "4294967296"; "99999999999999999999"; "" ];
  Alcotest.(check (array int)) "the 32-bit extremes are AS numbers" [| 0; 4294967295 |]
    (As_rel_io.parse_string "0|4294967295|0\n").As_rel_io.as_number;
  List.iter
    (fun rel ->
      Alcotest.(check bool) (Printf.sprintf "relationship %S" rel) true
        (raises_parse_error ("1|2|" ^ rel ^ "\n")))
    [ "-0x1"; "+0"; "00"; "-01"; "" ];
  Alcotest.(check bool) "bad format" true (raises_parse_error "1,2,0\n");
  Alcotest.(check bool) "empty" true (raises_parse_error "# nothing\n");
  (* graph-level faults surface as Parse_error too, never as an
     As_graph exception *)
  let error_line text =
    match As_rel_io.parse_string text with
    | exception As_rel_io.Parse_error (line, _) -> Some line
    | _ -> None
  in
  Alcotest.(check (option int)) "lone self-loop" (Some 1) (error_line "1|1|0\n");
  Alcotest.(check (option int)) "self-loop on its line" (Some 2)
    (error_line "1|2|0\n1|1|0\n");
  Alcotest.(check (option int)) "duplicate on its own line" (Some 4)
    (error_line "# header\n1|2|-1\n2|3|0\n2|1|0\n");
  Alcotest.(check (option int)) "provider cycle" (Some 0)
    (error_line "1|2|-1\n2|3|-1\n3|1|-1\n")

(* Mutated and truncated as-rel text: every input either parses or is
   rejected with [Parse_error]; no other exception escapes. *)
let prop_as_rel_fuzz =
  let valid = "# as-rel\n1|2|-1\n2|3|-1\n1|4|0\n4|5|-1\n3|5|0\n" in
  let n = String.length valid in
  QCheck2.Test.make ~name:"as_rel_io: only Parse_error escapes on mutated input"
    ~count:1000
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6) (pair (int_bound (n - 1)) (oneof [ numeral; printable; char ])))
        (int_bound n))
    (fun (edits, cut) ->
      let b = Bytes.of_string valid in
      List.iter (fun (i, c) -> Bytes.set b i c) edits;
      match As_rel_io.parse_string (Bytes.sub_string b 0 cut) with
      | _ -> true
      | exception As_rel_io.Parse_error _ -> true)

let test_degree_distribution () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  let ccdf = Topo_stats.degree_ccdf g in
  (* a proper CCDF: starts at 1, decreases, stays positive *)
  Alcotest.(check (float 1e-9)) "starts at 1" 1.0 (snd ccdf.(0));
  for i = 1 to Array.length ccdf - 1 do
    Alcotest.(check bool) "monotone" true (snd ccdf.(i) <= snd ccdf.(i - 1));
    Alcotest.(check bool) "positive" true (snd ccdf.(i) > 0.)
  done;
  let slope = Topo_stats.powerlaw_exponent g in
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail: slope %.2f in -2.5..-0.5" slope)
    true
    (slope < -0.5 && slope > -2.5)

let test_topo_stats () =
  let g = small_graph () in
  let s = Topo_stats.compute g in
  Alcotest.(check int) "nodes" 4 s.Topo_stats.nodes;
  Alcotest.(check int) "links" 4 s.Topo_stats.links;
  Alcotest.(check int) "max degree" 3 s.Topo_stats.max_degree;
  Alcotest.(check bool) "mean degree" true (abs_float (s.Topo_stats.mean_degree -. 2.0) < 1e-9)

let () =
  Alcotest.run "mifo_topology"
    [
      ( "relationship",
        [
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "preference ranks" `Quick test_preference;
          Alcotest.test_case "Eq.3 transit rule" `Quick test_transit_rule;
          Alcotest.test_case "export policy" `Quick test_exports_to;
          Alcotest.test_case "valley-free shapes" `Quick test_valley_free_shapes;
        ] );
      ( "as_graph",
        [
          Alcotest.test_case "adjacency and relationships" `Quick test_graph_basic;
          Alcotest.test_case "levels and topological order" `Quick test_graph_levels;
          Alcotest.test_case "rejects provider cycles" `Quick test_graph_rejects_cycle;
          Alcotest.test_case "rejects duplicate links" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "rejects self-loops" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "fold_edges" `Quick test_fold_edges;
          Alcotest.test_case "path valley-freeness" `Quick test_path_valley_free;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_generator_deterministic;
          Alcotest.test_case "connected" `Quick test_generator_connected;
          Alcotest.test_case "P/C : peering ratio" `Quick test_generator_ratio;
          Alcotest.test_case "roles consistent" `Quick test_generator_roles_consistent;
          Alcotest.test_case "content providers are stubs" `Quick test_generator_content_are_stubs;
          Alcotest.test_case "parameter validation" `Quick test_generator_validates;
          Alcotest.test_case "fig2a gadget" `Quick test_fig2a_gadget;
          QCheck_alcotest.to_alcotest prop_generator_valid;
        ] );
      ( "as_rel_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_as_rel_roundtrip;
          Alcotest.test_case "parse" `Quick test_as_rel_parse;
          Alcotest.test_case "bad input" `Quick test_as_rel_bad_input;
          QCheck_alcotest.to_alcotest prop_as_rel_fuzz;
        ] );
      ( "topo_stats",
        [
          Alcotest.test_case "small graph" `Quick test_topo_stats;
          Alcotest.test_case "degree distribution" `Quick test_degree_distribution;
        ] );
    ]
