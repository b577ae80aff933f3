(* Tests for the MIRO baseline (strict-policy path sets). *)

module Miro = Mifo_miro.Miro
module Routing = Mifo_bgp.Routing
module Deployment = Mifo_core.Deployment
module Generator = Mifo_topology.Generator
module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship

let gadget = lazy (let g = Generator.fig2a_gadget () in (g, Routing.compute g 0))
let topo = lazy (Generator.generate ~seed:61 ())

let test_candidates_same_class () =
  let _, rt = Lazy.force gadget in
  let deployment = Deployment.full ~n:4 in
  (* at AS 1 the default is the direct customer route; the peer-learned
     alternates are in a worse class, so strict MIRO offers none *)
  let c = Miro.candidates rt ~deployment ~src:1 in
  Alcotest.(check int) "no cross-class alternates" 0 (List.length c);
  Alcotest.(check int) "path count = default only" 1
    (Miro.available_path_count rt ~deployment ~src:1)

(* Two same-class provider routes: one default, one alternate. *)
let twin_providers () =
  let g =
    As_graph.create ~n:4
      ~edges:
        [
          (1, 0, As_graph.Provider_customer);
          (2, 0, As_graph.Provider_customer);
          (1, 3, As_graph.Provider_customer);
          (2, 3, As_graph.Provider_customer);
        ]
  in
  (g, Routing.compute g 0)

let test_candidates_found () =
  let _, rt = twin_providers () in
  let deployment = Deployment.full ~n:4 in
  let c = Miro.candidates rt ~deployment ~src:3 in
  Alcotest.(check int) "one same-class alternate" 1 (List.length c);
  Alcotest.(check int) "via the other provider" 2 (List.hd c);
  Alcotest.(check int) "two available paths" 2
    (Miro.available_path_count rt ~deployment ~src:3)

let test_capability_gates () =
  let _, rt = twin_providers () in
  (* source not capable: default only *)
  let d_no_src = Deployment.of_list ~n:4 [ 1; 2 ] in
  Alcotest.(check int) "incapable source" 1
    (Miro.available_path_count rt ~deployment:d_no_src ~src:3);
  (* neighbor not capable: its alternate cannot be negotiated *)
  let d_no_alt = Deployment.of_list ~n:4 [ 3; 1 ] in
  Alcotest.(check int) "incapable remote" 1
    (Miro.available_path_count rt ~deployment:d_no_alt ~src:3)

let test_cap_enforced () =
  let t = Lazy.force topo in
  let g = t.Generator.graph in
  let rt = Routing.compute g 0 in
  let deployment = Deployment.full ~n:(As_graph.n g) in
  for src = 1 to 400 do
    let c1 = Miro.candidates ~config:{ Miro.cap = 1 } rt ~deployment ~src in
    Alcotest.(check bool) "cap 1" true (List.length c1 <= 1);
    let c0 = Miro.candidates ~config:{ Miro.cap = 0 } rt ~deployment ~src in
    Alcotest.(check int) "cap 0" 0 (List.length c0)
  done

let test_alternate_paths_valid () =
  let t = Lazy.force topo in
  let g = t.Generator.graph in
  let rt = Routing.compute g 0 in
  let deployment = Deployment.full ~n:(As_graph.n g) in
  for src = 1 to 200 do
    List.iter
      (fun path ->
        Alcotest.(check int) "starts at the source" src (List.hd path);
        Alcotest.(check int) "ends at the destination" 0 (List.hd (List.rev path));
        Alcotest.(check int) "no repeated AS (BGP loop filter)"
          (List.length path)
          (List.length (List.sort_uniq compare path)))
      (Miro.alternate_paths rt ~deployment ~src)
  done

let test_available_count_bounds () =
  let t = Lazy.force topo in
  let g = t.Generator.graph in
  let rt = Routing.compute g 5 in
  let full = Deployment.full ~n:(As_graph.n g) in
  let half = Deployment.fraction ~n:(As_graph.n g) ~ratio:0.5 ~seed:1 in
  for src = 0 to 300 do
    let f = Miro.available_path_count rt ~deployment:full ~src in
    let h = Miro.available_path_count rt ~deployment:half ~src in
    Alcotest.(check bool) "at least the default" true (f >= 1 && h >= 1);
    Alcotest.(check bool) "partial <= full" true (h <= f);
    Alcotest.(check bool) "within cap + 1" true (f <= Miro.default_config.Miro.cap + 1)
  done

let () =
  Alcotest.run "mifo_miro"
    [
      ( "strict policy",
        [
          Alcotest.test_case "same-class filter" `Quick test_candidates_same_class;
          Alcotest.test_case "same-class alternates found" `Quick test_candidates_found;
          Alcotest.test_case "capability gates" `Quick test_capability_gates;
          Alcotest.test_case "cap enforced" `Quick test_cap_enforced;
          Alcotest.test_case "alternate paths valid" `Quick test_alternate_paths_valid;
          Alcotest.test_case "count bounds" `Quick test_available_count_bounds;
        ] );
    ]
