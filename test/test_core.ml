(* Unit and property tests for Mifo_core: the deployment maps, the
   one-bit policy, packets, the FIB, the Algorithm 1 engine, the daemon,
   the greedy alternative selection, and the loop-freedom theorem. *)

module Deployment = Mifo_core.Deployment
module Policy = Mifo_core.Policy
module Packet = Mifo_core.Packet
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Daemon = Mifo_core.Daemon
module Alt_select = Mifo_core.Alt_select
module Loop_walk = Mifo_core.Loop_walk
module Obs = Mifo_util.Obs
module Prefix = Mifo_bgp.Prefix
module Routing = Mifo_bgp.Routing
module Relationship = Mifo_topology.Relationship
module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module Flowsim_oracle = Mifo_oracle.Flowsim_oracle

(* ---------- Deployment ---------- *)

let test_deployment_full_none () =
  let f = Deployment.full ~n:10 and z = Deployment.none ~n:10 in
  Alcotest.(check int) "full count" 10 (Deployment.count f);
  Alcotest.(check int) "none count" 0 (Deployment.count z);
  Alcotest.(check bool) "full capable" true (Deployment.capable f 3);
  Alcotest.(check bool) "none capable" false (Deployment.capable z 3)

let test_deployment_fraction () =
  let d = Deployment.fraction ~n:1000 ~ratio:0.3 ~seed:5 in
  Alcotest.(check int) "30%" 300 (Deployment.count d);
  let d' = Deployment.fraction ~n:1000 ~ratio:0.3 ~seed:5 in
  Alcotest.(check (list int)) "deterministic" (Deployment.members d) (Deployment.members d');
  let d2 = Deployment.fraction ~n:1000 ~ratio:0.3 ~seed:6 in
  Alcotest.(check bool) "seed changes the set" false
    (Deployment.members d = Deployment.members d2)

let test_deployment_of_list () =
  let d = Deployment.of_list ~n:5 [ 1; 3; 3 ] in
  Alcotest.(check int) "dedup" 2 (Deployment.count d);
  Alcotest.(check (list int)) "members" [ 1; 3 ] (Deployment.members d);
  Alcotest.check_raises "range check"
    (Invalid_argument "Deployment.of_list: id out of range") (fun () ->
      ignore (Deployment.of_list ~n:5 [ 9 ]))

let test_deployment_clamps_ratio () =
  Alcotest.(check int) "ratio > 1 clamps" 10
    (Deployment.count (Deployment.fraction ~n:10 ~ratio:2.5 ~seed:1));
  Alcotest.(check int) "ratio < 0 clamps" 0
    (Deployment.count (Deployment.fraction ~n:10 ~ratio:(-1.) ~seed:1))

(* ---------- Policy ---------- *)

let test_policy () =
  Alcotest.(check bool) "customer upstream tags 1" true
    (Policy.tag_of_upstream Relationship.Customer);
  Alcotest.(check bool) "peer upstream tags 0" false
    (Policy.tag_of_upstream Relationship.Peer);
  Alcotest.(check bool) "provider upstream tags 0" false
    (Policy.tag_of_upstream Relationship.Provider);
  Alcotest.(check bool) "tag set allows anything" true
    (Policy.check ~tag:true ~downstream:Relationship.Provider);
  Alcotest.(check bool) "tag clear allows customers" true
    (Policy.check ~tag:false ~downstream:Relationship.Customer);
  Alcotest.(check bool) "tag clear forbids peers" false
    (Policy.check ~tag:false ~downstream:Relationship.Peer);
  Alcotest.(check bool) "source may deflect anywhere" true
    (Policy.deflection_allowed ~upstream:None ~downstream:Relationship.Provider);
  Alcotest.(check bool) "peer to peer forbidden" false
    (Policy.deflection_allowed ~upstream:(Some Relationship.Peer)
       ~downstream:Relationship.Peer)

(* ---------- Packet ---------- *)

let mk_packet ?ttl () =
  Packet.make ?ttl ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 2 1) ~flow:5 ()

let test_packet_encap () =
  let p = mk_packet () in
  let e = Packet.encapsulate p ~outer_src:3 ~outer_dst:4 in
  Alcotest.(check bool) "encapsulated" true (e.Packet.encap <> None);
  Alcotest.(check int) "outer header on the wire" (p.Packet.size_bits + 160)
    (Packet.wire_size_bits e);
  let d = Packet.decapsulate e in
  Alcotest.(check bool) "decapsulated" true (d.Packet.encap = None);
  Alcotest.(check bool) "no nested tunnels" true
    (match Packet.encapsulate e ~outer_src:1 ~outer_dst:2 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_packet_ttl () =
  let p = mk_packet ~ttl:2 () in
  (match Packet.decrement_ttl p with
   | Some p' -> Alcotest.(check int) "decremented" 1 p'.Packet.ttl
   | None -> Alcotest.fail "should survive");
  let p1 = mk_packet ~ttl:1 () in
  Alcotest.(check bool) "expires at 1" true (Packet.decrement_ttl p1 = None)

(* ---------- Fib ---------- *)

let test_fib_lpm () =
  let fib = Fib.create () in
  Fib.insert fib (Prefix.of_string "10.0.0.0/8") ~out_port:1 ();
  Fib.insert fib (Prefix.of_string "10.1.0.0/16") ~out_port:2 ();
  Fib.insert fib (Prefix.of_string "10.1.2.0/24") ~out_port:3 ~alt_port:9 ();
  let port addr =
    match Fib.lookup fib (Prefix.addr_of_string addr) with
    | Some e -> Fib.out_port e
    | None -> -1
  in
  Alcotest.(check int) "/24 wins" 3 (port "10.1.2.5");
  Alcotest.(check int) "/16 wins" 2 (port "10.1.9.5");
  Alcotest.(check int) "/8 wins" 1 (port "10.9.9.9");
  Alcotest.(check int) "miss" (-1) (port "11.0.0.1");
  Alcotest.(check int) "three entries" 3 (Fib.size fib)

let test_fib_set_alt () =
  let fib = Fib.create () in
  let p = Prefix.of_string "10.1.2.0/24" in
  Fib.insert fib p ~out_port:1 ();
  Fib.set_alt fib p (Some 5);
  (match Fib.find fib p with
   | Some e -> Alcotest.(check (option int)) "alt set" (Some 5) (Fib.alt_port e)
   | None -> Alcotest.fail "entry missing");
  Alcotest.check_raises "unknown prefix" Not_found (fun () ->
      Fib.set_alt fib (Prefix.of_string "11.0.0.0/8") None)

let test_fib_buckets () =
  for flow = 0 to 10_000 do
    let b = Fib.flow_bucket flow in
    Alcotest.(check bool) "bucket in range" true (b >= 0 && b < Fib.buckets)
  done;
  Alcotest.(check int) "deterministic" (Fib.flow_bucket 1234) (Fib.flow_bucket 1234);
  (* buckets are reasonably spread *)
  let seen = Array.make Fib.buckets 0 in
  for flow = 0 to 999 do
    seen.(Fib.flow_bucket flow) <- seen.(Fib.flow_bucket flow) + 1
  done;
  Alcotest.(check bool) "no empty bucket over 1000 flows" true
    (Array.for_all (fun c -> c > 0) seen)

let test_fib_reinsert_preserves_deflection () =
  (* A BGP route refresh re-inserts the same prefix.  With the default
     egress unchanged, the call's alternative hint is authoritative: a
     matching hint must not clobber the daemon's live deflection state,
     while an omitted hint means "no alternative" and clears it
     (regression for the old behavior that silently preserved a stale
     alternative forever). *)
  let fib = Fib.create () in
  let p = Prefix.of_as 2 in
  Fib.insert fib p ~out_port:0 ~alt_port:1 ();
  let e = Option.get (Fib.find fib p) in
  Fib.set_alts e [ 1; 3 ];
  Fib.set_deflect_buckets e 17;
  (* refresh: same default egress, hint matches the live primary — the
     whole ranked set and the ramp survive *)
  Fib.insert fib p ~out_port:0 ~alt_port:1 ();
  let e = Option.get (Fib.find fib p) in
  Alcotest.(check (option int)) "alt preserved" (Some 1) (Fib.alt_port e);
  Alcotest.(check int) "ranked set preserved" 3 (Fib.alt_at e 1);
  Alcotest.(check int) "buckets preserved" 17 (Fib.deflect_buckets e);
  (* refresh with a different hint: the new alternative replaces the
     set and the ramp restarts *)
  Fib.insert fib p ~out_port:0 ~alt_port:9 ();
  let e = Option.get (Fib.find fib p) in
  Alcotest.(check (option int)) "new hint wins" (Some 9) (Fib.alt_port e);
  Alcotest.(check int) "higher slots cleared" (-1) (Fib.alt_at e 1);
  Alcotest.(check int) "buckets reset on alt change" 0 (Fib.deflect_buckets e);
  (* regression: refresh WITHOUT an alternative clears the old one *)
  Fib.set_deflect_buckets e 5;
  Fib.insert fib p ~out_port:0 ();
  let e = Option.get (Fib.find fib p) in
  Alcotest.(check (option int)) "None hint clears the alternative" None
    (Fib.alt_port e);
  Alcotest.(check int) "buckets reset on clear" 0 (Fib.deflect_buckets e);
  (* a genuine route change resets everything *)
  Fib.insert fib p ~out_port:0 ~alt_port:1 ();
  Fib.set_deflect_buckets (Option.get (Fib.find fib p)) 11;
  Fib.insert fib p ~out_port:5 ~alt_port:9 ();
  let e = Option.get (Fib.find fib p) in
  Alcotest.(check int) "new default egress" 5 (Fib.out_port e);
  Alcotest.(check (option int)) "new alternative" (Some 9) (Fib.alt_port e);
  Alcotest.(check int) "buckets reset on route change" 0 (Fib.deflect_buckets e);
  Alcotest.(check int) "one entry" 1 (Fib.size fib)

let test_fib_may_deflect_clears () =
  (* Regression: [may_deflect] used to be a sticky flag that stayed on
     forever after any entry transiently gained an alternative.  It must
     track the live alt-bearing entry count through every clearing
     path. *)
  let fib = Fib.create () in
  let p = Prefix.of_as 2 and q = Prefix.of_as 3 in
  Alcotest.(check bool) "empty fib" false (Fib.may_deflect fib);
  Fib.insert fib p ~out_port:0 ~alt_port:1 ();
  Alcotest.(check bool) "alt inserted" true (Fib.may_deflect fib);
  (* withdraw via set_alt_port on the handle *)
  Fib.set_alt_port (Option.get (Fib.find fib p)) None;
  Alcotest.(check bool) "cleared by set_alt_port" false (Fib.may_deflect fib);
  (* ... via set_alts [] *)
  Fib.set_alts (Option.get (Fib.find fib p)) [ 1; 3 ];
  Alcotest.(check bool) "ranked set installed" true (Fib.may_deflect fib);
  Fib.set_alts (Option.get (Fib.find fib p)) [];
  Alcotest.(check bool) "cleared by empty set_alts" false (Fib.may_deflect fib);
  (* ... via a refresh without a hint *)
  Fib.set_alt fib p (Some 7);
  Fib.insert fib p ~out_port:0 ();
  Alcotest.(check bool) "cleared by refresh" false (Fib.may_deflect fib);
  (* ... via remove of the only alt-bearing entry *)
  Fib.insert fib q ~out_port:2 ~alt_port:5 ();
  Fib.set_alt fib p (Some 7);
  ignore (Fib.remove fib q);
  Alcotest.(check bool) "other alt entry still live" true (Fib.may_deflect fib);
  ignore (Fib.remove fib p);
  Alcotest.(check bool) "cleared by remove" false (Fib.may_deflect fib)

let test_fib_ranked_slots () =
  let fib = Fib.create () in
  let p = Prefix.of_as 2 in
  Fib.insert fib p ~out_port:0 ();
  let e = Option.get (Fib.find fib p) in
  Alcotest.(check int) "empty count" 0 (Fib.alt_count e);
  Alcotest.(check int) "empty slot" (-1) (Fib.alt_at e 0);
  (* negatives dropped, order kept, truncated at max_alts, compacted *)
  Fib.set_alts e [ 4; -1; 7; 2; 9; 11 ];
  Alcotest.(check int) "count capped" Fib.max_alts (Fib.alt_count e);
  Alcotest.(check (list int)) "slots in rank order" [ 4; 7; 2; 9 ]
    (List.init Fib.max_alts (Fib.alt_at e));
  Alcotest.(check int) "out of range" (-1) (Fib.alt_at e Fib.max_alts);
  (* single-alt shim reads slot 0 and writes a singleton *)
  Alcotest.(check int) "alt_port_id = slot 0" 4 (Fib.alt_port_id e);
  Fib.set_alt_port e (Some 5);
  Alcotest.(check (list int)) "shim clears higher slots" [ 5; -1; -1; -1 ]
    (List.init Fib.max_alts (Fib.alt_at e));
  (* ECMP spreading: bucket b -> slot (b mod count); a one-alt entry
     always uses slot 0 (the k=1 data plane) *)
  Fib.set_alts e [ 4; 7 ];
  for flow = 0 to 99 do
    let want = Fib.alt_at e (Fib.flow_bucket flow mod 2) in
    Alcotest.(check int) "spread matches slot_of_bucket" want
      (Fib.alt_for_flow e ~flow)
  done;
  Fib.set_alts e [ 4 ];
  for flow = 0 to 99 do
    Alcotest.(check int) "k=1: always slot 0" 4 (Fib.alt_for_flow e ~flow)
  done;
  let k = Fib.default_k () in
  Alcotest.(check bool) "default_k within bounds" true (k >= 1 && k <= Fib.max_alts)

let test_fib_deflects () =
  let fib = Fib.create () in
  let p = Prefix.of_as 2 in
  Fib.insert fib p ~out_port:0 ~alt_port:1 ();
  let entry = Option.get (Fib.find fib p) in
  Fib.set_deflect_buckets entry Fib.buckets;
  Alcotest.(check bool) "all buckets deflect" true (Fib.deflects entry ~flow:7);
  Fib.set_deflect_buckets entry 0;
  Alcotest.(check bool) "zero buckets never deflect" false (Fib.deflects entry ~flow:7);
  Fib.set_deflect_buckets entry Fib.buckets;
  Fib.set_alt_port entry None;
  Alcotest.(check bool) "no alt never deflects" false (Fib.deflects entry ~flow:7)

(* [size] is a cached O(1) count, maintained through refreshes and
   removals, and mirrored into the [fib.entries] gauge. *)
let test_fib_size_and_gauge () =
  let before = Obs.gauge_value "fib.entries" in
  let base = if Float.is_nan before then 0. else before in
  let fib = Fib.create () in
  Alcotest.(check int) "empty" 0 (Fib.size fib);
  Fib.insert fib (Prefix.of_string "10.0.0.0/8") ~out_port:1 ();
  Fib.insert fib (Prefix.of_string "10.1.0.0/16") ~out_port:2 ();
  Fib.insert fib (Prefix.of_string "10.1.0.0/16") ~out_port:3 ();
  Alcotest.(check int) "refresh does not double-count" 2 (Fib.size fib);
  Alcotest.(check bool) "remove hit" true (Fib.remove fib (Prefix.of_string "10.0.0.0/8"));
  Alcotest.(check bool) "remove miss" false (Fib.remove fib (Prefix.of_string "10.0.0.0/8"));
  Alcotest.(check int) "size tracks removal" 1 (Fib.size fib);
  Alcotest.(check (float 1e-6)) "fib.entries gauge tracks net insertions" (base +. 1.)
    (Obs.gauge_value "fib.entries")

(* The production flat (open-addressed) store and the hashed oracle
   store must be observationally identical under arbitrary insert /
   remove / set-alt / set-deflect churn. *)
module type FIB = Mifo_oracle.Fib_hashed.S

let fib_universe =
  Array.map Prefix.of_string
    [|
      "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.64/26";
      "10.1.2.128/25"; "10.2.0.0/16"; "172.16.0.0/12"; "192.168.0.0/16";
      "192.168.7.0/24"; "192.168.7.42/32"; "203.0.113.0/24";
    |]

let fib_probes =
  Array.map Prefix.addr_of_string
    [|
      "10.1.2.5"; "10.1.2.70"; "10.1.2.130"; "10.9.9.9"; "10.2.3.4"; "172.16.5.5";
      "192.168.7.42"; "192.168.1.1"; "203.0.113.9"; "8.8.8.8";
    |]

module Fib_ops (F : FIB) = struct
  let apply fib (kind, pidx, a, b) =
    let p = fib_universe.(pidx mod Array.length fib_universe) in
    match kind with
    | 0 ->
      if b mod 3 = 0 then F.insert fib p ~out_port:(a land 3) ()
      else F.insert fib p ~out_port:(a land 3) ~alt_port:(16 + (b land 3)) ()
    | 1 -> ignore (F.remove fib p)
    | 2 ->
      (match F.find fib p with
       | Some e -> F.set_deflect_buckets e (a mod (F.buckets + 1))
       | None -> ())
    | 3 ->
      (match F.find fib p with
       | Some _ -> F.set_alt fib p (if b land 1 = 0 then None else Some (32 + (b land 7)))
       | None -> ())
    | _ ->
      (* ranked set of 0..5 candidate ports (possibly with negatives /
         overflow, exercising drop+truncate+compact) *)
      (match F.find fib p with
       | Some e ->
         let n = b mod 6 in
         F.set_alts e (List.init n (fun i -> ((a + (7 * i)) land 31) - 4))
       | None -> ())

  let entry_view e = (F.out_port e, List.init F.max_alts (F.alt_at e), F.deflect_buckets e)

  let dump fib =
    let acc = ref [] in
    F.iter fib (fun p e -> acc := (Prefix.to_string p, entry_view e) :: !acc);
    List.sort compare !acc

  let lookup fib addr = Option.map entry_view (F.lookup fib addr)
end

module Flat_ops = Fib_ops (Fib)
module Hashed_ops = Fib_ops (Mifo_oracle.Fib_hashed)

let prop_fib_flat_matches_hashed =
  QCheck2.Test.make ~name:"fib: flat and hashed reps agree under churn" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 6) (int_bound 1000))
        (list_size (int_range 0 80)
           (quad (int_bound 4) (int_bound 1000) (int_bound 1000) (int_bound 1000))))
    (fun (early_removes, ops) ->
      let flat = Fib.create () in
      let hashed = Mifo_oracle.Fib_hashed.create () in
      (* removes on fresh tables, before any length was ever inserted *)
      List.iter
        (fun i ->
          let p = fib_universe.(i mod Array.length fib_universe) in
          if Fib.remove flat p || Mifo_oracle.Fib_hashed.remove hashed p then
            QCheck2.Test.fail_report "remove before the first insert found an entry")
        early_removes;
      if Fib.size flat <> 0 || Mifo_oracle.Fib_hashed.size hashed <> 0 then
        QCheck2.Test.fail_report "remove before the first insert changed the size";
      List.iter
        (fun op ->
          Flat_ops.apply flat op;
          Hashed_ops.apply hashed op)
        ops;
      if Fib.size flat <> Mifo_oracle.Fib_hashed.size hashed then
        QCheck2.Test.fail_report "sizes diverged";
      if Fib.may_deflect flat <> Mifo_oracle.Fib_hashed.may_deflect hashed then
        QCheck2.Test.fail_report "may_deflect diverged";
      if Flat_ops.dump flat <> Hashed_ops.dump hashed then
        QCheck2.Test.fail_report "iterated contents diverged";
      Array.iter
        (fun addr ->
          if Flat_ops.lookup flat addr <> Hashed_ops.lookup hashed addr then
            QCheck2.Test.fail_report "lookup diverged")
        fib_probes;
      true)

(* Per-length levels of a fresh flat table share one empty sentinel
   until their first insert: reads and removes on untouched lengths must
   leave it empty, and an insert into one table must never show up in
   another.  The hashed oracle must behave the same. *)
let test_fib_lazy_levels_isolated () =
  List.iter
    (fun (store, (module F : FIB)) ->
      let name what = store ^ ": " ^ what in
      let count fib =
        let n = ref 0 in
        F.iter fib (fun _ _ -> incr n);
        !n
      in
      let empty fib what =
        Alcotest.(check int) (name (what ^ " size")) 0 (F.size fib);
        Alcotest.(check int) (name (what ^ " iter")) 0 (count fib);
        Alcotest.(check bool) (name (what ^ " may_deflect")) false (F.may_deflect fib);
        Array.iter
          (fun addr ->
            Alcotest.(check bool) (name (what ^ " lookup misses")) true
              (F.lookup fib addr = None))
          fib_probes;
        Array.iter
          (fun p ->
            Alcotest.(check bool) (name (what ^ " find misses")) true (F.find fib p = None))
          fib_universe
      in
      let a = F.create () and b = F.create () in
      Array.iter
        (fun p ->
          Alcotest.(check bool) (name "remove on a fresh table") false (F.remove a p))
        fib_universe;
      empty a "untouched a";
      empty b "untouched b";
      F.insert a (Prefix.of_string "10.1.2.0/24") ~out_port:3 ~alt_port:5 ();
      empty b "b after a's insert";
      Alcotest.(check bool) (name "b's /24 remove misses") false
        (F.remove b (Prefix.of_string "10.1.2.0/24"));
      F.insert b (Prefix.of_string "10.0.0.0/8") ~out_port:1 ();
      let out fib addr =
        match F.lookup fib (Prefix.addr_of_string addr) with
        | Some e -> F.out_port e
        | None -> -1
      in
      Alcotest.(check int) (name "a keeps its /24") 3 (out a "10.1.2.5");
      Alcotest.(check int) (name "a never sees b's /8") (-1) (out a "10.9.9.9");
      Alcotest.(check int) (name "b never sees a's /24") 1 (out b "10.1.2.5");
      Alcotest.(check int) (name "a holds one entry") 1 (F.size a);
      Alcotest.(check int) (name "b holds one entry") 1 (F.size b);
      empty (F.create ()) "a table created afterwards")
    [ ("flat", (module Fib : FIB)); ("hashed", (module Mifo_oracle.Fib_hashed : FIB)) ]

(* MIFO_K_ALT is read on each call; a malformed value is an error that
   names the variable and the value.  Unix has no unsetenv, so the
   variable is restored to its old value or to empty, which reads as
   unset. *)
let with_env var value f =
  let old = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var old) f

let test_fib_default_k_env () =
  List.iter
    (fun (value, want) ->
      with_env "MIFO_K_ALT" value (fun () ->
          Alcotest.(check int) (Printf.sprintf "MIFO_K_ALT=%S" value) want (Fib.default_k ())))
    [ ("", Fib.max_alts); ("1", 1); (" 2 ", 2); ("9", Fib.max_alts) ];
  List.iter
    (fun value ->
      with_env "MIFO_K_ALT" value (fun () ->
          Alcotest.check_raises
            (Printf.sprintf "MIFO_K_ALT=%S rejected" value)
            (Invalid_argument
               (Printf.sprintf "MIFO_K_ALT: expected a positive integer, got %S" value))
            (fun () -> ignore (Fib.default_k ()))))
    [ "0"; "-3"; "four"; "2x" ]

(* ---------- Engine ---------- *)

(* A single-router environment with configurable port kinds and
   congestion; ports: 0 = default egress, 1 = alternative, 2 = upstream. *)
let make_env ?(alt_kind = Engine.Ebgp { neighbor_as = 9; rel = Relationship.Peer })
    ?(upstream_kind = Engine.Ebgp { neighbor_as = 8; rel = Relationship.Customer })
    ?(congested = fun _ -> false) ?(deflect_buckets = 0) ?(alt = Some 1)
    ?(next_hop_router = fun _ -> None) ?(route_to_peer = fun _ -> None) () =
  let fib = Fib.create () in
  let dst_prefix = Prefix.of_as 2 in
  Fib.insert fib dst_prefix ~out_port:0 ?alt_port:alt ();
  (match Fib.find fib dst_prefix with
   | Some e -> Fib.set_deflect_buckets e deflect_buckets
   | None -> assert false);
  {
    Engine.router_id = 100;
    fib;
    port_kind =
      (fun p ->
        if p = 0 then Engine.Ebgp { neighbor_as = 7; rel = Relationship.Provider }
        else if p = 1 then alt_kind
        else upstream_kind);
    is_congested = congested;
    next_hop_router;
    route_to_peer;
  }

let packet () = mk_packet ()

let test_engine_default_forward () =
  let env = make_env () in
  match Engine.forward env ~ingress:(Some 2) (packet ()) with
  | Engine.Send { port; packet = p; _ } ->
    Alcotest.(check int) "default port" 0 port;
    Alcotest.(check bool) "tagged by customer upstream" true p.Packet.vf_tag;
    Alcotest.(check int) "ttl decremented" (Packet.default_ttl - 1) p.Packet.ttl
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_no_route () =
  let env = make_env () in
  let p = Packet.make ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 999 1) ~flow:1 () in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Drop { reason = Engine.No_route; _ } -> ()
  | _ -> Alcotest.fail "expected no-route drop"

let test_engine_ttl_expiry () =
  let env = make_env () in
  let p = mk_packet ~ttl:1 () in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Drop { reason = Engine.Ttl_expired; _ } -> ()
  | _ -> Alcotest.fail "expected ttl drop"

let test_engine_deflects_when_daemon_ramped () =
  let env = make_env ~deflect_buckets:Fib.buckets () in
  match Engine.forward env ~ingress:(Some 2) (packet ()) with
  | Engine.Send { port; packet = p; _ } ->
    Alcotest.(check int) "alternative port" 1 port;
    Alcotest.(check bool) "tag carried" true p.Packet.vf_tag
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_tag_check_blocks_peer_to_peer () =
  (* upstream is a peer (tag 0), alternative egress is a peer: the
     Fig. 2(a) situation - the alternative may not be used; a locally
     hash-deflected packet falls back to the (loop-free) default. *)
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~upstream_kind:(Engine.Ebgp { neighbor_as = 8; rel = Relationship.Peer })
      ()
  in
  (match Engine.forward env ~ingress:(Some 2) (packet ()) with
   | Engine.Send { port; _ } -> Alcotest.(check int) "fell back to default" 0 port
   | Engine.Drop _ -> Alcotest.fail "local deflection must not drop");
  (* with the check disabled (ablation) the packet takes the alternative *)
  match Engine.forward ~tag_check:false env ~ingress:(Some 2) (packet ()) with
  | Engine.Send { port; _ } -> Alcotest.(check int) "forwarded unchecked" 1 port
  | Engine.Drop _ -> Alcotest.fail "unexpected drop without tag check"

let test_engine_tag_check_drops_tunneled_packet () =
  (* the same failing check on a packet tunneled to us by our default
     next hop: returning it would cycle, so Algorithm 1 line 20 drops *)
  let env =
    make_env
      ~upstream_kind:(Engine.Ibgp { peer_router = 55 })
      ~next_hop_router:(fun p -> if p = 0 then Some 55 else None)
      ()
  in
  (* arrives tunneled from router 55 with the tag clear; the alternative
     is an eBGP peer, so the check fails *)
  let p = Packet.encapsulate (packet ()) ~outer_src:55 ~outer_dst:100 in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Drop { reason = Engine.Valley_violation; _ } -> ()
  | _ -> Alcotest.fail "expected valley drop for the tunneled packet"

let test_engine_deflect_to_customer_always_ok () =
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~upstream_kind:(Engine.Ebgp { neighbor_as = 8; rel = Relationship.Provider })
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer })
      ()
  in
  match Engine.forward env ~ingress:(Some 2) (packet ()) with
  | Engine.Send { port; _ } -> Alcotest.(check int) "customer egress ok" 1 port
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_encapsulates_to_ibgp () =
  let env =
    make_env ~deflect_buckets:Fib.buckets ~alt_kind:(Engine.Ibgp { peer_router = 55 }) ()
  in
  (match Engine.forward env ~ingress:(Some 2) (packet ()) with
   | Engine.Send { port; packet = p; _ } ->
     Alcotest.(check int) "ibgp port" 1 port;
     (match p.Packet.encap with
      | Some e ->
        Alcotest.(check int) "outer src" 100 e.Packet.outer_src;
        Alcotest.(check int) "outer dst" 55 e.Packet.outer_dst
      | None -> Alcotest.fail "not encapsulated")
   | Engine.Drop _ -> Alcotest.fail "dropped");
  (* ablation: without IP-in-IP the packet is sent raw *)
  match Engine.forward ~ibgp_encap:false env ~ingress:(Some 2) (packet ()) with
  | Engine.Send { packet = p; _ } ->
    Alcotest.(check bool) "raw" true (p.Packet.encap = None)
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_receives_deflected_packet () =
  (* this router's default next hop is router 55; the arriving packet was
     tunneled here BY router 55, so sending it back would cycle: the
     engine must use the alternative instead (Section III-B). *)
  let env =
    make_env
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer })
      ~upstream_kind:(Engine.Ibgp { peer_router = 55 })
      ~next_hop_router:(fun p -> if p = 0 then Some 55 else None)
      ()
  in
  let p = Packet.encapsulate (Packet.with_tag (packet ()) true) ~outer_src:55 ~outer_dst:100 in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Send { port; packet = p'; _ } ->
    Alcotest.(check int) "took the alternative" 1 port;
    Alcotest.(check bool) "outer header stripped" true (p'.Packet.encap = None)
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_foreign_tunnel_passthrough () =
  (* a tunnel addressed to ANOTHER router is forwarded as-is *)
  let env = make_env () in
  let p = Packet.encapsulate (packet ()) ~outer_src:55 ~outer_dst:77 in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Send { packet = p'; _ } ->
    Alcotest.(check bool) "still encapsulated" true (p'.Packet.encap <> None)
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_transit_tunnel () =
  (* Regression (tunnel-transit bug): a tunnel addressed to another
     router crosses this one in transit.  It must be routed on its OUTER
     header toward the endpoint — not looked up by inner destination and
     hash-deflected out the eBGP alternative, which would carry it out
     of the AS still encapsulated. *)
  let transit0 = Obs.counter_value "engine.transit.routed" in
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer })
      ~route_to_peer:(fun r -> if r = 77 then Some 5 else None)
      ()
  in
  let p = Packet.encapsulate (packet ()) ~outer_src:55 ~outer_dst:77 in
  (match Engine.forward env ~ingress:(Some 2) p with
   | Engine.Send { port; packet = p'; _ } ->
     Alcotest.(check int) "routed toward the tunnel endpoint" 5 port;
     Alcotest.(check bool) "still encapsulated" true (p'.Packet.encap <> None)
   | Engine.Drop _ -> Alcotest.fail "dropped");
  Alcotest.(check int) "transit counted" (transit0 + 1)
    (Obs.counter_value "engine.transit.routed")

let test_engine_transit_never_deflected () =
  (* Same in-transit tunnel but no iBGP route to the endpoint: the
     packet falls back to the default port for its inner destination.
     Even with every hash bucket deflecting, it must NOT take the eBGP
     alternative. *)
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer })
      ()
  in
  let p = Packet.encapsulate (packet ()) ~outer_src:55 ~outer_dst:77 in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Send { port; packet = p'; _ } ->
    Alcotest.(check int) "default port, never the eBGP alternative" 0 port;
    Alcotest.(check bool) "still encapsulated" true (p'.Packet.encap <> None)
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_drop_counters () =
  let v0 = Obs.counter_value "engine.drop.valley_violation" in
  let t0 = Obs.counter_value "engine.drop.ttl_expired" in
  let n0 = Obs.counter_value "engine.drop.no_route" in
  (* valley drop: tunneled to us by our default next hop, failing check *)
  let env =
    make_env
      ~upstream_kind:(Engine.Ibgp { peer_router = 55 })
      ~next_hop_router:(fun p -> if p = 0 then Some 55 else None)
      ()
  in
  let p = Packet.encapsulate (packet ()) ~outer_src:55 ~outer_dst:100 in
  (match Engine.forward env ~ingress:(Some 2) p with
   | Engine.Drop { reason = Engine.Valley_violation; _ } -> ()
   | _ -> Alcotest.fail "expected valley drop");
  (match Engine.forward (make_env ()) ~ingress:(Some 2) (mk_packet ~ttl:1 ()) with
   | Engine.Drop { reason = Engine.Ttl_expired; _ } -> ()
   | _ -> Alcotest.fail "expected ttl drop");
  let stray =
    Packet.make ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 999 1) ~flow:1 ()
  in
  (match Engine.forward (make_env ()) ~ingress:(Some 2) stray with
   | Engine.Drop { reason = Engine.No_route; _ } -> ()
   | _ -> Alcotest.fail "expected no-route drop");
  Alcotest.(check int) "valley drop counted" (v0 + 1)
    (Obs.counter_value "engine.drop.valley_violation");
  Alcotest.(check int) "ttl drop counted" (t0 + 1)
    (Obs.counter_value "engine.drop.ttl_expired");
  Alcotest.(check int) "no-route drop counted" (n0 + 1)
    (Obs.counter_value "engine.drop.no_route")

let test_engine_deflection_counters () =
  let ibgp0 = Obs.counter_value "engine.deflect.ibgp" in
  let encap0 = Obs.counter_value "engine.encap" in
  let ebgp0 = Obs.counter_value "engine.deflect.ebgp" in
  let fb0 = Obs.counter_value "engine.tag_check.fallback" in
  let env =
    make_env ~deflect_buckets:Fib.buckets ~alt_kind:(Engine.Ibgp { peer_router = 55 }) ()
  in
  (match Engine.forward env ~ingress:(Some 2) (packet ()) with
   | Engine.Send { port = 1; _ } -> ()
   | _ -> Alcotest.fail "expected an iBGP deflection");
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer })
      ()
  in
  (match Engine.forward env ~ingress:(Some 2) (packet ()) with
   | Engine.Send { port = 1; _ } -> ()
   | _ -> Alcotest.fail "expected an eBGP deflection");
  (* failing tag-check on a local deflection: counted as a fallback *)
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~upstream_kind:(Engine.Ebgp { neighbor_as = 8; rel = Relationship.Peer })
      ()
  in
  (match Engine.forward env ~ingress:(Some 2) (packet ()) with
   | Engine.Send { port = 0; _ } -> ()
   | _ -> Alcotest.fail "expected the default-port fallback");
  Alcotest.(check int) "ibgp deflection counted" (ibgp0 + 1)
    (Obs.counter_value "engine.deflect.ibgp");
  Alcotest.(check int) "encapsulation counted" (encap0 + 1)
    (Obs.counter_value "engine.encap");
  Alcotest.(check int) "ebgp deflection counted" (ebgp0 + 1)
    (Obs.counter_value "engine.deflect.ebgp");
  Alcotest.(check int) "tag-check fallback counted" (fb0 + 1)
    (Obs.counter_value "engine.tag_check.fallback")

let test_engine_congestion_deflects_first_bucket () =
  (* instantaneous congestion deflects at least hash bucket 0 before the
     daemon ramps *)
  let env = make_env ~congested:(fun p -> p = 0)
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer }) () in
  (* find a flow id hashing to bucket 0 *)
  let flow = ref 0 in
  while Fib.flow_bucket !flow <> 0 do
    incr flow
  done;
  let p = Packet.make ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 2 1) ~flow:!flow () in
  match Engine.forward env ~ingress:(Some 2) p with
  | Engine.Send { port; _ } -> Alcotest.(check int) "deflected" 1 port
  | Engine.Drop _ -> Alcotest.fail "dropped"

let test_engine_k2_spreads_buckets () =
  (* ranked pair [1; 4]: each deflected flow picks its slot by
     flow_bucket mod 2 — deterministic per flow, and both alternatives
     carry traffic across the flow population *)
  let env =
    make_env ~deflect_buckets:Fib.buckets
      ~alt_kind:(Engine.Ebgp { neighbor_as = 9; rel = Relationship.Customer })
      ()
  in
  let entry = Option.get (Fib.find env.Engine.fib (Prefix.of_as 2)) in
  Fib.set_alts entry [ 1; 4 ];
  let seen_slot0 = ref 0 and seen_slot1 = ref 0 in
  for flow = 0 to 40 do
    let expected = if Fib.flow_bucket flow mod 2 = 0 then 1 else 4 in
    let p = Packet.make ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 2 1) ~flow () in
    match Engine.forward env ~ingress:(Some 2) p with
    | Engine.Send { port; _ } ->
      Alcotest.(check int) "slot chosen by flow bucket" expected port;
      if port = 1 then incr seen_slot0 else incr seen_slot1
    | Engine.Drop _ -> Alcotest.fail "dropped"
  done;
  Alcotest.(check bool) "both ranked slots used" true (!seen_slot0 > 0 && !seen_slot1 > 0)

let test_engine_local_delivery () =
  let fib = Fib.create () in
  Fib.insert fib (Prefix.of_as 2) ~out_port:3 ();
  let env =
    {
      Engine.router_id = 1;
      fib;
      port_kind = (fun _ -> Engine.Local);
      is_congested = (fun _ -> false);
      next_hop_router = (fun _ -> None);
      route_to_peer = (fun _ -> None);
    }
  in
  match Engine.forward env ~ingress:None (packet ()) with
  | Engine.Send { port; packet = p; _ } ->
    Alcotest.(check int) "host port" 3 port;
    Alcotest.(check bool) "source tag" true p.Packet.vf_tag
  | Engine.Drop _ -> Alcotest.fail "dropped"

(* Property: over random engine environments and packets, the engine
   preserves its structural invariants - TTL decremented exactly once,
   encapsulation only toward iBGP ports, valley violations only when the
   tag-check actually fails, and the output port always one of the FIB
   entry's two ports. *)
let engine_env_gen =
  QCheck2.Gen.(
    let rel = oneofl [ Relationship.Customer; Relationship.Peer; Relationship.Provider ] in
    let kind =
      oneof
        [
          map (fun r -> Engine.Ebgp { neighbor_as = 9; rel = r }) rel;
          return (Engine.Ibgp { peer_router = 55 });
        ]
    in
    let* alt_kind = kind in
    let* upstream_rel = rel in
    let* congested = bool in
    let* buckets = int_bound Fib.buckets in
    let* has_alt = bool in
    let* flow = int_bound 10_000 in
    let* tagged_encap = bool in
    return (alt_kind, upstream_rel, congested, buckets, has_alt, flow, tagged_encap))

let prop_engine_invariants =
  QCheck2.Test.make ~name:"engine structural invariants" ~count:500 engine_env_gen
    (fun (alt_kind, upstream_rel, congested, buckets, has_alt, flow, encapped) ->
      let env =
        make_env ~alt_kind
          ~upstream_kind:(Engine.Ebgp { neighbor_as = 8; rel = upstream_rel })
          ~congested:(fun p -> congested && p = 0)
          ~deflect_buckets:buckets
          ~alt:(if has_alt then Some 1 else None)
          ~next_hop_router:(fun _ -> None)
          ()
      in
      let base =
        Packet.make ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 2 1) ~flow ()
      in
      let p = if encapped then Packet.encapsulate base ~outer_src:7 ~outer_dst:99 else base in
      match Engine.forward env ~ingress:(Some 2) p with
      | Engine.Send { port; packet = p'; _ } ->
        (* TTL decremented exactly once *)
        p'.Packet.ttl = p.Packet.ttl - 1
        (* output is one of the FIB ports *)
        && (port = 0 || (has_alt && port = 1))
        (* new encapsulation only toward iBGP ports *)
        && (match (p'.Packet.encap, p.Packet.encap) with
            | Some _, Some _ -> true (* a foreign tunnel passing through *)
            | Some _, None -> port = 1 && alt_kind = Engine.Ibgp { peer_router = 55 }
            | None, Some _ -> false (* never decapsulated: not addressed to us *)
            | None, None -> true)
        (* the tag always reflects the upstream relationship *)
        && p'.Packet.vf_tag = Policy.tag_of_upstream upstream_rel
      | Engine.Drop { reason = Engine.Ttl_expired; _ } -> false
      | Engine.Drop { reason = Engine.No_route; _ } -> false
      | Engine.Drop { reason = Engine.Valley_violation; _ } ->
        (* only possible when tunneled to us - which never happens here
           (outer_dst is 99, not this router) *)
        false)

(* Acceptance gate (k=1 bit-identity): an entry whose ranked set is the
   singleton [a] must forward every packet exactly like the historical
   single-alternative entry configured through set_alt_port. *)
let prop_engine_k1_matches_single_alt =
  QCheck2.Test.make ~name:"engine: singleton ranked set = single-alt shim" ~count:300
    engine_env_gen
    (fun (alt_kind, upstream_rel, congested, buckets, has_alt, flow, encapped) ->
      let mk ~ranked =
        let env =
          make_env ~alt_kind
            ~upstream_kind:(Engine.Ebgp { neighbor_as = 8; rel = upstream_rel })
            ~congested:(fun p -> congested && p = 0)
            ~deflect_buckets:buckets
            ~alt:(if has_alt && not ranked then Some 1 else None)
            ()
        in
        if has_alt && ranked then
          Fib.set_alts (Option.get (Fib.find env.Engine.fib (Prefix.of_as 2))) [ 1 ];
        env
      in
      let base =
        Packet.make ~src:(Prefix.host_of_as 1 1) ~dst:(Prefix.host_of_as 2 1) ~flow ()
      in
      let p = if encapped then Packet.encapsulate base ~outer_src:7 ~outer_dst:99 else base in
      Engine.forward (mk ~ranked:false) ~ingress:(Some 2) p
      = Engine.forward (mk ~ranked:true) ~ingress:(Some 2) p
      && Engine.forward ~tag_check:false (mk ~ranked:false) ~ingress:(Some 2) p
         = Engine.forward ~tag_check:false (mk ~ranked:true) ~ingress:(Some 2) p)

(* ---------- Daemon ---------- *)

let daemon_fib () =
  let fib = Fib.create () in
  Fib.insert fib (Prefix.of_as 2) ~out_port:0 ~alt_port:1 ();
  (fib, fun () -> Fib.deflect_buckets (Option.get (Fib.find fib (Prefix.of_as 2))))

let run_epoch fib ~out_util ~alt_util =
  Daemon.epoch ~fib
    ~port_utilization:(fun p -> if p = 0 then out_util else alt_util)
    ~choose_alt:(fun _ e -> Fib.alt_port e)
    ()

let test_daemon_ramps_up () =
  let fib, buckets = daemon_fib () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Alcotest.(check int) "ramped" Daemon.default_config.Daemon.ramp_up (buckets ());
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Alcotest.(check int) "ramped again" (2 * Daemon.default_config.Daemon.ramp_up) (buckets ())

let test_daemon_holds_when_alt_full () =
  let fib, buckets = daemon_fib () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  let level = buckets () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.95;
  Alcotest.(check int) "held" level (buckets ())

let test_daemon_ramps_down () =
  let fib, buckets = daemon_fib () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  let level = buckets () in
  run_epoch fib ~out_util:0.3 ~alt_util:0.3;
  Alcotest.(check int) "down" (level - Daemon.default_config.Daemon.ramp_down) (buckets ())

let test_daemon_hysteresis_band () =
  let fib, buckets = daemon_fib () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  let level = buckets () in
  (* between clear and congest thresholds: no change *)
  run_epoch fib ~out_util:0.75 ~alt_util:0.0;
  Alcotest.(check int) "unchanged in the band" level (buckets ())

let test_daemon_clears_without_alt () =
  let fib, buckets = daemon_fib () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Daemon.epoch ~fib
    ~port_utilization:(fun _ -> 0.99)
    ~choose_alt:(fun _ _ -> None)
    ();
  Alcotest.(check int) "no alt, no deflection" 0 (buckets ())

let test_daemon_is_congested () =
  Alcotest.(check bool) "above" true (Daemon.is_congested 0.95);
  Alcotest.(check bool) "below" false (Daemon.is_congested 0.5)

let test_daemon_alt_change_resets_buckets () =
  (* Regression (deflection-state bug): when the daemon switches the
     alternative mid-congestion, the accumulated split belonged to the
     OLD alternative; the cold one must restart the ramp from zero. *)
  let fib, buckets = daemon_fib () in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Alcotest.(check int) "ramped against the old alternative"
    (2 * Daemon.default_config.Daemon.ramp_up)
    (buckets ());
  let changes0 = Obs.counter_value "daemon.alt_changed" in
  let resets0 = Obs.counter_value "daemon.buckets_reset" in
  Daemon.epoch ~fib
    ~port_utilization:(fun p -> if p = 0 then 0.99 else 0.0)
    ~choose_alt:(fun _ _ -> Some 2)
    ();
  (* reset to zero on the switch, then the same epoch starts the fresh
     ramp: pre-fix the new alternative inherited 2*ramp_up + ramp_up *)
  Alcotest.(check int) "cold alternative restarts the ramp"
    Daemon.default_config.Daemon.ramp_up (buckets ());
  Alcotest.(check (option int)) "alternative switched" (Some 2)
    (Fib.alt_port (Option.get (Fib.find fib (Prefix.of_as 2))));
  Alcotest.(check int) "switch counted" (changes0 + 1)
    (Obs.counter_value "daemon.alt_changed");
  Alcotest.(check int) "reset counted" (resets0 + 1)
    (Obs.counter_value "daemon.buckets_reset");
  (* keeping the same alternative is NOT a switch: no reset *)
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Alcotest.(check int) "stable alternative keeps ramping"
    (2 * Daemon.default_config.Daemon.ramp_up)
    (buckets ())

let test_daemon_clamps_at_edges () =
  (* Regression (clamp bug): the level is pinned to [0, Fib.buckets] and
     the ramp counters account only buckets actually shifted. *)
  let fib, buckets = daemon_fib () in
  let entry = Option.get (Fib.find fib (Prefix.of_as 2)) in
  Fib.set_deflect_buckets entry (Fib.buckets - 1);
  let up0 = Obs.counter_value "daemon.ramp_up_buckets" in
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Alcotest.(check int) "clamped at Fib.buckets" Fib.buckets (buckets ());
  Alcotest.(check int) "only the shifted bucket counted" (up0 + 1)
    (Obs.counter_value "daemon.ramp_up_buckets");
  run_epoch fib ~out_util:0.99 ~alt_util:0.0;
  Alcotest.(check int) "held at the ceiling" Fib.buckets (buckets ());
  Alcotest.(check int) "no spurious ramp-up at the ceiling" (up0 + 1)
    (Obs.counter_value "daemon.ramp_up_buckets");
  Fib.set_deflect_buckets entry 0;
  let down0 = Obs.counter_value "daemon.ramp_down_buckets" in
  run_epoch fib ~out_util:0.3 ~alt_util:0.0;
  Alcotest.(check int) "floor is zero" 0 (buckets ());
  Alcotest.(check int) "ramp_down at zero emits no count" down0
    (Obs.counter_value "daemon.ramp_down_buckets")

let run_epoch_ranked fib ~out_util ~alts =
  Daemon.epoch_ranked ~fib
    ~port_utilization:(fun p -> if p = 0 then out_util else 0.0)
    ~choose_alts:(fun _ _ -> alts)
    ()

let test_daemon_ranked_rotation () =
  (* Per-set ramp state: a withdrawn slot drops out without resetting the
     survivors' ramp; only a wholly fresh (disjoint) set restarts cold. *)
  let fib, buckets = daemon_fib () in
  let entry = Option.get (Fib.find fib (Prefix.of_as 2)) in
  run_epoch_ranked fib ~out_util:0.99 ~alts:[ 1; 2 ];
  run_epoch_ranked fib ~out_util:0.99 ~alts:[ 1; 2 ];
  let up = 2 * Daemon.default_config.Daemon.ramp_up in
  Alcotest.(check int) "ramped against {1,2}" up (buckets ());
  let rot0 = Obs.counter_value "daemon.slots_rotated" in
  let reset0 = Obs.counter_value "daemon.buckets_reset" in
  (* slot 1 withdrawn, slot 2 survives, fresh slot 3 joins *)
  run_epoch_ranked fib ~out_util:0.99 ~alts:[ 2; 3 ];
  Alcotest.(check int) "survivor holds the ramp (and keeps climbing)"
    (up + Daemon.default_config.Daemon.ramp_up)
    (buckets ());
  Alcotest.(check int) "rotation counted" (rot0 + 1)
    (Obs.counter_value "daemon.slots_rotated");
  Alcotest.(check int) "no reset on a partial rotation" reset0
    (Obs.counter_value "daemon.buckets_reset");
  Alcotest.(check (list int)) "rotated set installed" [ 2; 3; -1; -1 ]
    (List.init Fib.max_alts (Fib.alt_at entry));
  (* a disjoint set is cold: reset, then the same epoch's fresh ramp *)
  run_epoch_ranked fib ~out_util:0.99 ~alts:[ 4; 5 ];
  Alcotest.(check int) "disjoint set restarts the ramp"
    Daemon.default_config.Daemon.ramp_up (buckets ());
  Alcotest.(check int) "reset counted" (reset0 + 1)
    (Obs.counter_value "daemon.buckets_reset")

(* ---------- Alt_select ---------- *)

(* [permitted] and [best_alternative] are the flow simulator's reference
   selectors, kept in [Flowsim_oracle]; the production chooser is pinned
   against them by the flowsim tests in [test_netsim]. *)

let gadget_rt = lazy (let g = Generator.fig2a_gadget () in (g, Routing.compute g 0))

let test_alt_select_permitted () =
  let _, rt = Lazy.force gadget_rt in
  (* at AS 1, traffic from a peer may not be deflected to the peer routes *)
  let from_peer = Flowsim_oracle.permitted rt ~src_as:1 ~upstream:(Some Relationship.Peer) in
  Alcotest.(check int) "no peer-to-peer alternates" 0 (List.length from_peer);
  let local = Flowsim_oracle.permitted rt ~src_as:1 ~upstream:None in
  Alcotest.(check int) "source may use both" 2 (List.length local)

let test_alt_select_best () =
  let _, rt = Lazy.force gadget_rt in
  let spare nb = if nb = 3 then 100. else 10. in
  (match Flowsim_oracle.best_alternative rt ~src_as:1 ~upstream:None ~spare with
   | Some e -> Alcotest.(check int) "largest spare wins" 3 e.Routing.via
   | None -> Alcotest.fail "no alternative");
  (* ties break to the lower AS id *)
  (match Flowsim_oracle.best_alternative rt ~src_as:1 ~upstream:None ~spare:(fun _ -> 5.) with
   | Some e -> Alcotest.(check int) "tie to lower id" 2 e.Routing.via
   | None -> Alcotest.fail "no alternative");
  (* no positive spare -> nothing *)
  Alcotest.(check bool) "all full -> none" true
    (Flowsim_oracle.best_alternative rt ~src_as:1 ~upstream:None ~spare:(fun _ -> 0.) = None)

let test_alt_select_ranked () =
  let _, rt = Lazy.force gadget_rt in
  let vias l = List.map (fun (e : Routing.rib_entry) -> e.Routing.via) l in
  let spare nb = if nb = 3 then 100. else 10. in
  Alcotest.(check (list int)) "most spare first" [ 3; 2 ]
    (vias (Alt_select.ranked_alternatives rt ~src_as:1 ~upstream:None ~spare ~k:4));
  (* the pool is capped at k BEFORE ranking, in RIB preference order, so
     the runtime set stays inside what the k-limited verifier admits *)
  Alcotest.(check (list int)) "k=1 pool is the first RIB alternative" [ 2 ]
    (vias (Alt_select.ranked_alternatives rt ~src_as:1 ~upstream:None ~spare ~k:1));
  Alcotest.(check (list int)) "ties rank by lower AS id" [ 2; 3 ]
    (vias
       (Alt_select.ranked_alternatives rt ~src_as:1 ~upstream:None
          ~spare:(fun _ -> 5.)
          ~k:4));
  Alcotest.(check (list int)) "saturated alternatives drop out" [ 3 ]
    (vias
       (Alt_select.ranked_alternatives rt ~src_as:1 ~upstream:None
          ~spare:(fun nb -> if nb = 3 then 1. else 0.)
          ~k:4));
  Alcotest.(check (list int)) "peer upstream may not deflect to peers" []
    (vias
       (Alt_select.ranked_alternatives rt ~src_as:1
          ~upstream:(Some Relationship.Peer) ~spare ~k:4))

(* ---------- Loop_walk: the theorem ---------- *)

let test_walk_no_congestion_delivers () =
  let g, rt = Lazy.force gadget_rt in
  let decide ~as_id:_ ~upstream:_ ~entries:_ = Loop_walk.Default in
  match Loop_walk.walk g rt ~decide ~src:2 with
  | Loop_walk.Delivered path -> Alcotest.(check (list int)) "direct" [ 2; 0 ] path
  | _ -> Alcotest.fail "not delivered"

let test_walk_gadget_loops_without_check () =
  let g, rt = Lazy.force gadget_rt in
  let strategy =
    Loop_walk.congestion_strategy ~congested:(fun _ _ -> true) ~spare:(fun _ _ -> 1.)
  in
  (match Loop_walk.walk ~tag_check:false g rt ~decide:strategy ~src:1 with
   | Loop_walk.Looped _ -> ()
   | _ -> Alcotest.fail "expected a loop without the check");
  match Loop_walk.walk ~tag_check:true g rt ~decide:strategy ~src:1 with
  | Loop_walk.Dropped { reason = Loop_walk.Valley; _ } -> ()
  | _ -> Alcotest.fail "expected a valley drop with the check"

let test_walk_rejects_unknown_neighbor () =
  let g, rt = Lazy.force gadget_rt in
  let decide ~as_id:_ ~upstream:_ ~entries:_ = Loop_walk.Deflect 99 in
  match Loop_walk.walk g rt ~decide ~src:1 with
  | Loop_walk.Dropped { reason = Loop_walk.No_route; _ } -> ()
  | _ -> Alcotest.fail "expected no-route drop"

(* The theorem (Section III-A3): with the valley-free rule on the data
   plane, NO deflection strategy can loop a packet.  We drive the walker
   with an adversarial pseudo-random strategy over a generated topology
   and check every outcome is Delivered or Dropped. *)
let prop_theorem_no_loops =
  let topo =
    lazy
      (Generator.generate
         ~params:{ Generator.default_params with Generator.ases = 300; tier1 = 5;
                   content_providers = 3; content_peer_span = (3, 9) }
         ~seed:77 ())
  in
  QCheck2.Test.make ~name:"theorem: tag-check makes any deflection strategy loop-free"
    ~count:150
    QCheck2.Gen.(triple (int_bound 299) (int_bound 299) (int_bound 1_000_000))
    (fun (src, dst, salt) ->
      QCheck2.assume (src <> dst);
      let t = Lazy.force topo in
      let g = t.Generator.graph in
      let rt = Routing.compute g dst in
      (* adversarial strategy: pseudo-randomly deflect to ANY RIB entry *)
      let decide ~as_id ~upstream:_ ~entries =
        let h = Hashtbl.hash (as_id, salt) in
        match entries with
        | [] -> Loop_walk.Default
        | entries ->
          let k = h mod (List.length entries + 1) in
          if k = 0 then Loop_walk.Default
          else Loop_walk.Deflect (List.nth entries (k - 1)).Routing.via
      in
      match Loop_walk.walk ~tag_check:true g rt ~decide ~src with
      | Loop_walk.Delivered path ->
        As_graph.path_is_valley_free g path
      | Loop_walk.Dropped _ -> true
      | Loop_walk.Looped _ -> false)

let () =
  Alcotest.run "mifo_core"
    [
      ( "deployment",
        [
          Alcotest.test_case "full/none" `Quick test_deployment_full_none;
          Alcotest.test_case "fraction" `Quick test_deployment_fraction;
          Alcotest.test_case "of_list" `Quick test_deployment_of_list;
          Alcotest.test_case "ratio clamping" `Quick test_deployment_clamps_ratio;
        ] );
      ("policy", [ Alcotest.test_case "tag and check tables" `Quick test_policy ]);
      ( "packet",
        [
          Alcotest.test_case "encap/decap" `Quick test_packet_encap;
          Alcotest.test_case "ttl" `Quick test_packet_ttl;
        ] );
      ( "fib",
        [
          Alcotest.test_case "longest prefix match" `Quick test_fib_lpm;
          Alcotest.test_case "set_alt" `Quick test_fib_set_alt;
          Alcotest.test_case "flow buckets" `Quick test_fib_buckets;
          Alcotest.test_case "re-insert preserves deflection state" `Quick
            test_fib_reinsert_preserves_deflection;
          Alcotest.test_case "may_deflect tracks live alternatives" `Quick
            test_fib_may_deflect_clears;
          Alcotest.test_case "ranked alternative slots" `Quick test_fib_ranked_slots;
          Alcotest.test_case "deflects" `Quick test_fib_deflects;
          Alcotest.test_case "lazy levels stay isolated" `Quick
            test_fib_lazy_levels_isolated;
          Alcotest.test_case "MIFO_K_ALT parsing" `Quick test_fib_default_k_env;
          Alcotest.test_case "O(1) size + fib.entries gauge" `Quick
            test_fib_size_and_gauge;
          QCheck_alcotest.to_alcotest prop_fib_flat_matches_hashed;
        ] );
      ( "engine",
        [
          Alcotest.test_case "default forwarding + tagging" `Quick test_engine_default_forward;
          Alcotest.test_case "no route" `Quick test_engine_no_route;
          Alcotest.test_case "ttl expiry" `Quick test_engine_ttl_expiry;
          Alcotest.test_case "daemon-ramped deflection" `Quick
            test_engine_deflects_when_daemon_ramped;
          Alcotest.test_case "tag-check blocks peer-to-peer" `Quick
            test_engine_tag_check_blocks_peer_to_peer;
          Alcotest.test_case "tag-check drops tunneled packets" `Quick
            test_engine_tag_check_drops_tunneled_packet;
          Alcotest.test_case "deflect to customer always ok" `Quick
            test_engine_deflect_to_customer_always_ok;
          Alcotest.test_case "IP-in-IP to iBGP peer" `Quick test_engine_encapsulates_to_ibgp;
          Alcotest.test_case "deflected packet uses alternative" `Quick
            test_engine_receives_deflected_packet;
          Alcotest.test_case "foreign tunnel passthrough" `Quick
            test_engine_foreign_tunnel_passthrough;
          Alcotest.test_case "in-transit tunnel routed on outer header" `Quick
            test_engine_transit_tunnel;
          Alcotest.test_case "in-transit tunnel never deflected" `Quick
            test_engine_transit_never_deflected;
          Alcotest.test_case "drop-reason counters" `Quick test_engine_drop_counters;
          Alcotest.test_case "deflection counters" `Quick test_engine_deflection_counters;
          Alcotest.test_case "instant congestion deflects bucket 0" `Quick
            test_engine_congestion_deflects_first_bucket;
          Alcotest.test_case "k=2 ECMP spread across ranked slots" `Quick
            test_engine_k2_spreads_buckets;
          Alcotest.test_case "local delivery" `Quick test_engine_local_delivery;
          QCheck_alcotest.to_alcotest prop_engine_invariants;
          QCheck_alcotest.to_alcotest prop_engine_k1_matches_single_alt;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "ramps up under congestion" `Quick test_daemon_ramps_up;
          Alcotest.test_case "holds when alternative is full" `Quick
            test_daemon_holds_when_alt_full;
          Alcotest.test_case "ramps down when drained" `Quick test_daemon_ramps_down;
          Alcotest.test_case "hysteresis band" `Quick test_daemon_hysteresis_band;
          Alcotest.test_case "no alternative, no deflection" `Quick
            test_daemon_clears_without_alt;
          Alcotest.test_case "congestion predicate" `Quick test_daemon_is_congested;
          Alcotest.test_case "alt change resets the ramp" `Quick
            test_daemon_alt_change_resets_buckets;
          Alcotest.test_case "level clamps at both edges" `Quick
            test_daemon_clamps_at_edges;
          Alcotest.test_case "ranked rotation holds, disjoint resets" `Quick
            test_daemon_ranked_rotation;
        ] );
      ( "alt_select",
        [
          Alcotest.test_case "valley filter" `Quick test_alt_select_permitted;
          Alcotest.test_case "greedy best + tie-break" `Quick test_alt_select_best;
          Alcotest.test_case "ranked candidate list" `Quick test_alt_select_ranked;
        ] );
      ( "loop_walk",
        [
          Alcotest.test_case "delivers without congestion" `Quick
            test_walk_no_congestion_delivers;
          Alcotest.test_case "fig2a: loop without check, drop with" `Quick
            test_walk_gadget_loops_without_check;
          Alcotest.test_case "rejects unknown neighbor" `Quick test_walk_rejects_unknown_neighbor;
          QCheck_alcotest.to_alcotest prop_theorem_no_loops;
        ] );
    ]
