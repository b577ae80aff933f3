(* Unit and property tests for Mifo_util. *)

module Prng = Mifo_util.Prng
module Parallel = Mifo_util.Parallel
module Stats = Mifo_util.Stats
module Dist = Mifo_util.Dist
module Heap = Mifo_oracle.Heap
module Wheel = Mifo_util.Wheel
module Union_find = Mifo_util.Union_find
module Vec = Mifo_util.Vec
module Table = Mifo_util.Table
module Obs = Mifo_util.Obs

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 () and b = Prng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  Alcotest.(check bool) "different streams" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_int_range () =
  let rng = Prng.create ~seed:7 () in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in_range () =
  let rng = Prng.create ~seed:8 () in
  for _ = 1 to 1_000 do
    let v = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_prng_int_covers () =
  let rng = Prng.create ~seed:9 () in
  let seen = Array.make 6 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let rng = Prng.create ~seed:10 () in
  for _ = 1 to 10_000 do
    let v = Prng.float rng 3.5 in
    Alcotest.(check bool) "in [0, 3.5)" true (v >= 0. && v < 3.5)
  done

let test_prng_bad_args () =
  let rng = Prng.create ~seed:1 () in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng 3 2))

let test_prng_split_independent () =
  let a = Prng.create ~seed:5 () in
  let b = Prng.split a in
  Alcotest.(check bool) "streams differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:11 () in
  let stats = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add stats (Prng.exponential rng ~mean:2.0)
  done;
  Alcotest.(check bool) "mean close to 2" true (abs_float (Stats.mean stats -. 2.0) < 0.05)

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:12 () in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:13 () in
  let s = Prng.sample_without_replacement rng 10 50 in
  Alcotest.(check int) "k elements" 10 (Array.length s);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in range" true (v >= 0 && v < 50);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.add tbl v ())
    s

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.mean s);
  Alcotest.(check bool) "variance" true (abs_float (Stats.variance s -. 4.571428571) < 1e-6);
  check_float "min" 2. (Stats.min s);
  check_float "max" 9. (Stats.max s);
  check_float "total" 40. (Stats.total s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0. (Stats.mean s);
  check_float "variance of empty" 0. (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  let xs = [ 1.; 2.; 3. ] and ys = [ 10.; 20.; 30.; 40. ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add all) (xs @ ys);
  let m = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count all) (Stats.count m);
  Alcotest.(check bool) "mean" true (abs_float (Stats.mean all -. Stats.mean m) < 1e-9);
  Alcotest.(check bool) "variance" true
    (abs_float (Stats.variance all -. Stats.variance m) < 1e-9)

(* ---------- Dist ---------- *)

let test_cdf_basic () =
  let c = Dist.cdf_of_samples [| 1.; 2.; 3.; 4. |] in
  check_float "P(X<=0)" 0. (Dist.cdf_at c 0.);
  check_float "P(X<=2)" 0.5 (Dist.cdf_at c 2.);
  check_float "P(X<=4)" 1. (Dist.cdf_at c 4.);
  check_float "P(X>=3)" 0.5 (Dist.fraction_at_least c 3.);
  check_float "P(X>=1)" 1. (Dist.fraction_at_least c 1.);
  check_float "P(X>=5)" 0. (Dist.fraction_at_least c 5.)

let test_percentile () =
  let c = Dist.cdf_of_samples (Array.init 100 (fun i -> float_of_int (i + 1))) in
  check_float "median" 50. (Dist.percentile c 50.);
  check_float "p100" 100. (Dist.percentile c 100.);
  check_float "p1" 1. (Dist.percentile c 1.)

let test_percentile_empty () =
  let c = Dist.cdf_of_samples [||] in
  Alcotest.check_raises "empty" (Invalid_argument "Dist.percentile: empty sample")
    (fun () -> ignore (Dist.percentile c 50.))

let test_histogram () =
  let h = Dist.histogram ~bins:4 ~lo:0. ~hi:4. [| 0.5; 1.5; 1.6; 2.5; 3.5; 9. |] in
  Alcotest.(check (array int)) "counts (overflow clamped)" [| 1; 2; 1; 2 |]
    (Dist.histogram_counts h);
  let lo, hi = Dist.bin_bounds h 1 in
  check_float "bin lo" 1. lo;
  check_float "bin hi" 2. hi

let test_counts_of_ints () =
  let c = Dist.counts_of_ints ~max_value:3 [| 0; 1; 1; 2; 7; 9 |] in
  Alcotest.(check (array int)) "fold into last" [| 1; 2; 1; 2 |] c

let test_evenly_spaced () =
  let xs = Dist.evenly_spaced ~lo:0. ~hi:10. ~n:5 in
  Alcotest.(check (array (float 1e-9))) "5 points" [| 0.; 2.5; 5.; 7.5; 10. |] xs

(* ---------- Heap ---------- *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 8; 9 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "pop min" 1 (Heap.pop_exn h);
  Alcotest.(check int) "pop next" 2 (Heap.pop_exn h);
  Alcotest.(check int) "length" 4 (Heap.length h)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_of_array () =
  let h = Heap.of_array ~cmp:compare [| 4; 2; 7; 1 |] in
  Alcotest.(check (list int)) "heapify" [ 1; 2; 4; 7 ] (Heap.to_sorted_list h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare () in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

(* ---------- Wheel ---------- *)

let test_wheel_orders () =
  let w = Wheel.create () in
  (* spread over several ticks and several sub-tick offsets *)
  let times = [ 3e-6; 1e-7; 2.5e-6; 1e-7; 9e-6; 0. ] in
  List.iteri (fun i t -> Wheel.schedule w ~time:t ~seq:i i) times;
  Alcotest.(check int) "length" (List.length times) (Wheel.length w);
  let keyed = List.mapi (fun i t -> (t, i)) times in
  let expect = List.sort compare keyed in
  let got =
    List.map (fun _ -> match Wheel.pop w with Some (t, s, _) -> (t, s) | None -> (-1., -1))
      times
  in
  Alcotest.(check (list (pair (float 0.) int))) "(time, seq) order" expect got;
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

let test_wheel_fifo_ties () =
  let w = Wheel.create () in
  for i = 0 to 9 do
    Wheel.schedule w ~time:42e-6 ~seq:i i
  done;
  for i = 0 to 9 do
    match Wheel.pop w with
    | Some (_, s, p) ->
      Alcotest.(check int) "seq order on equal times" i s;
      Alcotest.(check int) "payload follows" i p
    | None -> Alcotest.fail "empty too early"
  done

let test_wheel_far_future () =
  let w = Wheel.create () in
  (* beyond-span times and +inf clamp into the top level but must still
     pop in (time, seq) order after the near-present events *)
  Wheel.schedule w ~time:Float.infinity ~seq:0 "inf";
  Wheel.schedule w ~time:1e9 ~seq:1 "far";
  Wheel.schedule w ~time:1e-6 ~seq:2 "near";
  Wheel.schedule w ~time:Float.infinity ~seq:3 "inf2";
  let got = List.init 4 (fun _ -> match Wheel.pop w with Some (_, _, p) -> p | None -> "") in
  Alcotest.(check (list string)) "outliers ordered" [ "near"; "far"; "inf"; "inf2" ] got;
  Alcotest.check_raises "nan rejected" (Invalid_argument "Wheel.schedule: bad time")
    (fun () -> Wheel.schedule w ~time:Float.nan ~seq:4 "bad")

let test_wheel_clear_reuse () =
  let w = Wheel.create () in
  for i = 0 to 99 do
    Wheel.schedule w ~time:(float_of_int (i * 37 mod 50) *. 1e-6) ~seq:i i
  done;
  for _ = 0 to 49 do ignore (Wheel.pop w) done;
  Wheel.clear w;
  Alcotest.(check int) "cleared" 0 (Wheel.length w);
  Alcotest.(check bool) "empty" true (Wheel.is_empty w);
  let st = Wheel.stats w in
  Alcotest.(check int) "stats reset" 0 (st.Wheel.cascades + st.Wheel.ready);
  (* the current tick rewinds to zero: times before the pre-clear cursor
     are valid again *)
  Wheel.schedule w ~time:1e-6 ~seq:0 111;
  Wheel.schedule w ~time:0. ~seq:1 222;
  (match Wheel.pop w with
   | Some (t, _, p) ->
     check_float "rewound to t=0" 0. t;
     Alcotest.(check int) "min first" 222 p
   | None -> Alcotest.fail "empty after reuse");
  Alcotest.(check (option int)) "then the other"
    (Some 111)
    (match Wheel.pop w with Some (_, _, p) -> Some p | None -> None)

let test_wheel_pop_before_cell () =
  let w = Wheel.create () in
  let cell = [| -1. |] in
  Alcotest.(check (option string)) "empty" None (Wheel.pop_before w ~until:1. ~cell);
  Wheel.schedule w ~time:5e-6 ~seq:0 "a";
  Wheel.schedule w ~time:9e-6 ~seq:1 "b";
  Alcotest.(check (option string)) "beyond horizon" None
    (Wheel.pop_before w ~until:1e-6 ~cell);
  check_float "cell untouched on miss" (-1.) cell.(0);
  Alcotest.(check (option string)) "within horizon" (Some "a")
    (Wheel.pop_before w ~until:6e-6 ~cell);
  check_float "popped time written" 5e-6 cell.(0);
  Alcotest.(check (option string)) "inf horizon" (Some "b")
    (Wheel.pop_before w ~until:Float.infinity ~cell);
  check_float "cell tracks" 9e-6 cell.(0);
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

let test_wheel_precedes () =
  let w = Wheel.create () in
  Alcotest.(check bool) "empty precedes" true (Wheel.precedes w ~time:1e3 ~seq:0);
  Wheel.schedule w ~time:5e-6 ~seq:7 ();
  Alcotest.(check bool) "earlier time" true (Wheel.precedes w ~time:1e-6 ~seq:99);
  Alcotest.(check bool) "same time lower seq" true (Wheel.precedes w ~time:5e-6 ~seq:3);
  Alcotest.(check bool) "same key is not strict" false (Wheel.precedes w ~time:5e-6 ~seq:7);
  Alcotest.(check bool) "later time" false (Wheel.precedes w ~time:6e-6 ~seq:0)

(* The determinism contract, adversarially: random interleavings of
   schedule and pop with duplicate times, sub-tick offsets and
   far-future outliers (including +inf) must pop in exactly the
   (time, seq)-lexicographic order of a sorted-list oracle. *)
let wheel_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun k -> `Schedule (float_of_int k *. 1e-7)) (int_bound 400));
        (1, map (fun k -> `Schedule (float_of_int k *. 10.)) (int_bound 4));
        (1, return (`Schedule Float.infinity));
        (4, return `Pop);
      ])

let prop_wheel_matches_sorted_oracle =
  QCheck2.Test.make ~name:"wheel pops in (time, seq) order vs sorted oracle" ~count:300
    QCheck2.Gen.(list_size (int_range 1 300) wheel_op_gen)
    (fun ops ->
      let w = Wheel.create () in
      let model = ref [] (* ascending (time, seq) *) and seq = ref 0 in
      let insert t s =
        let rec go = function
          | [] -> [ (t, s) ]
          | ((t', s') :: rest) as l ->
            if t' < t || (t' = t && s' < s) then (t', s') :: go rest else (t, s) :: l
        in
        model := go !model
      in
      let agree = ref true in
      let pop_both () =
        match (Wheel.pop w, !model) with
        | None, [] -> ()
        | Some (t, s, p), (t', s') :: rest ->
          if not (Int64.bits_of_float t = Int64.bits_of_float t' && s = s' && p = s')
          then agree := false;
          model := rest
        | Some _, [] | None, _ :: _ -> agree := false
      in
      List.iter
        (function
          | `Schedule t ->
            Wheel.schedule w ~time:t ~seq:!seq !seq;
            insert t !seq;
            incr seq
          | `Pop -> pop_both ())
        ops;
      while (not (Wheel.is_empty w)) || !model <> [] do
        pop_both ();
        if not !agree then model := [] (* bail out of the drain on first divergence *)
      done;
      !agree)

(* ---------- Union_find ---------- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count_sets uf);
  Alcotest.(check bool) "union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check bool) "same" true (Union_find.same uf 1 2);
  Alcotest.(check bool) "not same" false (Union_find.same uf 1 5);
  Alcotest.(check int) "sets" 3 (Union_find.count_sets uf)

(* ---------- Vec ---------- *)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  let removed = Vec.swap_remove v 0 in
  Alcotest.(check int) "swap_remove returns" 0 removed;
  Alcotest.(check int) "swap_remove moved last" 98 (Vec.get v 0);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2000))

let test_vec_fold_iter () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "fold" 6 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !acc

let test_vec_ensure () =
  let v = Vec.create () in
  Vec.ensure v 3 7;
  Alcotest.(check int) "grown" 3 (Vec.length v);
  Alcotest.(check int) "filled" 7 (Vec.get v 0);
  Alcotest.(check int) "filled" 7 (Vec.get v 2);
  Vec.set v 1 (-1);
  Vec.ensure v 2 99;
  Alcotest.(check int) "no-op keeps length" 3 (Vec.length v);
  Alcotest.(check int) "no-op keeps values" (-1) (Vec.get v 1);
  Vec.ensure v 10 0;
  Alcotest.(check int) "regrown" 10 (Vec.length v);
  Alcotest.(check int) "old values kept" (-1) (Vec.get v 1);
  Alcotest.(check int) "new fill" 0 (Vec.get v 9)

(* ---------- Sort ---------- *)

let test_sort_prefix_matches_array_sort () =
  (* deterministic LCG so the test needs no seed plumbing *)
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod 1000
  in
  for len = 0 to 40 do
    let n = len + 8 in
    let a = Array.init n (fun _ -> next ()) in
    let b = Array.copy a in
    (* a total order: value, then original index via physical position is
       not available — use plain Int.compare; duplicates are fine for
       comparing against Array.sort since int sorting is value-unique *)
    Mifo_util.Sort.sort_prefix ~cmp:Int.compare a len;
    let expect = Array.sub b 0 len in
    Array.sort Int.compare expect;
    Alcotest.(check (array int)) "sorted prefix" expect (Array.sub a 0 len);
    Alcotest.(check (array int))
      "suffix untouched"
      (Array.sub b len (n - len))
      (Array.sub a len (n - len))
  done

let test_sort_prefix_validation () =
  Alcotest.check_raises "negative len" (Invalid_argument "Sort.sort_prefix")
    (fun () -> Mifo_util.Sort.sort_prefix ~cmp:Int.compare [| 1 |] (-1));
  Alcotest.check_raises "len too large" (Invalid_argument "Sort.sort_prefix")
    (fun () -> Mifo_util.Sort.sort_prefix ~cmp:Int.compare [| 1 |] 2)

let test_sort_find_first () =
  let a = [| -3; 1; 4; 4; 4; 9; 12 |] in
  List.iter
    (fun (x, want) ->
      Alcotest.(check int) (Printf.sprintf "find %d" x) want (Mifo_util.Sort.find_first a x))
    [
      (-3, 0); (1, 1); (4, 2) (* leftmost of a run *); (9, 5); (12, 6);
      (-4, -1); (0, -1); (5, -1); (10, -1); (13, -1);
    ];
  Alcotest.(check int) "empty" (-1) (Mifo_util.Sort.find_first [||] 0)

(* ---------- Table ---------- *)

let test_fmt_count () =
  Alcotest.(check string) "thousands" "44,340" (Table.fmt_count 44_340);
  Alcotest.(check string) "small" "7" (Table.fmt_count 7);
  Alcotest.(check string) "million" "1,234,567" (Table.fmt_count 1_234_567);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_count (-1000))

let test_fmt_float () =
  Alcotest.(check string) "trim" "1.5" (Table.fmt_float 1.50);
  Alcotest.(check string) "keep one" "2.0" (Table.fmt_float 2.0);
  Alcotest.(check string) "decimals" "3.142" (Table.fmt_float ~decimals:3 3.14159)

let test_fmt_percent () =
  Alcotest.(check string) "percent" "41.7%" (Table.fmt_percent 0.417)

let test_render_shape () =
  let out = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines)

(* ---------- Obs ---------- *)

let test_obs_counters_gauges () =
  let c = Obs.counter "test.obs.counter" in
  let v0 = Obs.value c in
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "incr + add" (v0 + 5) (Obs.value c);
  Alcotest.(check int) "readable by name" (v0 + 5) (Obs.counter_value "test.obs.counter");
  Alcotest.(check int) "unknown counter reads 0" 0 (Obs.counter_value "test.obs.nope");
  Alcotest.(check bool) "same name, same cell" true (Obs.counter "test.obs.counter" == c);
  let g = Obs.gauge "test.obs.gauge" in
  Alcotest.(check bool) "fresh gauge is nan" true
    (Float.is_nan (Obs.gauge_value "test.obs.gauge"));
  Obs.add_gauge g 1.5;
  Obs.add_gauge g 1.0;
  check_float "accumulates from zero" 2.5 (Obs.gauge_value "test.obs.gauge");
  Obs.set_gauge g 7.0;
  check_float "set overrides" 7.0 (Obs.gauge_value "test.obs.gauge")

let test_obs_max_gauge () =
  let g = Obs.gauge "test.obs.maxgauge" in
  Alcotest.(check bool) "fresh max gauge is nan" true
    (Float.is_nan (Obs.gauge_value "test.obs.maxgauge"));
  Obs.max_gauge g 3.0;
  check_float "first observation seeds the max" 3.0 (Obs.gauge_value "test.obs.maxgauge");
  Obs.max_gauge g 1.0;
  check_float "lower observation ignored" 3.0 (Obs.gauge_value "test.obs.maxgauge");
  Obs.max_gauge g 9.5;
  check_float "higher observation wins" 9.5 (Obs.gauge_value "test.obs.maxgauge")

let test_obs_histogram () =
  let h = Obs.histogram ~bounds:[| 1.; 2.; 4. |] "test.obs.hist" in
  List.iter (Obs.observe h) [ 0.5; 1.; 1.5; 3.; 100. ];
  Alcotest.(check int) "count" 5 (Obs.histogram_count "test.obs.hist");
  (* bucket placement visible in the snapshot: bounds are inclusive upper
     bounds plus an overflow bucket *)
  let j = Obs.Json.parse (Obs.snapshot_json ()) in
  (match Obs.Json.member "histograms" j with
   | Some (Obs.Json.Obj kvs) ->
     (match List.assoc_opt "test.obs.hist" kvs with
      | Some hj ->
        (match Obs.Json.member "counts" hj with
         | Some (Obs.Json.Arr counts) ->
           Alcotest.(check (list (float 1e-9))) "bucket placement" [ 2.; 1.; 1.; 1. ]
             (List.map (function Obs.Json.Num x -> x | _ -> Float.nan) counts)
         | _ -> Alcotest.fail "no counts array")
      | None -> Alcotest.fail "histogram missing from snapshot")
   | _ -> Alcotest.fail "no histograms object");
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (match Obs.histogram ~bounds:[| 2.; 1. |] "test.obs.hist2" with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_obs_trace_ring () =
  Obs.set_trace_capacity 3;
  Alcotest.(check bool) "enabled" true (Obs.trace_enabled ());
  for i = 0 to 4 do
    Obs.event ~t:(float_of_int i) "tick" [ ("i", Obs.Int i) ]
  done;
  let evs = Obs.events () in
  Alcotest.(check int) "ring bounds retention" 3 (List.length evs);
  (match evs with
   | (seq, Some t, "tick", [ ("i", Obs.Int i) ]) :: _ ->
     Alcotest.(check int) "oldest kept is #2" 2 seq;
     check_float "time carried" 2. t;
     Alcotest.(check int) "field carried" 2 i
   | _ -> Alcotest.fail "unexpected event shape");
  let lines = String.split_on_char '\n' (String.trim (Obs.trace_jsonl ())) in
  Alcotest.(check int) "three JSONL lines" 3 (List.length lines);
  List.iteri
    (fun k line ->
      match Obs.Json.member "seq" (Obs.Json.parse line) with
      | Some (Obs.Json.Num s) ->
        Alcotest.(check int) "seq ascending" (2 + k) (int_of_float s)
      | _ -> Alcotest.fail "seq missing")
    lines;
  Obs.set_trace_capacity 0;
  Alcotest.(check bool) "disabled" false (Obs.trace_enabled ());
  Obs.event "ignored" [];
  Alcotest.(check int) "no events when disabled" 0 (List.length (Obs.events ()))

let test_obs_snapshot_parses () =
  let c = Obs.counter "test.obs.snap" in
  Obs.incr c;
  let j = Obs.Json.parse (Obs.snapshot_json ()) in
  match Obs.Json.member "counters" j with
  | Some (Obs.Json.Obj kvs) ->
    Alcotest.(check bool) "counter present with its value" true
      (match List.assoc_opt "test.obs.snap" kvs with
       | Some (Obs.Json.Num v) -> v >= 1.
       | _ -> false);
    let names = List.map fst kvs in
    Alcotest.(check (list string)) "names sorted (deterministic output)"
      (List.sort compare names) names;
    (* a registered gauge appears only once it holds a reading *)
    let _unset = Obs.gauge "test.obs.snap.unset" in
    Obs.set_gauge (Obs.gauge "test.obs.snap.set") 2.5;
    (match Obs.Json.member "gauges" (Obs.Json.parse (Obs.snapshot_json ())) with
     | Some (Obs.Json.Obj gs) ->
       Alcotest.(check bool) "unset gauge absent" true
         (List.assoc_opt "test.obs.snap.unset" gs = None);
       Alcotest.(check bool) "set gauge present with its value" true
         (List.assoc_opt "test.obs.snap.set" gs = Some (Obs.Json.Num 2.5))
     | _ -> Alcotest.fail "no gauges object")
  | _ -> Alcotest.fail "no counters object"

let test_obs_json_roundtrip () =
  let open Obs.Json in
  let j =
    Obj
      [
        ("a", Num 1.);
        ("b", Str "x\"y\n");
        ("c", Arr [ Bool true; Null; Num 2.5 ]);
        ("d", Obj []);
      ]
  in
  Alcotest.(check bool) "round trip" true (parse (to_string j) = j);
  Alcotest.(check bool) "whitespace and escapes" true
    (parse "  { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" ] }  "
     = Obj [ ("k", Arr [ Num 1.; Num (-25.); Str "A" ]) ]);
  Alcotest.(check string) "non-finite floats emit null" "null" (to_string (Num Float.nan));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
        (match parse s with
         | exception Failure _ -> true
         | _ -> false))
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
      (* a \u escape is exactly four hex digits *)
      "\"\\u00_4\""; "\"\\u+041\""; "\"\\u 041\""; "\"\\u004\""; "\"\\u00g1\""; "\"\\u-041\"";
    ];
  Alcotest.(check bool) "hex digits of either case" true
    (parse "[\"\\u004a\", \"\\u004A\"]" = Arr [ Str "J"; Str "J" ])

(* Random text and mutated snapshots: [parse] returns or raises
   [Failure]; no other exception escapes. *)
let prop_obs_json_fuzz =
  let json_char = QCheck2.Gen.oneofl (List.of_seq (String.to_seq "{}[],:\"\\u09afAF_+-.eE tnrl")) in
  let any_char = QCheck2.Gen.(oneof [ json_char; char ]) in
  QCheck2.Test.make ~name:"obs json: only Failure escapes on malformed input" ~count:1000
    QCheck2.Gen.(
      pair (string_size ~gen:any_char (int_range 0 40))
        (list_size (int_range 1 4) (pair nat any_char)))
    (fun (text, edits) ->
      let snap = Bytes.of_string (Obs.snapshot_json ()) in
      List.iter (fun (i, c) -> Bytes.set snap (i mod Bytes.length snap) c) edits;
      List.for_all
        (fun s -> match Obs.Json.parse s with _ -> true | exception Failure _ -> true)
        [ text; Bytes.to_string snap ])

let test_obs_time_phase () =
  let r = Obs.time_phase "testphase" (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check int) "run counted" 1 (Obs.counter_value "phase.testphase.runs");
  Alcotest.(check bool) "seconds recorded" true
    (Obs.gauge_value "phase.testphase.seconds" >= 0.);
  (match Obs.time_phase "testphase" (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "raising run still counted" 2
    (Obs.counter_value "phase.testphase.runs")

(* Trim must release memory on empty (capacity back to zero — the deep
   packet-train backlog case) and shrink to fit otherwise, all without
   touching the live prefix. *)
let test_vec_trim () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check bool) "capacity >= length" true (Vec.capacity v >= 1000);
  for _ = 1 to 990 do
    ignore (Vec.pop v)
  done;
  Vec.trim v;
  Alcotest.(check int) "shrunk to fit" 10 (Vec.capacity v);
  Alcotest.(check int) "length kept" 10 (Vec.length v);
  for i = 0 to 9 do
    Alcotest.(check int) "values kept" i (Vec.get v i)
  done;
  Vec.clear v;
  Vec.trim v;
  Alcotest.(check int) "empty trim releases the buffer" 0 (Vec.capacity v);
  Vec.push v 7;
  Alcotest.(check int) "usable after release" 7 (Vec.get v 0)

(* ---------- Parallel ---------- *)

let with_pool jobs f =
  let pool = Parallel.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let test_parallel_map_empty () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.(check (array int)) "empty" [||] (Parallel.parallel_map pool (fun x -> x) [||])))
    [ 1; 4 ]

let test_parallel_map_matches_serial () =
  (* sizes straddling the chunking boundaries: < jobs, = jobs, around
     4*jobs (the chunk count), and a big non-multiple *)
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> i) in
      let expected = Array.map (fun x -> (x * x) + 1) input in
      with_pool 4 (fun pool ->
          let got = Parallel.parallel_map pool (fun x -> (x * x) + 1) input in
          Alcotest.(check (array int)) (Printf.sprintf "n=%d" n) expected got))
    [ 1; 2; 3; 4; 5; 15; 16; 17; 33; 1000 ]

(* At jobs 2 the two elements of a 2-element map must run at the same
   time: each announces itself, then waits (at most about 10 s) for the
   other.  A map that runs one element on the caller before handing the
   rest to the pool never overlaps them, and that element's wait times
   out. *)
let test_parallel_map_overlaps () =
  with_pool 2 (fun pool ->
      let arrived = Atomic.make 0 in
      let rendezvous _ =
        Atomic.incr arrived;
        let polls = ref 0 in
        while Atomic.get arrived < 2 && !polls < 10_000 do
          Unix.sleepf 0.001;
          incr polls
        done;
        Atomic.get arrived >= 2
      in
      Alcotest.(check (array bool)) "both elements met" [| true; true |]
        (Parallel.parallel_map pool rendezvous [| 0; 1 |]))

let test_parallel_for_covers_range () =
  with_pool 3 (fun pool ->
      let n = 101 in
      let hits = Array.make n 0 in
      Parallel.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* empty and reversed ranges are no-ops *)
      Parallel.parallel_for pool ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "ran on empty range");
      Parallel.parallel_for pool ~lo:5 ~hi:0 (fun _ -> Alcotest.fail "ran on empty range"))

exception Boom of int

let test_parallel_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let raised =
            try
              ignore
                (Parallel.parallel_map pool
                   (fun x -> if x = 37 then raise (Boom x) else x)
                   (Array.init 100 (fun i -> i)));
              false
            with Boom 37 -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "worker exception reaches caller (jobs=%d)" jobs)
            true raised))
    [ 1; 4 ]

let test_parallel_pool_reuse () =
  (* several batches through one pool; workers must survive batches *)
  with_pool 4 (fun pool ->
      for round = 1 to 5 do
        let got = Parallel.parallel_map pool (fun x -> x + round) (Array.init 64 (fun i -> i)) in
        Alcotest.(check int) "first" round got.(0);
        Alcotest.(check int) "last" (63 + round) got.(63)
      done)

(* MIFO_JOBS is read when a pool size is needed, never at module
   initialisation; a malformed value is an error naming the variable and
   the value.  Unix has no unsetenv, so the variable is restored to its
   old value or to empty, which reads as unset. *)
let test_default_jobs_env () =
  let old = Option.value (Sys.getenv_opt "MIFO_JOBS") ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MIFO_JOBS" old)
    (fun () ->
      Unix.putenv "MIFO_JOBS" "3";
      Alcotest.(check int) "MIFO_JOBS=3" 3 (Parallel.default_jobs ());
      Unix.putenv "MIFO_JOBS" "";
      Alcotest.(check int) "empty reads as unset" (Domain.recommended_domain_count ())
        (Parallel.default_jobs ());
      List.iter
        (fun bad ->
          Unix.putenv "MIFO_JOBS" bad;
          let err =
            Invalid_argument
              (Printf.sprintf "MIFO_JOBS: expected a positive integer, got %S" bad)
          in
          Alcotest.check_raises
            (Printf.sprintf "MIFO_JOBS=%S rejected" bad)
            err
            (fun () -> ignore (Parallel.default_jobs ()));
          Alcotest.check_raises
            (Printf.sprintf "MIFO_JOBS=%S rejected by create" bad)
            err
            (fun () -> Parallel.shutdown (Parallel.create ())))
        [ "0"; "-2"; "all"; "4cores" ])

let test_set_default_jobs_rejects_nonpositive () =
  List.iter
    (fun bad ->
      match Parallel.set_default_jobs bad with
      | () -> Alcotest.fail (Printf.sprintf "jobs=%d accepted" bad)
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "message names the bad value" true
          (String.length msg > 0))
    [ 0; -1; -100 ]

(* ---------- intset ---------- *)

module Intset = Mifo_util.Intset

let test_intset_basic () =
  let s = Intset.create () in
  Alcotest.(check bool) "fresh set is empty" true (Intset.is_empty s);
  Alcotest.(check int) "fresh cardinal" 0 (Intset.cardinal s);
  Intset.add s 3;
  Intset.add s 3;
  Intset.add s 0;
  Intset.add s 1000;
  Alcotest.(check int) "cardinal after idempotent adds" 3 (Intset.cardinal s);
  Alcotest.(check bool) "mem 3" true (Intset.mem s 3);
  Alcotest.(check bool) "mem 0" true (Intset.mem s 0);
  Alcotest.(check bool) "mem 1000" true (Intset.mem s 1000);
  Alcotest.(check bool) "mem absent" false (Intset.mem s 4);
  Intset.remove s 3;
  Intset.remove s 3;
  Intset.remove s 77;
  Alcotest.(check bool) "removed key gone" false (Intset.mem s 3);
  Alcotest.(check int) "cardinal after removes" 2 (Intset.cardinal s);
  let total = ref 0 in
  Intset.iter (fun x -> total := !total + x) s;
  Alcotest.(check int) "iter visits exactly the live keys" 1000 !total;
  match Intset.add s (-1) with
  | () -> Alcotest.fail "negative key accepted"
  | exception Invalid_argument _ -> ()

(* Growth across several doublings, then backward-shift deletion of
   every other key: the survivors must all stay findable (no tombstone
   scheme — deletion compacts the probe chains in place). *)
let test_intset_grow_and_backshift () =
  let s = Intset.create () in
  for i = 0 to 499 do
    Intset.add s (i * 7)
  done;
  Alcotest.(check int) "500 keys" 500 (Intset.cardinal s);
  for i = 0 to 499 do
    if not (Intset.mem s (i * 7)) then Alcotest.fail "key lost while growing"
  done;
  for i = 0 to 499 do
    if i mod 2 = 0 then Intset.remove s (i * 7)
  done;
  Alcotest.(check int) "half left" 250 (Intset.cardinal s);
  for i = 0 to 499 do
    if Intset.mem s (i * 7) <> (i mod 2 = 1) then
      Alcotest.fail "backward-shift deletion corrupted a probe chain"
  done;
  Alcotest.(check bool) "still not empty" false (Intset.is_empty s)

let () =
  Alcotest.run "mifo_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in_range;
          Alcotest.test_case "int covers all values" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bad arguments" `Quick test_prng_bad_args;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        ] );
      ( "intset",
        [
          Alcotest.test_case "add/mem/remove/iter" `Quick test_intset_basic;
          Alcotest.test_case "growth + backward-shift deletion" `Quick
            test_intset_grow_and_backshift;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance/min/max" `Quick test_stats_basic;
          Alcotest.test_case "empty accumulator" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
      ( "dist",
        [
          Alcotest.test_case "ecdf" `Quick test_cdf_basic;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile of empty raises" `Quick test_percentile_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "counts_of_ints" `Quick test_counts_of_ints;
          Alcotest.test_case "evenly_spaced" `Quick test_evenly_spaced;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "(time, seq) order" `Quick test_wheel_orders;
          Alcotest.test_case "fifo on ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "far-future outliers and +inf" `Quick test_wheel_far_future;
          Alcotest.test_case "clear and reuse" `Quick test_wheel_clear_reuse;
          Alcotest.test_case "pop_before writes the time cell" `Quick
            test_wheel_pop_before_cell;
          Alcotest.test_case "precedes" `Quick test_wheel_precedes;
          QCheck_alcotest.to_alcotest prop_wheel_matches_sorted_oracle;
        ] );
      ("union_find", [ Alcotest.test_case "union/find/count" `Quick test_union_find ]);
      ( "vec",
        [
          Alcotest.test_case "push/get/set/pop/swap_remove" `Quick test_vec;
          Alcotest.test_case "fold/iter" `Quick test_vec_fold_iter;
          Alcotest.test_case "ensure grows with fill" `Quick test_vec_ensure;
          Alcotest.test_case "trim shrinks and releases" `Quick test_vec_trim;
        ] );
      ( "sort",
        [
          Alcotest.test_case "prefix matches Array.sort" `Quick
            test_sort_prefix_matches_array_sort;
          Alcotest.test_case "validation" `Quick test_sort_prefix_validation;
          Alcotest.test_case "find_first" `Quick test_sort_find_first;
        ] );
      ( "table",
        [
          Alcotest.test_case "fmt_count" `Quick test_fmt_count;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
          Alcotest.test_case "fmt_percent" `Quick test_fmt_percent;
          Alcotest.test_case "render shape" `Quick test_render_shape;
        ] );
      ( "obs",
        [
          Alcotest.test_case "counters and gauges" `Quick test_obs_counters_gauges;
          Alcotest.test_case "max gauge high-water mark" `Quick test_obs_max_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_obs_histogram;
          Alcotest.test_case "trace ring buffer" `Quick test_obs_trace_ring;
          Alcotest.test_case "snapshot is valid sorted JSON" `Quick test_obs_snapshot_parses;
          Alcotest.test_case "json round trip + rejection" `Quick test_obs_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_obs_json_fuzz;
          Alcotest.test_case "phase timing" `Quick test_obs_time_phase;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map empty input" `Quick test_parallel_map_empty;
          Alcotest.test_case "map matches serial across chunk boundaries" `Quick
            test_parallel_map_matches_serial;
          Alcotest.test_case "map runs its elements concurrently" `Quick
            test_parallel_map_overlaps;
          Alcotest.test_case "for covers the range exactly once" `Quick
            test_parallel_for_covers_range;
          Alcotest.test_case "worker exception propagates" `Quick
            test_parallel_exception_propagates;
          Alcotest.test_case "pool reuse across batches" `Quick test_parallel_pool_reuse;
          Alcotest.test_case "MIFO_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "set_default_jobs rejects non-positive" `Quick
            test_set_default_jobs_rejects_nonpositive;
        ] );
    ]
