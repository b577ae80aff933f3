(* Unit and property tests for Mifo_netsim: event queue, max-min
   allocator, TCP state machine, flow-level simulator and packet-level
   simulator. *)

module Eventq = Mifo_netsim.Eventq
module Maxmin = Mifo_netsim.Maxmin
module Tcp = Mifo_netsim.Tcp
module Flowsim = Mifo_netsim.Flowsim
module Packetsim = Mifo_netsim.Packetsim
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Deployment = Mifo_core.Deployment
module Generator = Mifo_topology.Generator
module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Eventq_heap = Mifo_oracle.Eventq_heap
module Maxmin_ref = Mifo_oracle.Maxmin_ref
module Flowsim_oracle = Mifo_oracle.Flowsim_oracle

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Eventq ---------- *)

let test_eventq_order () =
  let q = Eventq.create () in
  Eventq.schedule q ~time:3. "c";
  Eventq.schedule q ~time:1. "a";
  Eventq.schedule q ~time:2. "b";
  Alcotest.(check (option (float 1e-9))) "peek" (Some 1.) (Eventq.peek_time q);
  let order = List.init 3 (fun _ -> snd (Option.get (Eventq.next q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_eventq_stable () =
  let q = Eventq.create () in
  Eventq.schedule q ~time:1. "first";
  Eventq.schedule q ~time:1. "second";
  Alcotest.(check string) "fifo on ties" "first" (snd (Option.get (Eventq.next q)));
  Alcotest.(check string) "fifo on ties 2" "second" (snd (Option.get (Eventq.next q)))

let test_eventq_rejects_bad_time () =
  let q = Eventq.create () in
  Alcotest.(check bool) "negative" true
    (match Eventq.schedule q ~time:(-1.) () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "nan" true
    (match Eventq.schedule q ~time:Float.nan () with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Property: equal timestamps pop in insertion order whatever the
   schedule interleaving - the simulators rely on this for
   determinism. *)
let prop_eventq_fifo_ties =
  QCheck2.Test.make ~name:"eventq: FIFO among equal timestamps" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_bound 3))
    (fun times ->
      let q = Eventq.create () in
      List.iteri (fun i t -> Eventq.schedule q ~time:(float_of_int t) (t, i)) times;
      let rec drain acc =
        match Eventq.next q with
        | None -> List.rev acc
        | Some (_, payload) -> drain (payload :: acc)
      in
      let rec ordered = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      ordered (drain []))

(* The production wheel queue and the heap oracle, behind one
   interface so a test can drive either. *)
module type EQ = Eventq_heap.S

let queues = [ ("wheel", (module Eventq : EQ)); ("heap", (module Eventq_heap : EQ)) ]

(* Regression: [clear] used to empty the queue but leave the sequence
   counter running, so a reused queue tie-broke differently from a
   fresh one — a determinism leak across resets. *)
let test_eventq_clear_resets_seq () =
  List.iter
    (fun (name, (module Q : EQ)) ->
      let what msg = name ^ ": " ^ msg in
      let q = Q.create () in
      Q.schedule q ~time:1. "x";
      Q.schedule q ~time:2. "y";
      ignore (Q.pop_before q ~until:3.);
      Q.clear q;
      Alcotest.(check bool) (what "empty") true (Q.is_empty q);
      check_float (what "last_time reset") 0. (Q.last_time q);
      Q.schedule q ~time:4. "z";
      (match Q.peek_key q with
       | Some (t, s) ->
         check_float (what "time") 4. t;
         Alcotest.(check int) (what "seq restarts at 0") 0 s
       | None -> Alcotest.fail (what "empty after schedule"));
      Alcotest.(check int) (what "peak length reset") 1 (Q.peak_length q))
    queues

let test_eventq_pop_before_time_cell () =
  List.iter
    (fun (name, (module Q : EQ)) ->
      let what msg = name ^ ": " ^ msg in
      let q = Q.create () in
      let cell = Q.time_cell q in
      Q.schedule q ~time:5e-6 "a";
      Q.schedule q ~time:9e-6 "b";
      Alcotest.(check (option string)) (what "beyond horizon") None
        (Q.pop_before q ~until:1e-6);
      Alcotest.(check (option string)) (what "within horizon") (Some "a")
        (Q.pop_before q ~until:6e-6);
      check_float (what "last_time") 5e-6 (Q.last_time q);
      Alcotest.(check (option string)) (what "rest") (Some "b")
        (Q.pop_before q ~until:Float.infinity);
      check_float (what "shared cell tracks pops") 9e-6 cell.(0))
    queues

(* The differential gate of the event queue: random interleavings of
   every entry point the packet simulator calls — duplicate times,
   sub-tick spacings, far-future outliers including +inf, sequence
   numbers claimed ahead and scheduled out of order (packet trains),
   horizon pops through the shared time cell, head-precedence probes at
   and around the head key, resets — behave bit-identically on the
   timing wheel and on the heap oracle. *)
let eventq_time_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun k -> float_of_int k *. 1e-7) (int_bound 300));
        (1, map (fun k -> 1000. +. float_of_int k) (int_bound 3));
        (1, return Float.infinity);
      ])

type eventq_op =
  | Schedule of float
  | Claim  (** [alloc_seq] *)
  | Schedule_claimed of int * float  (** [schedule_pre] under a claimed seq *)
  | Pop  (** [next] *)
  | Pop_before of float
  | Probe of float * int  (** [precedes_head] at an arbitrary key *)
  | Probe_head of int  (** [precedes_head] at the head's key, seq shifted *)
  | Clear

let eventq_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, map (fun t -> Schedule t) eventq_time_gen);
        (3, return Claim);
        (3, map2 (fun i t -> Schedule_claimed (i, t)) (int_bound 7) eventq_time_gen);
        (3, return Pop);
        (4, map (fun t -> Pop_before t) eventq_time_gen);
        (2, map2 (fun t s -> Probe (t, s)) eventq_time_gen (int_bound 60));
        (2, map (fun d -> Probe_head d) (int_range (-1) 1));
        (1, return Clear);
      ])

let prop_eventq_engines_agree =
  QCheck2.Test.make ~name:"eventq: heap and wheel pop identical sequences" ~count:300
    QCheck2.Gen.(list_size (int_range 1 250) eventq_op_gen)
    (fun ops ->
      let module H = Eventq_heap in
      let qh = H.create () and qw = Eventq.create () in
      let bits = Int64.bits_of_float in
      let key = Option.map (fun (t, s) -> (bits t, s)) in
      let payload = ref 0 and claimed = ref [] and agree = ref true in
      let expect ok = if not ok then agree := false in
      let precedes (time, seq) =
        expect (H.precedes_head qh ~time ~seq = Eventq.precedes_head qw ~time ~seq)
      in
      let step = function
        | Schedule t ->
          H.schedule qh ~time:t !payload;
          Eventq.schedule qw ~time:t !payload;
          incr payload
        | Claim ->
          let seq = H.alloc_seq qh in
          expect (Eventq.alloc_seq qw = seq);
          claimed := seq :: !claimed
        | Schedule_claimed (i, time) when !claimed <> [] ->
          let seq = List.nth !claimed (i mod List.length !claimed) in
          claimed := List.filter (( <> ) seq) !claimed;
          H.schedule_pre qh ~time ~seq !payload;
          Eventq.schedule_pre qw ~time ~seq !payload;
          incr payload
        | Schedule_claimed _ -> ()
        | Pop ->
          let pop next q = Option.map (fun (t, p) -> (bits t, p)) (next q) in
          expect (pop H.next qh = pop Eventq.next qw)
        | Pop_before until ->
          expect (H.pop_before qh ~until = Eventq.pop_before qw ~until);
          expect (bits (H.time_cell qh).(0) = bits (Eventq.time_cell qw).(0));
          expect (bits (H.last_time qh) = bits (Eventq.last_time qw))
        | Probe (time, seq) -> precedes (time, seq)
        | Probe_head d ->
          precedes (match H.peek_key qh with None -> (0., 0) | Some (t, s) -> (t, s + d))
        | Clear ->
          H.clear qh;
          Eventq.clear qw;
          claimed := []
      in
      List.iter
        (fun op ->
          step op;
          expect (H.length qh = Eventq.length qw && H.is_empty qh = Eventq.is_empty qw);
          expect (H.peak_length qh = Eventq.peak_length qw);
          expect (key (H.peek_key qh) = key (Eventq.peek_key qw)))
        ops;
      while not (H.is_empty qh && Eventq.is_empty qw) do
        step Pop
      done;
      !agree)

(* ---------- Maxmin ---------- *)

let test_maxmin_two_flows_one_link () =
  let rates = Maxmin_ref.allocate ~capacities:[| 10. |] ~flow_links:[| [| 0 |]; [| 0 |] |] in
  check_float "fair split" 5. rates.(0);
  check_float "fair split" 5. rates.(1)

let test_maxmin_classic () =
  (* classic example: links A(cap 10) and B(cap 4); flow1 on A+B, flow2 on
     B, flow3 on A.  Max-min: flow1 = flow2 = 2 (B bottleneck), flow3 = 8. *)
  let rates =
    Maxmin_ref.allocate ~capacities:[| 10.; 4. |]
      ~flow_links:[| [| 0; 1 |]; [| 1 |]; [| 0 |] |]
  in
  check_float "flow1" 2. rates.(0);
  check_float "flow2" 2. rates.(1);
  check_float "flow3" 8. rates.(2)

let test_maxmin_empty_path () =
  (* A flow crossing no link is unconstrained: infinity, explicitly —
     not the largest capacity of links it never touches. *)
  let rates = Maxmin_ref.allocate ~capacities:[| 7. |] ~flow_links:[| [||] |] in
  Alcotest.(check bool) "unconstrained is infinite" true (rates.(0) = Float.infinity);
  (* and it must not rob constrained flows of anything *)
  let rates =
    Maxmin_ref.allocate ~capacities:[| 7. |] ~flow_links:[| [||]; [| 0 |]; [| 0 |] |]
  in
  Alcotest.(check bool) "still infinite beside others" true
    (rates.(0) = Float.infinity);
  check_float "others unaffected" 3.5 rates.(1);
  check_float "others unaffected" 3.5 rates.(2)

let test_maxmin_all_empty_flows () =
  let rates = Maxmin_ref.allocate ~capacities:[| 5.; 2. |] ~flow_links:[| [||]; [||] |] in
  Array.iter
    (fun r -> Alcotest.(check bool) "all unconstrained" true (r = Float.infinity))
    rates;
  (* no links at all: same answer, no division by a fold over nothing *)
  let rates = Maxmin_ref.allocate ~capacities:[||] ~flow_links:[| [||] |] in
  Alcotest.(check bool) "no links" true (rates.(0) = Float.infinity);
  let alloc =
    Maxmin_ref.link_allocation ~capacities:[| 5.; 2. |]
      ~flow_links:[| [||]; [||] |]
      ~rates:(Maxmin_ref.allocate ~capacities:[| 5.; 2. |] ~flow_links:[| [||]; [||] |])
  in
  check_float "nothing allocated" 0. alloc.(0);
  check_float "nothing allocated" 0. alloc.(1)

let test_maxmin_duplicate_links_counted_once () =
  let rates = Maxmin_ref.allocate ~capacities:[| 6. |] ~flow_links:[| [| 0; 0 |]; [| 0 |] |] in
  check_float "dedup" 3. rates.(0);
  check_float "dedup" 3. rates.(1)

let test_maxmin_rejects_bad_input () =
  Alcotest.(check bool) "bad link id" true
    (match Maxmin_ref.allocate ~capacities:[| 1. |] ~flow_links:[| [| 3 |] |] with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "negative capacity" true
    (match Maxmin_ref.allocate ~capacities:[| -1. |] ~flow_links:[||] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Properties: feasibility and the bottleneck characterization of max-min
   fairness: every flow crosses a saturated link on which it has the
   maximal rate. *)
let maxmin_instance_gen =
  QCheck2.Gen.(
    let* nlinks = int_range 1 12 in
    let* nflows = int_range 1 20 in
    let* caps = array_size (return nlinks) (float_range 1. 100.) in
    let* flows =
      array_size (return nflows)
        (list_size (int_range 1 5) (int_bound (nlinks - 1)))
    in
    return (caps, Array.map Array.of_list flows))

let prop_maxmin_feasible =
  QCheck2.Test.make ~name:"max-min allocation never exceeds capacity" ~count:300
    maxmin_instance_gen
    (fun (caps, flows) ->
      let rates = Maxmin_ref.allocate ~capacities:caps ~flow_links:flows in
      (* link_allocation requires duplicate-free link sets *)
      let deduped = Array.map Maxmin.dedup_links flows in
      let alloc = Maxmin_ref.link_allocation ~capacities:caps ~flow_links:deduped ~rates in
      Array.for_all2 (fun a c -> a <= c +. 1e-6) alloc caps)

let prop_maxmin_bottleneck =
  QCheck2.Test.make ~name:"every flow has a saturated bottleneck where it is maximal"
    ~count:300 maxmin_instance_gen
    (fun (caps, flows) ->
      let rates = Maxmin_ref.allocate ~capacities:caps ~flow_links:flows in
      let deduped = Array.map Maxmin.dedup_links flows in
      let alloc = Maxmin_ref.link_allocation ~capacities:caps ~flow_links:deduped ~rates in
      let max_rate_on = Array.make (Array.length caps) 0. in
      Array.iteri
        (fun f links ->
          Array.iter (fun l -> max_rate_on.(l) <- Float.max max_rate_on.(l) rates.(f)) links)
        flows;
      Array.for_all
        (fun f ->
          Array.length flows.(f) = 0
          || Array.exists
               (fun l -> alloc.(l) >= caps.(l) -. 1e-6 && rates.(f) >= max_rate_on.(l) -. 1e-6)
               flows.(f))
        (Array.init (Array.length flows) Fun.id))

(* ---------- Incremental solver ---------- *)

(* Richer instances than the fairness properties: zero-capacity links,
   empty link sets, duplicate link ids — the corners the incremental
   solver must agree with the reference on, bit for bit. *)
let solver_instance_gen =
  QCheck2.Gen.(
    let* nlinks = int_range 1 12 in
    let* nflows = int_range 0 20 in
    let* caps =
      array_size (return nlinks)
        (oneof [ return 0.; float_range 1. 100. ])
    in
    let* flows =
      array_size (return nflows)
        (list_size (int_range 0 5) (int_bound (nlinks - 1)))
    in
    return (caps, Array.map Array.of_list flows))

let exactly_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let prop_solver_matches_reference =
  QCheck2.Test.make
    ~name:"Solver rates and link allocs are bit-identical to the reference"
    ~count:500 solver_instance_gen
    (fun (caps, flows) ->
      let expect = Maxmin_ref.allocate ~capacities:caps ~flow_links:flows in
      let deduped = Array.map Maxmin.dedup_links flows in
      let expect_alloc =
        Maxmin_ref.link_allocation ~capacities:caps ~flow_links:deduped
          ~rates:expect
      in
      let sv = Maxmin.Solver.create ~nlinks:(Array.length caps) () in
      Array.iteri (fun l c -> Maxmin.Solver.set_capacity sv l c) caps;
      let slots = Array.map (fun links -> Maxmin.Solver.register sv links) deduped in
      Maxmin.Solver.solve sv slots (Array.length slots);
      let got = Array.map (fun s -> Maxmin.Solver.rate sv s) slots in
      exactly_equal expect got
      && exactly_equal expect_alloc (Maxmin.Solver.link_allocs sv))

(* Slot reuse: solving, retiring a subset of flows, admitting new ones,
   and solving again must still match a fresh reference run — the
   freelist and stale per-slot state must not leak into the next solve. *)
let prop_solver_slot_reuse =
  QCheck2.Test.make
    ~name:"Solver matches the reference across unregister/register churn"
    ~count:300
    QCheck2.Gen.(
      let* inst = solver_instance_gen in
      let* inst2 = solver_instance_gen in
      let* keep_mask = array_size (return (Array.length (snd inst))) bool in
      return (inst, inst2, keep_mask))
    (fun (((caps, flows), (_, flows2), keep_mask)) ->
      let nlinks = Array.length caps in
      let clamp links =
        Maxmin.dedup_links (Array.map (fun l -> l mod nlinks) links)
      in
      let sv = Maxmin.Solver.create ~nlinks () in
      Array.iteri (fun l c -> Maxmin.Solver.set_capacity sv l c) caps;
      let slots1 =
        Array.map (fun links -> Maxmin.Solver.register sv (clamp links)) flows
      in
      Maxmin.Solver.solve sv slots1 (Array.length slots1);
      (* churn: drop the unmasked flows, admit the second instance's *)
      let kept =
        Array.of_list
          (List.filteri
             (fun i _ -> keep_mask.(i))
             (Array.to_list slots1))
      in
      Array.iteri
        (fun i s -> if not keep_mask.(i) then Maxmin.Solver.unregister sv s)
        slots1;
      let fresh =
        Array.map (fun links -> Maxmin.Solver.register sv (clamp links)) flows2
      in
      let active = Array.append kept fresh in
      Maxmin.Solver.solve sv active (Array.length active);
      let kept_links =
        Array.of_list
          (List.filteri (fun i _ -> keep_mask.(i)) (Array.to_list flows))
      in
      let ref_links =
        Array.map clamp (Array.append kept_links flows2)
      in
      let expect = Maxmin_ref.allocate ~capacities:caps ~flow_links:ref_links in
      let got = Array.map (fun s -> Maxmin.Solver.rate sv s) active in
      exactly_equal expect got)

let test_solver_validation () =
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  expect_invalid "negative nlinks" (fun () ->
      Maxmin.Solver.create ~nlinks:(-1) ());
  expect_invalid "nan capacity" (fun () ->
      Maxmin.Solver.create ~capacity:Float.nan ~nlinks:1 ());
  let sv = Maxmin.Solver.create ~capacity:1. ~nlinks:3 () in
  expect_invalid "unsorted links" (fun () ->
      Maxmin.Solver.register sv [| 2; 1 |]);
  expect_invalid "duplicate links" (fun () ->
      Maxmin.Solver.register sv [| 1; 1 |]);
  expect_invalid "out-of-range link" (fun () ->
      Maxmin.Solver.register sv [| 0; 3 |]);
  expect_invalid "negative capacity" (fun () ->
      Maxmin.Solver.set_capacity sv 0 (-1.));
  let s = Maxmin.Solver.register sv [| 0; 2 |] in
  Maxmin.Solver.unregister sv s;
  expect_invalid "stale slot" (fun () -> Maxmin.Solver.rate sv s);
  expect_invalid "unknown slot in solve" (fun () ->
      Maxmin.Solver.solve sv [| 99 |] 1);
  (* empty link set: unconstrained, infinity, even after slot reuse *)
  let s2 = Maxmin.Solver.register sv [||] in
  Maxmin.Solver.solve sv [| s2 |] 1;
  Alcotest.(check bool) "empty set is unconstrained" true
    (Maxmin.Solver.rate sv s2 = Float.infinity);
  Alcotest.(check int) "solve count" 1 (Maxmin.Solver.solves sv)

(* ---------- Tcp ---------- *)

let test_tcp_window_pump () =
  let s = Tcp.Sender.create ~total:100 in
  let sent = ref [] in
  let rec pump () =
    match Tcp.Sender.next_to_send s with
    | Some seq ->
      sent := seq :: !sent;
      pump ()
    | None -> ()
  in
  pump ();
  (* initial cwnd of 10 segments *)
  Alcotest.(check (list int)) "initial window" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !sent)

let test_tcp_slow_start_growth () =
  let s = Tcp.Sender.create ~total:1000 in
  let before = Tcp.Sender.cwnd s in
  ignore (Tcp.Sender.next_to_send s);
  ignore (Tcp.Sender.on_ack s 1);
  Alcotest.(check bool) "cwnd +1 in slow start" true (Tcp.Sender.cwnd s = before +. 1.)

let test_tcp_fast_retransmit () =
  let s = Tcp.Sender.create ~total:100 in
  for _ = 1 to 12 do
    ignore (Tcp.Sender.next_to_send s)
  done;
  ignore (Tcp.Sender.on_ack s 1);
  (* three duplicate ACKs for 1 *)
  Alcotest.(check (list int)) "no rtx yet" [] (Tcp.Sender.on_ack s 1);
  Alcotest.(check (list int)) "no rtx yet" [] (Tcp.Sender.on_ack s 1);
  Alcotest.(check (list int)) "fast retransmit of 1" [ 1 ] (Tcp.Sender.on_ack s 1);
  Alcotest.(check bool) "cwnd halved" true (Tcp.Sender.cwnd s <= 6.)

let test_tcp_timeout_gobackn () =
  let s = Tcp.Sender.create ~total:100 in
  for _ = 1 to 10 do
    ignore (Tcp.Sender.next_to_send s)
  done;
  let gen = Tcp.Sender.arm_timer s in
  Alcotest.(check (list int)) "stale generation ignored" []
    (Tcp.Sender.on_timeout s ~gen:(gen - 1));
  Alcotest.(check (list int)) "head retransmitted" [ 0 ] (Tcp.Sender.on_timeout s ~gen);
  Alcotest.(check bool) "cwnd collapsed" true (Tcp.Sender.cwnd s = 1.)

let test_tcp_done () =
  let s = Tcp.Sender.create ~total:3 in
  for _ = 1 to 3 do
    ignore (Tcp.Sender.next_to_send s)
  done;
  ignore (Tcp.Sender.on_ack s 3);
  Alcotest.(check bool) "done" true (Tcp.Sender.is_done s);
  Alcotest.(check bool) "no more to send" true (Tcp.Sender.next_to_send s = None)

let test_tcp_rtt_estimator () =
  let s = Tcp.Sender.create ~total:10 in
  Tcp.Sender.observe_rtt s 0.010;
  Alcotest.(check bool) "rto above srtt" true (Tcp.Sender.rto s >= 0.010);
  Tcp.Sender.observe_rtt s 0.010;
  Tcp.Sender.observe_rtt s 0.010;
  Alcotest.(check bool) "rto converges near srtt" true (Tcp.Sender.rto s < 0.05)

let test_tcp_receiver_reorder () =
  let r = Tcp.Receiver.create () in
  Alcotest.(check int) "in order" 1 (Tcp.Receiver.on_data r 0);
  Alcotest.(check int) "gap held" 1 (Tcp.Receiver.on_data r 2);
  Alcotest.(check int) "gap held" 1 (Tcp.Receiver.on_data r 3);
  Alcotest.(check int) "gap filled advances past buffer" 4 (Tcp.Receiver.on_data r 1);
  Alcotest.(check int) "duplicate is harmless" 4 (Tcp.Receiver.on_data r 2)

(* Property: whatever event sequence the network throws at a sender -
   spurious ACKs beyond what was sent, timeouts, adversarial RTT samples
   (zero, negative, nan, huge) - the core safety invariants hold:
   snd_una never regresses, cwnd stays >= 1 segment, and the RTO stays
   inside its clamp. *)
let tcp_op_gen =
  QCheck2.Gen.(
    oneof
      [
        return `Send;
        map (fun a -> `Ack a) (int_bound 60);
        return `Timeout;
        map
          (fun r -> `Rtt r)
          (oneofl [ -1.; 0.; Float.nan; 1e-9; 1e-6; 0.004; 0.05; 1.; 10.; 1000. ]);
      ])

let prop_tcp_sender_invariants =
  QCheck2.Test.make ~name:"tcp sender: snd_una monotone, cwnd >= 1, rto clamped"
    ~count:500
    QCheck2.Gen.(list_size (int_range 1 200) tcp_op_gen)
    (fun ops ->
      let s = Tcp.Sender.create ~total:50 in
      List.for_all
        (fun op ->
          let una0 = Tcp.Sender.snd_una s in
          (match op with
           | `Send -> ignore (Tcp.Sender.next_to_send s)
           | `Ack a -> ignore (Tcp.Sender.on_ack s a)
           | `Timeout ->
             let gen = Tcp.Sender.arm_timer s in
             ignore (Tcp.Sender.on_timeout s ~gen)
           | `Rtt r -> Tcp.Sender.observe_rtt s r);
          Tcp.Sender.snd_una s >= una0
          && Tcp.Sender.cwnd s >= 1.
          && Tcp.Sender.rto s >= Tcp.Sender.min_rto
          && Tcp.Sender.rto s <= Tcp.Sender.max_rto)
        ops)

(* ---------- Flowsim ---------- *)

let topo = lazy (Generator.generate ~seed:31 ())
let table = lazy (Routing_table.create (Lazy.force topo).Generator.graph)

let quick_params =
  { Flowsim.default_params with Flowsim.max_time = 30. }

let mk_flows specs =
  Array.of_list
    (List.map
       (fun (src, dst, start) ->
         { Flowsim.src; dst; size_bits = 8e6 (* 1 MB *); start })
       specs)

let test_flowsim_single_flow () =
  let table = Lazy.force table in
  (* 10 MB so the transfer spans many epochs and the average is sharp *)
  let flows = [| { Flowsim.src = 100; dst = 200; size_bits = 8e7; start = 0. } |] in
  let r = Flowsim.run ~params:quick_params table Flowsim.Bgp flows in
  Alcotest.(check int) "one flow" 1 (Array.length r.Flowsim.flows);
  let s = r.Flowsim.flows.(0) in
  Alcotest.(check bool) "completed" true s.Flowsim.completed;
  (* alone in the network: full link rate *)
  Alcotest.(check bool) "rate ~1Gbps" true (s.Flowsim.throughput > 0.85e9);
  Alcotest.(check int) "no switches under BGP" 0 s.Flowsim.switches

let test_flowsim_sharing () =
  let table = Lazy.force table in
  (* many flows between the same pair share the same default path *)
  let flows = mk_flows (List.init 4 (fun _ -> (100, 200, 0.))) in
  let r = Flowsim.run ~params:quick_params table Flowsim.Bgp flows in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check bool) "quarter of the link each" true
        (s.Flowsim.throughput < 0.3e9 && s.Flowsim.throughput > 0.15e9))
    r.Flowsim.flows

let test_flowsim_deterministic () =
  let table = Lazy.force table in
  let n = As_graph.n (Routing_table.graph table) in
  let flows =
    Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed:3 ()) ~n_ases:n ~count:150
      ~rate:2000. ()
  in
  let d = Deployment.full ~n in
  let r1 = Flowsim.run ~params:quick_params table (Flowsim.Mifo d) flows in
  let r2 = Flowsim.run ~params:quick_params table (Flowsim.Mifo d) flows in
  Alcotest.(check (array (float 1e-9))) "identical runs"
    (Flowsim.throughputs r1) (Flowsim.throughputs r2)

let test_flowsim_bgp_never_offloads () =
  let table = Lazy.force table in
  let flows = mk_flows (List.init 10 (fun i -> (100 + i, 200, 0.))) in
  let r = Flowsim.run ~params:quick_params table Flowsim.Bgp flows in
  check_float "no offload" 0. r.Flowsim.offload_fraction

let test_flowsim_mifo_paths_valley_free () =
  let table = Lazy.force table in
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  let flows =
    Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed:4 ()) ~n_ases:n ~count:300
      ~rate:4000. ()
  in
  let r = Flowsim.run ~params:quick_params table (Flowsim.Mifo (Deployment.full ~n)) flows in
  let switched = ref 0 in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      if s.Flowsim.used_alt then incr switched;
      Alcotest.(check bool) "final path valley-free" true
        (As_graph.path_is_valley_free g (Array.to_list s.Flowsim.final_path)))
    r.Flowsim.flows;
  Alcotest.(check bool) "some flows actually deflected" true (!switched > 0)

(* Diamond with a link failure: BGP flows stall forever, MIFO routes
   around within an epoch. *)
let test_flowsim_link_failure () =
  let g =
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
  in
  let table = Routing_table.create g in
  let flows =
    [|
      { Flowsim.src = 4; dst = 0; size_bits = 8e7; start = 0. };
      { Flowsim.src = 5; dst = 0; size_bits = 8e7; start = 0. };
    |]
  in
  let params = { Flowsim.default_params with Flowsim.max_time = 5. } in
  (* default paths run 3 -> 1 -> 0; cut (3, 1) at t = 0.05 *)
  let failures = [ (0.05, (3, 1)) ] in
  let bgp = Flowsim.run ~params ~failures table Flowsim.Bgp flows in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check bool) "BGP flow stalls on the dead link" false s.Flowsim.completed)
    bgp.Flowsim.flows;
  let mifo = Flowsim.run ~params ~failures table (Flowsim.Mifo (Deployment.full ~n:6)) flows in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check bool) "MIFO flow routes around" true s.Flowsim.completed;
      Alcotest.(check bool) "finishes quickly" true (s.Flowsim.finish < 1.0))
    mifo.Flowsim.flows

let test_flowsim_failure_validation () =
  let table = Lazy.force table in
  let flows = mk_flows [ (1, 2, 0.) ] in
  Alcotest.(check bool) "non-adjacent failure rejected" true
    (match Flowsim.run ~failures:[ (0., (1, 1)) ] table Flowsim.Bgp flows with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_flowsim_rejects_bad_specs () =
  let table = Lazy.force table in
  let bad = [| { Flowsim.src = 1; dst = 1; size_bits = 1.; start = 0. } |] in
  Alcotest.(check bool) "src=dst rejected" true
    (match Flowsim.run table Flowsim.Bgp bad with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Series sampling must stay phase-locked to the interval grid.  With
   dt = 0.01 and interval = 0.025, anchoring the cursor at the (dt-
   quantized) epoch time drifts the effective period to 0.03 — a 20%
   sample deficit.  The grid-snapped cursor yields exactly one sample
   per grid point covered by the run. *)
let test_flowsim_series_grid () =
  let table = Lazy.force table in
  let params =
    {
      Flowsim.default_params with
      Flowsim.max_time = 10.;
      series_interval = 0.025;
    }
  in
  (* one flow too large to finish: the sim runs the full horizon *)
  let flows = [| { Flowsim.src = 100; dst = 200; size_bits = 1e12; start = 0. } |] in
  let r = Flowsim.run ~params table Flowsim.Bgp flows in
  let expected =
    1 + int_of_float (Float.floor (r.Flowsim.sim_end /. params.Flowsim.series_interval))
  in
  Alcotest.(check int) "one sample per grid point" expected
    (Array.length r.Flowsim.series);
  (* sample timestamps strictly increase and never bunch (no catch-up
     bursts after idle gaps); a sample may fire up to dt late while the
     next lands back on the grid, so the spacing floor is interval - dt *)
  let late = mk_flows [ (100, 200, 0.); (101, 200, 8.) ] in
  let r2 = Flowsim.run ~params table Flowsim.Bgp late in
  let min_spacing =
    params.Flowsim.series_interval -. params.Flowsim.dt -. 1e-9
  in
  let ok = ref true in
  Array.iteri
    (fun i (t, _) ->
      if i > 0 then begin
        let prev, _ = r2.Flowsim.series.(i - 1) in
        if t -. prev < min_spacing then ok := false
      end)
    r2.Flowsim.series;
  Alcotest.(check bool) "no sample bunching" true !ok

(* Bad params used to hang [run]: [dt <= 0] never advances time and
   [series_interval <= 0] spins the sampling cursor. *)
let test_flowsim_param_validation () =
  let table = Lazy.force table in
  let flows = mk_flows [ (100, 200, 0.) ] in
  let d = Flowsim.default_params in
  let reject field params =
    match Flowsim.run ~params table Flowsim.Bgp flows with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %s" msg field) true
        (String.starts_with ~prefix:("Flowsim.run: " ^ field ^ " ") msg)
    | _ -> Alcotest.failf "%s: bad value accepted" field
  in
  List.iter
    (fun dt -> reject "dt" { d with Flowsim.dt })
    [ 0.; -0.01; Float.nan ];
  List.iter
    (fun series_interval -> reject "series_interval" { d with Flowsim.series_interval })
    [ 0.; -1.; Float.nan ];
  List.iter
    (fun link_capacity -> reject "link_capacity" { d with Flowsim.link_capacity })
    [ 0.; -1e9; Float.nan ];
  reject "max_time" { d with Flowsim.max_time = Float.nan };
  reject "congest_threshold" { d with Flowsim.congest_threshold = Float.nan };
  reject "clear_threshold" { d with Flowsim.clear_threshold = Float.nan }

(* Every field of a production result against the oracle's, floats
   compared bit for bit.  The oracle solves every epoch; production may
   skip clean ones but never solves more. *)
let check_same_result what (expected : Flowsim.result) (got : Flowsim.result) =
  let bits = Int64.bits_of_float in
  let f64 name a b = Alcotest.(check int64) (what ^ ": " ^ name) (bits a) (bits b) in
  Alcotest.(check int) (what ^ ": epochs") expected.Flowsim.epochs got.Flowsim.epochs;
  Alcotest.(check int) (what ^ ": oracle solves every epoch") expected.Flowsim.epochs
    expected.Flowsim.solves;
  Alcotest.(check bool)
    (what ^ ": production solves no more than the oracle")
    true
    (got.Flowsim.solves <= expected.Flowsim.solves);
  f64 "sim_end" expected.Flowsim.sim_end got.Flowsim.sim_end;
  f64 "offload" expected.Flowsim.offload_fraction got.Flowsim.offload_fraction;
  let series (r : Flowsim.result) =
    Array.map (fun (t, v) -> (bits t, bits v)) r.Flowsim.series
  in
  Alcotest.(check (array (pair int64 int64)))
    (what ^ ": series") (series expected) (series got);
  Alcotest.(check int) (what ^ ": flows")
    (Array.length expected.Flowsim.flows) (Array.length got.Flowsim.flows);
  Array.iteri
    (fun i (e : Flowsim.flow_stats) ->
      let g = got.Flowsim.flows.(i) in
      let name field = Printf.sprintf "flow %d %s" i field in
      Alcotest.(check (pair int int)) (what ^ ": " ^ name "endpoints")
        (e.Flowsim.spec.Flowsim.src, e.Flowsim.spec.Flowsim.dst)
        (g.Flowsim.spec.Flowsim.src, g.Flowsim.spec.Flowsim.dst);
      f64 (name "size") e.Flowsim.spec.Flowsim.size_bits g.Flowsim.spec.Flowsim.size_bits;
      f64 (name "start") e.Flowsim.spec.Flowsim.start g.Flowsim.spec.Flowsim.start;
      f64 (name "throughput") e.Flowsim.throughput g.Flowsim.throughput;
      f64 (name "finish") e.Flowsim.finish g.Flowsim.finish;
      Alcotest.(check bool) (what ^ ": " ^ name "completed") e.Flowsim.completed
        g.Flowsim.completed;
      Alcotest.(check int) (what ^ ": " ^ name "switches") e.Flowsim.switches
        g.Flowsim.switches;
      Alcotest.(check bool) (what ^ ": " ^ name "used_alt") e.Flowsim.used_alt
        g.Flowsim.used_alt;
      f64 (name "alt_time") e.Flowsim.alt_time g.Flowsim.alt_time;
      Alcotest.(check (array int)) (what ^ ": " ^ name "final_path") e.Flowsim.final_path
        g.Flowsim.final_path;
      f64 (name "final_rate") e.Flowsim.final_rate g.Flowsim.final_rate)
    expected.Flowsim.flows

let run_both ?params ?failures what table protocol flows =
  let got = Flowsim.run ?params ?failures table protocol flows in
  check_same_result what (Flowsim_oracle.run ?params ?failures table protocol flows) got;
  got

(* The production simulator skips the solve on clean epochs; the oracle
   solves every epoch with the reference allocator.  They must agree
   bit for bit on a full run — rates, series, everything.  This is the
   determinism contract the skipping rests on: skipping a solve is only
   sound because re-running it would reproduce the exact same floats. *)
let test_flowsim_engines_bit_identical () =
  let topo = Lazy.force topo in
  let table = Lazy.force table in
  let n = As_graph.n topo.Generator.graph in
  (* long-lived flows (hundreds of epochs each) so that most epochs see
     no arrival/completion/switch and are skippable *)
  let flows =
    Array.of_list
      (List.map
         (fun (src, dst, start) ->
           { Flowsim.src; dst; size_bits = 4e8; start })
         [
           (100, 200, 0.); (101, 200, 0.1); (102, 200, 0.2); (150, 250, 0.3);
           (151, 250, 2.0); (152, 250, 6.0); (103, 200, 6.1); (104, 200, 12.0);
         ])
  in
  let params = { quick_params with Flowsim.max_time = 20. } in
  let r = run_both ~params "long-lived" table (Flowsim.Mifo (Deployment.full ~n)) flows in
  (* the whole point: clean epochs were actually skipped *)
  Alcotest.(check bool) "skipping happened" true (r.Flowsim.solves < r.Flowsim.epochs)

(* Deflection gadget toward D = 0.  S = 4 reaches D over two hops via
   each of its customers C = 1 (the default, lower id) and C2 = 7, its
   peer P = 3 and its provider Q = 2; X = 5 is a provider and Y = 6 a
   peer of S whose only route runs through S.  S's RIB alternatives in
   preference order are C2, P, Q — the reverse of their id order. *)
let deflection_gadget () =
  As_graph.create ~n:8
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (3, 0, As_graph.Provider_customer);
        (7, 0, As_graph.Provider_customer);
        (4, 1, As_graph.Provider_customer);
        (4, 7, As_graph.Provider_customer);
        (2, 4, As_graph.Provider_customer);
        (5, 4, As_graph.Provider_customer);
        (4, 3, As_graph.Peer_peer);
        (4, 6, As_graph.Peer_peer);
      ]

(* Two epochs: the flows are ranked and adapted exactly once, against
   the rates of the first solve. *)
let one_adaptation = { Flowsim.default_params with Flowsim.max_time = 0.015 }

(* [k] equal, never-finishing flows from [src] to D, adapted once with
   only S MIFO-capable; every run is also checked against the oracle. *)
let deflect ?(params = one_adaptation) ?failures ?(selection = Flowsim.Greedy_local) ~src
    ~k what =
  let table = Routing_table.create (deflection_gadget ()) in
  let flows =
    Array.init k (fun _ -> { Flowsim.src; dst = 0; size_bits = 1e12; start = 0. })
  in
  let params = { params with Flowsim.alt_selection = selection } in
  run_both ~params ?failures what table (Flowsim.Mifo (Deployment.of_list ~n:8 [ 4 ])) flows

let test_flowsim_chooser_tie_to_lower_via () =
  List.iter
    (fun selection ->
      let r = deflect ~selection ~src:4 ~k:2 "tie" in
      (* every alternative has the full link spare: Q = 2 wins the tie
         although the RIB ranks it last *)
      Alcotest.(check (array int)) "first-ranked flow takes the lower via" [| 4; 2; 0 |]
        r.Flowsim.flows.(0).Flowsim.final_path;
      (* its move is charged to S -> Q, so the next flow sees more spare
         on S -> P = 3 than on S -> Q *)
      Alcotest.(check (array int)) "next flow sees the planned load" [| 4; 3; 0 |]
        r.Flowsim.flows.(1).Flowsim.final_path)
    [ Flowsim.Greedy_local; Flowsim.Oracle_bottleneck ]

let test_flowsim_chooser_valley_filter () =
  (* traffic entering S from its provider X or its peer Y may leave only
     toward a customer: C2 = 7, though P and Q have as much spare and
     lower ids *)
  List.iter
    (fun src ->
      let r = deflect ~src ~k:2 (Printf.sprintf "upstream %d" src) in
      Alcotest.(check (array int)) "deflected onto the customer alternative"
        [| src; 4; 7; 0 |] r.Flowsim.flows.(0).Flowsim.final_path)
    [ 5; 6 ]

let test_flowsim_chooser_margin_is_strict () =
  (* two flows at 1/2 capacity each; every alternative's spare is the
     full capacity, exactly rate * (1 + 1) *)
  let at margin =
    deflect
      ~params:{ one_adaptation with Flowsim.improve_margin = margin }
      ~src:4 ~k:2
      (Printf.sprintf "margin %g" margin)
  in
  let switches (r : Flowsim.result) =
    Array.fold_left (fun acc (s : Flowsim.flow_stats) -> acc + s.Flowsim.switches) 0
      r.Flowsim.flows
  in
  Alcotest.(check int) "spare equal to the threshold: no move" 0 (switches (at 1.));
  Alcotest.(check int) "spare just above it: both flows move" 2 (switches (at 0.99))

let test_flowsim_chooser_dead_link_scores_zero () =
  (* S's default link is down: its two flows get half the dead link's
     hair of capacity each, so a dead alternative's leftover hair
     would beat their rate by the margin if it were scored *)
  let dead = [ (0., (4, 1)); (0., (4, 2)); (0., (4, 3)) ] in
  let r = deflect ~failures:((0., (4, 7)) :: dead) ~src:4 ~k:2 "all dead" in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check int) "no move onto a dead link" 0 s.Flowsim.switches)
    r.Flowsim.flows;
  let r = deflect ~failures:dead ~src:4 ~k:2 "C2 alive" in
  Alcotest.(check (array int)) "the live alternative is taken" [| 4; 7; 0 |]
    r.Flowsim.flows.(0).Flowsim.final_path

(* A link failure must wake a network whose last pass moved nothing,
   and a completion must drop the finished flow from the next pass's
   order.  Three flows leave provider X = 5 through S = 4: E (to S,
   small), B (to S) and A (to D over S -> C = 1).  X -> S is their
   shared bottleneck, so S -> C is not congested and no pass moves
   anything.  E finishes in the epoch at t = 0.02, then S -> C fails
   and the epoch at t = 0.03 must move A onto S's only customer
   alternative C2 = 7 at once, before the solve starves it. *)
let test_flowsim_failure_wakes_settled_pass () =
  let table = Routing_table.create (deflection_gadget ()) in
  let rate = 1e9 /. 3. in
  let flows =
    [|
      { Flowsim.src = 5; dst = 4; size_bits = 0.025 *. rate; start = 0. };
      { Flowsim.src = 5; dst = 4; size_bits = 1e12; start = 0. };
      { Flowsim.src = 5; dst = 0; size_bits = 1e12; start = 0. };
    |]
  in
  let params = { Flowsim.default_params with Flowsim.max_time = 0.035 } in
  let r =
    run_both ~params ~failures:[ (0.025, (4, 1)) ] "settled" table
      (Flowsim.Mifo (Deployment.of_list ~n:8 [ 4 ]))
      flows
  in
  Alcotest.(check bool) "E completed" true r.Flowsim.flows.(0).Flowsim.completed;
  Alcotest.(check (array int)) "A moved in the failure epoch" [| 5; 4; 7; 0 |]
    r.Flowsim.flows.(2).Flowsim.final_path

(* The seed-31 snapshot under load, with every controller: the
   differential check against the oracle is not vacuous here, since
   MIFO and MIRO both move flows. *)
let test_flowsim_matches_oracle_under_load () =
  let table = Lazy.force table in
  let n = As_graph.n (Routing_table.graph table) in
  let flows =
    Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed:4 ()) ~n_ases:n ~count:300
      ~rate:4000. ()
  in
  let params = { quick_params with Flowsim.max_time = 3. } in
  let half = Deployment.fraction ~n ~ratio:0.5 ~seed:4 in
  let moved (r : Flowsim.result) =
    Array.exists (fun (s : Flowsim.flow_stats) -> s.Flowsim.switches > 0) r.Flowsim.flows
  in
  ignore (run_both ~params "bgp" table Flowsim.Bgp flows);
  Alcotest.(check bool) "MIRO moved flows" true
    (moved
       (run_both ~params "miro" table
          (Flowsim.Miro { deployment = Deployment.full ~n; cap = 5 })
          flows));
  Alcotest.(check bool) "MIFO moved flows" true
    (moved (run_both ~params "mifo" table (Flowsim.Mifo half) flows));
  (* dense small snapshots, where a stale adaptation order changes who
     gets a contested alternative *)
  List.iter
    (fun seed ->
      let g =
        (Generator.generate
           ~params:
             {
               Generator.default_params with
               Generator.ases = 30;
               tier1 = 3;
               content_providers = 1;
               content_peer_span = (1, 4);
             }
           ~seed ())
          .Generator.graph
      in
      let n = As_graph.n g in
      let flows =
        Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed ()) ~n_ases:n ~count:100
          ~rate:500. ~size_bits:2e8 ()
      in
      let params = { Flowsim.default_params with Flowsim.max_time = 2. } in
      ignore
        (run_both ~params (Printf.sprintf "dense %d" seed) (Routing_table.create g)
           (Flowsim.Mifo (Deployment.fraction ~n ~ratio:0.5 ~seed))
           flows))
    [ 1; 5; 10 ]

let prop_flowsim_matches_oracle =
  QCheck2.Test.make ~name:"flowsim: every result matches the reference simulator"
    ~count:60
    QCheck2.Gen.(
      quad
        (pair (int_range 12 120) (int_bound 1000))
        (pair (int_bound 2) (float_bound_inclusive 1.))
        bool
        (pair (int_range 2 60) (list_size (int_bound 3) (pair (int_bound 1000) (float_bound_inclusive 1.)))))
    (fun ((ases, seed), (proto, ratio), oracle_sel, (count, cuts)) ->
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
      let table = Routing_table.create g in
      let flows =
        Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed ()) ~n_ases:n ~count
          ~rate:200. ~size_bits:2e8 ()
      in
      let deployment = Deployment.fraction ~n ~ratio ~seed in
      let protocol =
        match proto with
        | 0 -> Flowsim.Bgp
        | 1 -> Flowsim.Miro { deployment; cap = 1 + (seed mod 5) }
        | _ -> Flowsim.Mifo deployment
      in
      (* link failures: the first neighbor of a random AS, at a random time *)
      let failures =
        List.map
          (fun (v, at) ->
            let u = v mod n in
            (at, (u, (As_graph.neighbors g u).(0))))
          cuts
      in
      let params =
        {
          Flowsim.default_params with
          Flowsim.max_time = 2.;
          miro_reaction = 0.1;
          alt_selection = (if oracle_sel then Flowsim.Oracle_bottleneck else Flowsim.Greedy_local);
        }
      in
      ignore (run_both ~params ~failures "generated" table protocol flows);
      true)

(* ---------- Packetsim ---------- *)

(* Two hosts connected through two routers in a line. *)
let line_network ?config ?(rate = 1e9) () =
  let sim = Packetsim.create ?config () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate () in
  let _, r2h = Packetsim.connect sim ~a:h2 ~b:r2 ~kind_ab:local ~kind_ba:local ~rate () in
  let r1r2, r2r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 2) ~out_port:r1r2 ();
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 2) ~out_port:r2h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 1) ~out_port:r2r1 ();
  (sim, h1, h2)

let test_packetsim_transfer_completes () =
  let sim, h1, h2 = line_network () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:1_000_000 ~start:0. in
  Packetsim.run sim;
  let results = Packetsim.flow_results sim in
  Alcotest.(check int) "one flow" 1 (Array.length results);
  (match results.(0).Packetsim.finish with
   | Some f ->
     (* 8 Mbit at ~1 Gbps with ACK overhead: well under 100 ms *)
     Alcotest.(check bool) "reasonable FCT" true (f > 0.008 && f < 0.1)
   | None -> Alcotest.fail "did not finish");
  let c = Packetsim.counters sim in
  Alcotest.(check int) "all segments delivered" 1000 c.Packetsim.delivered_packets;
  Alcotest.(check int) "no valley drops" 0 c.Packetsim.dropped_valley

let test_packetsim_goodput_series () =
  let sim, h1, h2 = line_network () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  Packetsim.run sim;
  let series = Packetsim.throughput_series sim in
  let total_bits =
    Array.fold_left (fun acc (_, v) -> acc +. (v *. (Packetsim.config sim).Packetsim.series_interval)) 0. series
  in
  Alcotest.(check bool) "series accounts for the transfer" true
    (abs_float (total_bits -. 16e6) < 16e4)

let test_packetsim_two_flows_share () =
  let sim, h1, h2 = line_network () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  Packetsim.run sim;
  let results = Packetsim.flow_results sim in
  Array.iter
    (fun (r : Packetsim.flow_result) ->
      match r.Packetsim.finish with
      | Some f -> Alcotest.(check bool) "both slower than solo" true (f > 0.02)
      | None -> Alcotest.fail "did not finish")
    results

(* End-to-end bit-identity of packet trains: the same workload — a TCP
   transfer with queue drops and retransmissions plus an open-loop UDP
   blast — must produce identical observable results with and without
   trains.  Per-packet scheduling is the oracle; trains are the
   production fast path.  (The queue under both is the timing wheel,
   whose equivalence to the heap oracle is the eventq gate.) *)
let pkt_fingerprint sim =
  let finishes =
    Array.map
      (fun (r : Packetsim.flow_result) ->
        match r.Packetsim.finish with
        | Some f -> Int64.bits_of_float f
        | None -> Int64.minus_one)
      (Packetsim.flow_results sim)
  in
  (Packetsim.events_processed sim, finishes, Packetsim.counters sim)

let test_packetsim_engines_bit_identical () =
  let run trains =
    let config =
      { Packetsim.default_config with Packetsim.packet_trains = trains; queue_bits = 100_000 }
    in
    let sim, h1, h2 = line_network ~config ~rate:1e8 () in
    let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:400_000 ~start:0. in
    let _ = Packetsim.add_udp_flow sim ~src:h1 ~dst:h2 ~bytes:200_000 ~start:0.002 () in
    Packetsim.run ~until:30. sim;
    let c = Packetsim.counters sim in
    Alcotest.(check bool) "small queue forces drops" true (c.Packetsim.dropped_queue > 0);
    pkt_fingerprint sim
  in
  Alcotest.(check bool) "trains bit-identical to per-packet scheduling" true
    (run true = run false)

let test_packetsim_ttl_on_routing_loop () =
  (* misconfigured FIBs that point at each other: packets must die by TTL,
     not hang the simulator *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  ignore (Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate:1e9 ());
  let r1r2, r2r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Peer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Peer })
      ~rate:1e9 ()
  in
  (* both routers send AS1-destined traffic at each other: a routing loop *)
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1r2 ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 1) ~out_port:r2r1 ();
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h1 ~bytes:1000 ~start:0. in
  Packetsim.run ~until:1.0 sim;
  let c = Packetsim.counters sim in
  Alcotest.(check bool) "loop killed by ttl" true (c.Packetsim.dropped_ttl > 0)

let test_packetsim_tunnel_transit () =
  (* Regression (tunnel-transit bug).  AS 1 has three border routers
     r1 -- r2 -- r3 in a line (non-full-mesh iBGP, so r1's tunnel to r3
     transits r2) plus an eBGP neighbor rx.  r1's default egress for the
     destination is congested-by-decree (deflect_buckets pinned at max),
     so every packet is tunneled to r3 and crosses r2 IN TRANSIT.  r2
     itself also deflects the destination prefix toward its eBGP
     alternative.  Pre-fix, r2 looked the tunneled packet up by its
     INNER destination, hash-deflected it out the eBGP port still
     encapsulated, and the transfer stalled at a no-route neighbor;
     post-fix it is routed on the outer header to r3, decapsulated there
     and delivered. *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:1 in
  let r3 = Packetsim.add_router sim ~as_id:1 in
  let rx = Packetsim.add_router sim ~as_id:3 in
  let local = Engine.Local in
  let rate = 1e9 in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate () in
  let _, r3h = Packetsim.connect sim ~a:h2 ~b:r3 ~kind_ab:local ~kind_ba:local ~rate () in
  (* r1 reaches iBGP peer r3 through r2: the port toward r2 is how r1
     sees the path to r3, and r2 in turn owns a direct port to r3 *)
  let r1_r2, r2_r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ibgp { peer_router = r3 })
      ~kind_ba:(Engine.Ibgp { peer_router = r1 })
      ~rate ()
  in
  let r2_r3, r3_r2 =
    Packetsim.connect sim ~a:r2 ~b:r3
      ~kind_ab:(Engine.Ibgp { peer_router = r3 })
      ~kind_ba:(Engine.Ibgp { peer_router = r2 })
      ~rate ()
  in
  (* eBGP customer rx: r1's default egress and r2's tempting alternative.
     A CUSTOMER, so the tag-check alone would not stop the leak. *)
  let r1_rx, _ =
    Packetsim.connect sim ~a:r1 ~b:rx
      ~kind_ab:(Engine.Ebgp { neighbor_as = 3; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  let r2_rx, _ =
    Packetsim.connect sim ~a:r2 ~b:rx
      ~kind_ab:(Engine.Ebgp { neighbor_as = 3; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  let pin fib prefix ~out_port ~alt_port =
    Fib.insert fib prefix ~out_port ~alt_port ();
    Fib.set_deflect_buckets (Option.get (Fib.find fib prefix)) Fib.buckets
  in
  let dst = Prefix.of_as 2 and back = Prefix.of_as 1 in
  (* r1: default egress rx (a dead end), alternative = tunnel to r3 *)
  pin (Packetsim.fib sim r1) dst ~out_port:r1_rx ~alt_port:r1_r2;
  Fib.insert (Packetsim.fib sim r1) back ~out_port:r1h ();
  (* r2: also deflecting the destination prefix toward its eBGP port *)
  pin (Packetsim.fib sim r2) dst ~out_port:r2_r3 ~alt_port:r2_rx;
  Fib.insert (Packetsim.fib sim r2) back ~out_port:r2_r1 ();
  Fib.insert (Packetsim.fib sim r3) dst ~out_port:r3h ();
  Fib.insert (Packetsim.fib sim r3) back ~out_port:r3_r2 ();
  (* rx: no route anywhere - a leaked tunnel dies here *)
  let transit0 = Mifo_util.Obs.counter_value "engine.transit.routed" in
  let transits = ref 0 and leaked = ref 0 in
  Packetsim.set_tracer sim (fun _ node p action ->
      match action with
      | Engine.Send { port; packet = p'; _ } ->
        if node = r2 && p.Mifo_core.Packet.encap <> None then begin
          incr transits;
          if port <> r2_r3 || p'.Mifo_core.Packet.encap = None then incr leaked
        end
      | Engine.Drop _ -> ());
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:100_000 ~start:0. in
  Packetsim.run ~until:1.0 sim;
  Alcotest.(check bool) "tunneled packets crossed r2" true (!transits > 0);
  Alcotest.(check int) "none deflected off the tunnel path" 0 !leaked;
  (match (Packetsim.flow_results sim).(0).Packetsim.finish with
   | Some _ -> ()
   | None -> Alcotest.fail "transfer stalled: tunnel leaked out of the AS");
  let c = Packetsim.counters sim in
  Alcotest.(check int) "all segments delivered" 100 c.Packetsim.delivered_packets;
  Alcotest.(check int) "nothing lost to no-route" 0 c.Packetsim.dropped_no_route;
  Alcotest.(check bool) "transit hops counted" true
    (Mifo_util.Obs.counter_value "engine.transit.routed" > transit0)

let test_packetsim_ranked_chooser () =
  (* A ranked chooser drives Daemon.epoch_ranked from the daemon tick:
     r1's slow default link to AS 2 congests, the chooser offers its two
     fast parallel links as a ranked pair, and the daemon installs both
     slots and ramps the deflection level against the set. *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  let down = Engine.Ebgp { neighbor_as = 2; rel = Relationship.Customer } in
  let up = Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider } in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate:1e9 () in
  let _, r2h = Packetsim.connect sim ~a:h2 ~b:r2 ~kind_ab:local ~kind_ba:local ~rate:1e9 () in
  let slow, slow_back =
    Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:down ~kind_ba:up ~rate:10e6 ()
  in
  let alt_a, _ = Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:down ~kind_ba:up ~rate:1e9 () in
  let alt_b, _ = Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:down ~kind_ba:up ~rate:1e9 () in
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 2) ~out_port:slow ();
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 2) ~out_port:r2h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 1) ~out_port:slow_back ();
  Packetsim.set_ranked_chooser sim r1 (fun _ _ -> [ alt_a; alt_b ]);
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  Packetsim.run ~until:10. sim;
  let entry = Option.get (Fib.find (Packetsim.fib sim r1) (Prefix.of_as 2)) in
  Alcotest.(check (list int)) "ranked pair installed" [ alt_a; alt_b; -1; -1 ]
    (List.init Fib.max_alts (Fib.alt_at entry));
  Alcotest.(check bool) "daemon ramped against the set" true
    (Fib.deflect_buckets entry > 0);
  let c = Packetsim.counters sim in
  Alcotest.(check bool) "packets deflected" true (c.Packetsim.deflected > 0);
  Array.iter
    (fun (r : Packetsim.flow_result) ->
      match r.Packetsim.finish with
      | Some _ -> ()
      | None -> Alcotest.fail "transfer did not complete")
    (Packetsim.flow_results sim)

(* ---------- Packetsim engines ---------- *)

(* A same-instant tie.  Two sources each deliver one UDP segment to the
   same router at the same instant (symmetric links, symmetric sources),
   and the link toward the sink has room for one segment.  Flow A was
   added first, so its segment is scheduled first and wins the queue;
   B's is tail-dropped.  Trains and per-packet scheduling must break the
   tie the same way. *)
let test_packetsim_same_instant_tie () =
  let run ~trains =
    let config = { Packetsim.default_config with Packetsim.packet_trains = trains } in
    let sim = Packetsim.create ~config () in
    let ha = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
    let hb = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
    let hc = Packetsim.add_host sim ~addr:(Prefix.host_of_as 3 1) in
    let ra = Packetsim.add_router sim ~as_id:1 in
    let rb = Packetsim.add_router sim ~as_id:2 in
    let rc = Packetsim.add_router sim ~as_id:3 in
    let local = Engine.Local in
    let down as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Customer } in
    let up as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Provider } in
    let rate = 1e8 in
    ignore (Packetsim.connect sim ~a:ha ~b:ra ~kind_ab:local ~kind_ba:local ~rate ());
    ignore (Packetsim.connect sim ~a:hb ~b:rb ~kind_ab:local ~kind_ba:local ~rate ());
    let _, rc_h =
      (* sink link: room for one 8000-bit segment in flight, not two *)
      Packetsim.connect sim ~a:hc ~b:rc ~kind_ab:local ~kind_ba:local ~rate
        ~queue_bits:9_000 ()
    in
    let ra_rc, rc_ra =
      Packetsim.connect sim ~a:ra ~b:rc ~kind_ab:(down 3) ~kind_ba:(up 1) ~rate
        ~delay:100e-6 ()
    in
    let rb_rc, rc_rb =
      Packetsim.connect sim ~a:rb ~b:rc ~kind_ab:(down 3) ~kind_ba:(up 2) ~rate
        ~delay:100e-6 ()
    in
    Fib.insert (Packetsim.fib sim ra) (Prefix.of_as 3) ~out_port:ra_rc ();
    Fib.insert (Packetsim.fib sim rb) (Prefix.of_as 3) ~out_port:rb_rc ();
    Fib.insert (Packetsim.fib sim rc) (Prefix.of_as 3) ~out_port:rc_h ();
    Fib.insert (Packetsim.fib sim rc) (Prefix.of_as 1) ~out_port:rc_ra ();
    Fib.insert (Packetsim.fib sim rc) (Prefix.of_as 2) ~out_port:rc_rb ();
    let fa = Packetsim.add_udp_flow sim ~src:ha ~dst:hc ~bytes:1_000 ~start:0. () in
    let fb = Packetsim.add_udp_flow sim ~src:hb ~dst:hc ~bytes:1_000 ~start:0. () in
    Packetsim.run sim;
    let finished f = Option.is_some (Packetsim.flow_results sim).(f).Packetsim.finish in
    let c = Packetsim.counters sim in
    ( finished fa,
      finished fb,
      c.Packetsim.delivered_packets,
      c.Packetsim.dropped_queue )
  in
  List.iter
    (fun trains ->
      let a_won, b_won, delivered, dropped = run ~trains in
      let what msg = Printf.sprintf "%s (trains=%b)" msg trains in
      Alcotest.(check bool) (what "first-added flow wins the tie") true a_won;
      Alcotest.(check bool) (what "second flow loses the queue race") false b_won;
      Alcotest.(check int) (what "one segment through") 1 delivered;
      Alcotest.(check int) (what "one segment tail-dropped") 1 dropped)
    [ false; true ]

(* Random dumbbells for the trains identity gate: n_l + n_r stub ASes
   (one router + one host each) joined through two core routers over a
   narrow bottleneck.  Per-stub delay jitter spreads the arrivals over
   distinct times; the tiny core rate forces queue drops. *)
let dumbbell_network ?config ~n_l ~n_r () =
  let sim = Packetsim.create ?config () in
  let local = Engine.Local in
  let down as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Customer } in
  let up as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Provider } in
  let lcore = Packetsim.add_router sim ~as_id:100 in
  let rcore = Packetsim.add_router sim ~as_id:200 in
  let mk_stub ~core ~core_as i as_id =
    let r = Packetsim.add_router sim ~as_id in
    let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as as_id 1) in
    let _, r_h =
      Packetsim.connect sim ~a:h ~b:r ~kind_ab:local ~kind_ba:local ~rate:1e8 ()
    in
    let delay = 50e-6 *. (1. +. (float_of_int ((7 * i) + 1) /. 13.)) in
    let r_core, core_r =
      Packetsim.connect sim ~a:r ~b:core ~kind_ab:(down core_as)
        ~kind_ba:(up as_id) ~rate:1e8 ~delay ()
    in
    (r, h, r_h, r_core, core_r)
  in
  let left = Array.init n_l (fun i -> mk_stub ~core:lcore ~core_as:100 i (1 + i)) in
  let right =
    Array.init n_r (fun i -> mk_stub ~core:rcore ~core_as:200 (n_l + i) (51 + i))
  in
  let lc_rc, rc_lc =
    Packetsim.connect sim ~a:lcore ~b:rcore ~kind_ab:(down 200) ~kind_ba:(up 100)
      ~rate:20e6 ~delay:200e-6 ()
  in
  (* stub i's own prefix: down its host port from both its router and
     its core; every far-side prefix: toward the core / the bottleneck *)
  Array.iteri
    (fun i (r, _, r_h, r_core, core_r) ->
      Fib.insert (Packetsim.fib sim r) (Prefix.of_as (1 + i)) ~out_port:r_h ();
      Fib.insert (Packetsim.fib sim lcore) (Prefix.of_as (1 + i)) ~out_port:core_r ();
      for j = 0 to n_r - 1 do
        Fib.insert (Packetsim.fib sim r) (Prefix.of_as (51 + j)) ~out_port:r_core ()
      done)
    left;
  Array.iteri
    (fun j (r, _, r_h, r_core, core_r) ->
      Fib.insert (Packetsim.fib sim r) (Prefix.of_as (51 + j)) ~out_port:r_h ();
      Fib.insert (Packetsim.fib sim rcore) (Prefix.of_as (51 + j)) ~out_port:core_r ();
      for i = 0 to n_l - 1 do
        Fib.insert (Packetsim.fib sim r) (Prefix.of_as (1 + i)) ~out_port:r_core ()
      done)
    right;
  for j = 0 to n_r - 1 do
    Fib.insert (Packetsim.fib sim lcore) (Prefix.of_as (51 + j)) ~out_port:lc_rc ()
  done;
  for i = 0 to n_l - 1 do
    Fib.insert (Packetsim.fib sim rcore) (Prefix.of_as (1 + i)) ~out_port:rc_lc ()
  done;
  let hosts arr = Array.map (fun (_, h, _, _, _) -> h) arr in
  (sim, hosts left, hosts right)

let dumbbell_obs_keys =
  [
    "packetsim.delivered";
    "packetsim.dropped.queue";
    "packetsim.dropped.ttl";
    "engine.encap";
    "engine.deflect.ebgp";
    "daemon.alt_changed";
    "daemon.buckets_reset";
  ]

(* One run of a generated workload with or without trains; returns the
   full observable fingerprint including Obs counter deltas. *)
let run_dumbbell ~trains (n_l, n_r, flow_specs) =
  let config =
    { Packetsim.default_config with Packetsim.packet_trains = trains; queue_bits = 100_000 }
  in
  let sim, lh, rh = dumbbell_network ~config ~n_l ~n_r () in
  List.iteri
    (fun k (ltr, si, di, kb, start_ms, udp) ->
      let src, dst =
        if ltr then (lh.(si mod n_l), rh.(di mod n_r))
        else (rh.(si mod n_r), lh.(di mod n_l))
      in
      let bytes = 8_000 + (kb * 1_000) in
      let start = float_of_int ((start_ms * 2) + k) /. 1000. in
      if udp then ignore (Packetsim.add_udp_flow sim ~src ~dst ~bytes ~start ())
      else ignore (Packetsim.add_flow sim ~src ~dst ~bytes ~start))
    flow_specs;
  let obs0 = List.map Mifo_util.Obs.counter_value dumbbell_obs_keys in
  Packetsim.run ~until:30. sim;
  let obs_delta =
    List.map2
      (fun k v0 -> Mifo_util.Obs.counter_value k - v0)
      dumbbell_obs_keys obs0
  in
  let series =
    Array.map (fun (_, v) -> Int64.bits_of_float v) (Packetsim.throughput_series sim)
  in
  (pkt_fingerprint sim, obs_delta, series, Packetsim.path_switches sim)

(* The trains gate: trains bit-identical (counters, finish times, event
   counts, goodput series, Obs counters) to the per-packet oracle on
   random dumbbells with drops and UDP blasts. *)
let prop_packetsim_engines_identical =
  QCheck2.Test.make ~name:"packetsim: trains bit-identical to per-packet"
    ~count:6
    QCheck2.Gen.(
      triple (int_range 2 3) (int_range 2 3)
        (list_size (int_range 2 6)
           (tup6 bool (int_bound 3) (int_bound 3) (int_range 12 120)
              (int_bound 10) bool)))
    (fun w -> run_dumbbell ~trains:true w = run_dumbbell ~trains:false w)

let () =
  Alcotest.run "mifo_netsim"
    [
      ( "eventq",
        [
          Alcotest.test_case "time order" `Quick test_eventq_order;
          Alcotest.test_case "stable on ties" `Quick test_eventq_stable;
          Alcotest.test_case "rejects bad times" `Quick test_eventq_rejects_bad_time;
          Alcotest.test_case "clear resets the sequence counter" `Quick
            test_eventq_clear_resets_seq;
          Alcotest.test_case "pop_before drives the time cell" `Quick
            test_eventq_pop_before_time_cell;
          QCheck_alcotest.to_alcotest prop_eventq_fifo_ties;
          QCheck_alcotest.to_alcotest prop_eventq_engines_agree;
        ] );
      ( "maxmin",
        [
          Alcotest.test_case "two flows one link" `Quick test_maxmin_two_flows_one_link;
          Alcotest.test_case "classic three flows" `Quick test_maxmin_classic;
          Alcotest.test_case "empty path" `Quick test_maxmin_empty_path;
          Alcotest.test_case "all flows empty" `Quick test_maxmin_all_empty_flows;
          Alcotest.test_case "duplicate links" `Quick test_maxmin_duplicate_links_counted_once;
          Alcotest.test_case "input validation" `Quick test_maxmin_rejects_bad_input;
          QCheck_alcotest.to_alcotest prop_maxmin_feasible;
          QCheck_alcotest.to_alcotest prop_maxmin_bottleneck;
        ] );
      ( "maxmin_solver",
        [
          Alcotest.test_case "input validation and slot lifecycle" `Quick
            test_solver_validation;
          QCheck_alcotest.to_alcotest prop_solver_matches_reference;
          QCheck_alcotest.to_alcotest prop_solver_slot_reuse;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "window pump" `Quick test_tcp_window_pump;
          Alcotest.test_case "slow start" `Quick test_tcp_slow_start_growth;
          Alcotest.test_case "fast retransmit" `Quick test_tcp_fast_retransmit;
          Alcotest.test_case "timeout go-back-n" `Quick test_tcp_timeout_gobackn;
          Alcotest.test_case "completion" `Quick test_tcp_done;
          Alcotest.test_case "rtt estimator" `Quick test_tcp_rtt_estimator;
          Alcotest.test_case "receiver reordering" `Quick test_tcp_receiver_reorder;
          QCheck_alcotest.to_alcotest prop_tcp_sender_invariants;
        ] );
      ( "flowsim",
        [
          Alcotest.test_case "single flow at line rate" `Quick test_flowsim_single_flow;
          Alcotest.test_case "flows share fairly" `Quick test_flowsim_sharing;
          Alcotest.test_case "deterministic" `Quick test_flowsim_deterministic;
          Alcotest.test_case "bgp never offloads" `Quick test_flowsim_bgp_never_offloads;
          Alcotest.test_case "mifo final paths valley-free" `Quick
            test_flowsim_mifo_paths_valley_free;
          Alcotest.test_case "spec validation" `Quick test_flowsim_rejects_bad_specs;
          Alcotest.test_case "link failure: BGP stalls, MIFO survives" `Quick
            test_flowsim_link_failure;
          Alcotest.test_case "failure validation" `Quick test_flowsim_failure_validation;
          Alcotest.test_case "engines bit-identical, skipping real" `Quick
            test_flowsim_engines_bit_identical;
          Alcotest.test_case "series locked to the sampling grid" `Quick
            test_flowsim_series_grid;
          Alcotest.test_case "param validation" `Quick test_flowsim_param_validation;
          Alcotest.test_case "chooser: equal spare to the lower via" `Quick
            test_flowsim_chooser_tie_to_lower_via;
          Alcotest.test_case "chooser: upstream valley filter" `Quick
            test_flowsim_chooser_valley_filter;
          Alcotest.test_case "chooser: margin is strict" `Quick
            test_flowsim_chooser_margin_is_strict;
          Alcotest.test_case "chooser: dead link scores zero" `Quick
            test_flowsim_chooser_dead_link_scores_zero;
          Alcotest.test_case "failure wakes a settled pass" `Quick
            test_flowsim_failure_wakes_settled_pass;
          Alcotest.test_case "matches the reference under load" `Quick
            test_flowsim_matches_oracle_under_load;
          QCheck_alcotest.to_alcotest prop_flowsim_matches_oracle;
        ] );
      ( "packetsim",
        [
          Alcotest.test_case "tcp transfer completes" `Quick test_packetsim_transfer_completes;
          Alcotest.test_case "goodput series conserves bytes" `Quick test_packetsim_goodput_series;
          Alcotest.test_case "two flows share a link" `Quick test_packetsim_two_flows_share;
          Alcotest.test_case "routing loop dies by ttl" `Quick test_packetsim_ttl_on_routing_loop;
          Alcotest.test_case "trains bit-identical to per-packet end to end" `Quick
            test_packetsim_engines_bit_identical;
          Alcotest.test_case "tunnel transits an intermediate router" `Quick
            test_packetsim_tunnel_transit;
          Alcotest.test_case "ranked chooser drives epoch_ranked" `Quick
            test_packetsim_ranked_chooser;
        ] );
      ( "packetsim_engines",
        [
          Alcotest.test_case "same-instant tie: first-added flow wins" `Quick
            test_packetsim_same_instant_tie;
          QCheck_alcotest.to_alcotest prop_packetsim_engines_identical;
        ] );
    ]
