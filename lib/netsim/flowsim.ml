module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Deployment = Mifo_core.Deployment
module Policy = Mifo_core.Policy

type protocol =
  | Bgp
  | Mifo of Deployment.t
  | Miro of { deployment : Deployment.t; cap : int }

type alt_selection = Greedy_local | Oracle_bottleneck

type params = {
  link_capacity : float;
  dt : float;
  congest_threshold : float;
  clear_threshold : float;
  improve_margin : float;
  miro_reaction : float;
  max_time : float;
  series_interval : float;
  alt_selection : alt_selection;
}

let default_params =
  {
    link_capacity = 1e9;
    dt = 0.01;
    congest_threshold = 0.95;
    clear_threshold = 0.60;
    improve_margin = 0.2;
    miro_reaction = 0.5;
    max_time = 120.;
    series_interval = 0.25;
    alt_selection = Greedy_local;
  }

type flow_spec = { src : int; dst : int; size_bits : float; start : float }

type flow_stats = {
  spec : flow_spec;
  throughput : float;
  finish : float;
  completed : bool;
  switches : int;
  used_alt : bool;
  alt_time : float;
  final_path : int array;
  final_rate : float;
}

type result = {
  flows : flow_stats array;
  offload_fraction : float;
  series : (float * float) array;
  epochs : int;
  solves : int;
  sim_end : float;
}

(* Directed inter-AS links, densely numbered u-major: [u]'s outgoing
   links are [off.(u) ..], in the order of the sorted
   [As_graph.neighbors g u]. *)
module Links = struct
  type t = { g : As_graph.t; off : int array }

  let create g =
    let n = As_graph.n g in
    let off = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      off.(u + 1) <- off.(u) + As_graph.degree g u
    done;
    { g; off }

  let id t u v =
    let i = Mifo_util.Sort.find_first (As_graph.neighbors t.g u) v in
    if i < 0 then invalid_arg "Flowsim: not an adjacency";
    t.off.(u) + i

  let count t = t.off.(Array.length t.off - 1)
end

type flow = {
  spec : flow_spec;
  idx : int;
  rt : Routing.t;  (* routing state toward [spec.dst] *)
  default_path : int array;
  default_links : int array;
  mutable path : int array;
  mutable links : int array;
  mutable on_default : bool;
  mutable rate : float;
  mutable remaining : float;
  mutable switches : int;
  mutable used_alt : bool;
  mutable alt_time : float;
  mutable finish : float;
  mutable completed : bool;
  mutable slot : int;  (* Maxmin.Solver flow handle; -1 while inactive *)
}

let path_links links_reg path =
  Array.init
    (Array.length path - 1)
    (fun i -> Links.id links_reg path.(i) path.(i + 1))

(* Paths are a few hops long, so a quadratic scan beats hashing. *)
let path_has_dup path =
  let len = Array.length path in
  let dup = ref false in
  let i = ref 1 in
  while (not !dup) && !i < len do
    let v = path.(!i) in
    for j = 0 to !i - 1 do
      if path.(j) = v then dup := true
    done;
    incr i
  done;
  !dup

(* Splice: keep [path] up to index [i] (inclusive), then go via [nb] and
   follow nb's default path to the destination. *)
let splice rt path i nb =
  let prefix = Array.sub path 0 (i + 1) in
  let continuation = Array.of_list (Routing.default_path rt nb) in
  Array.append prefix continuation

(* a failed link keeps a hair of capacity so utilization stays defined *)
let dead_capacity = 1.0

module Obs = Mifo_util.Obs

let c_epochs = Obs.counter "flowsim.epochs"
let c_switches = Obs.counter "flowsim.path_switches"
let c_completed = Obs.counter "flowsim.completed"
let c_resumed = Obs.counter "flowsim.resumed_default"
let c_solves = Obs.counter "flowsim.solver.solves"
let c_skipped = Obs.counter "flowsim.solver.skipped_epochs"

(* [dt <= 0] would never advance time and [series_interval <= 0] would
   spin the sampling cursor, so both loops would hang. *)
let validate_params p =
  let positive name x =
    if not (x > 0.) then
      invalid_arg (Printf.sprintf "Flowsim.run: %s must be positive, got %g" name x)
  and not_nan name x =
    if Float.is_nan x then invalid_arg (Printf.sprintf "Flowsim.run: %s is NaN" name)
  in
  positive "dt" p.dt;
  positive "series_interval" p.series_interval;
  positive "link_capacity" p.link_capacity;
  not_nan "max_time" p.max_time;
  not_nan "congest_threshold" p.congest_threshold;
  not_nan "clear_threshold" p.clear_threshold

(* Ascending [(rate, idx)] with [Float.compare] semantics: a total
   order, since [idx] is unique. *)
let ranks_after a b =
  let c = Float.compare a.rate b.rate in
  c > 0 || (c = 0 && a.idx > b.idx)

(* In-place heapsort of [a.(0 .. len-1)] by [ranks_after]: the order is
   total, so the result is the unique sorted sequence. *)
let sort_by_rank (a : flow array) len =
  let rec sift i hi =
    let l = (2 * i) + 1 in
    if l < hi then begin
      let c = if l + 1 < hi && ranks_after a.(l + 1) a.(l) then l + 1 else l in
      if ranks_after a.(c) a.(i) then begin
        let tmp = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- tmp;
        sift c hi
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for hi = len - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(hi);
    a.(hi) <- tmp;
    sift 0 hi
  done

let run ?(params = default_params) ?(failures = []) table protocol flow_specs =
  validate_params params;
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  Array.iter
    (fun s ->
      if s.src < 0 || s.src >= n || s.dst < 0 || s.dst >= n then
        invalid_arg "Flowsim.run: endpoint out of range";
      if s.src = s.dst then invalid_arg "Flowsim.run: src = dst";
      if s.size_bits <= 0. then invalid_arg "Flowsim.run: empty flow";
      if s.start < 0. then invalid_arg "Flowsim.run: negative start time")
    flow_specs;
  List.iter
    (fun (at, (u, v)) ->
      if at < 0. then invalid_arg "Flowsim.run: negative failure time";
      if As_graph.rel g u v = None then
        invalid_arg "Flowsim.run: failed link is not an adjacency")
    failures;
  let links_reg = Links.create g in
  let nlinks = Links.count links_reg in
  let capacities = Array.make nlinks params.link_capacity in
  let solver = Maxmin.Solver.create ~capacity:params.link_capacity ~nlinks () in
  (* Does the solver state (membership or capacities) differ from the
     last solve?  Set on arrival, completion, path switch, and link
     failure; when clear, this epoch's solve would be bit-identical to
     the previous one and can be skipped outright. *)
  let dirty = ref true in
  let solves = ref 0 in
  (* Set by an adaptation pass; cleared by a solve, an arrival or a link
     failure.  A pass that moves a flow is followed by a solve in the same
     epoch, so while this is set the last pass moved nothing, and the next one would replay
     it exactly: with [planned] left at 0, each flow's decision reads
     only rates, link loads, capacities and its own path, which only
     those events change (a completion just drops a flow from the pass).
     Such passes are skipped. *)
  let settled = ref false in
  let pending_failures =
    ref
      (List.sort
         (fun (t1, (u1, v1)) (t2, (u2, v2)) ->
           let c = Float.compare t1 t2 in
           if c <> 0 then c
           else begin
             let c = Int.compare u1 u2 in
             if c <> 0 then c else Int.compare v1 v2
           end)
         failures)
  in
  let apply_due_failures now =
    let rec go () =
      match !pending_failures with
      | (at, (u, v)) :: rest when at <= now ->
        pending_failures := rest;
        settled := false;
        (* both directions of the physical link go dark *)
        let luv = Links.id links_reg u v and lvu = Links.id links_reg v u in
        capacities.(luv) <- dead_capacity;
        capacities.(lvu) <- dead_capacity;
        Maxmin.Solver.set_capacity solver luv dead_capacity;
        Maxmin.Solver.set_capacity solver lvu dead_capacity;
        dirty := true;
        go ()
      | _ -> ()
    in
    go ()
  in
  (* Flows sorted by arrival, stable on input order. *)
  let order = Array.init (Array.length flow_specs) (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare flow_specs.(a).start flow_specs.(b).start in
      if c <> 0 then c else Int.compare a b)
    order;
  let make_flow idx =
    let spec = flow_specs.(idx) in
    let rt = Routing_table.get table spec.dst in
    let default_path = Array.of_list (Routing.default_path rt spec.src) in
    let default_links = path_links links_reg default_path in
    {
      spec;
      idx;
      rt;
      default_path;
      default_links;
      path = default_path;
      links = default_links;
      on_default = true;
      rate = 0.;
      remaining = spec.size_bits;
      switches = 0;
      used_alt = false;
      alt_time = 0.;
      finish = nan;
      completed = false;
      slot = -1;
    }
  in
  let flows = Array.map make_flow order in
  let total = Array.length flows in
  let active : flow Mifo_util.Vec.t = Mifo_util.Vec.create () in
  let next_arrival = ref 0 in
  let alloc = ref (Array.make nlinks 0.) in
  let series = Mifo_util.Vec.create () in
  let dead l = capacities.(l) <= dead_capacity in
  let util l = !alloc.(l) /. capacities.(l) in
  (* Spare capacity seen by the greedy controllers, updated as flows are
     (re)assigned within the epoch so moves do not stampede. *)
  let planned = Array.make nlinks 0. in
  let spare l = capacities.(l) -. !alloc.(l) -. planned.(l) in
  let congested l = dead l || util l >= params.congest_threshold in
  let path_drained links =
    Array.for_all
      (fun l ->
        (not (dead l))
        && util l +. (planned.(l) /. capacities.(l)) <= params.clear_threshold)
      links
  in
  let time = ref 0. in
  let switch_to f path =
    f.path <- path;
    f.links <- path_links links_reg path;
    if f.slot >= 0 then begin
      Maxmin.Solver.set_links solver f.slot (Maxmin.dedup_links f.links);
      dirty := true
    end;
    f.switches <- f.switches + 1;
    Obs.incr c_switches;
    let is_default = path == f.default_path || path = f.default_path in
    f.on_default <- is_default;
    if is_default then Obs.incr c_resumed else f.used_alt <- true;
    if Obs.trace_enabled () then
      Obs.event ~t:!time "flow_switch"
        [
          ("flow", Obs.Int f.idx);
          ("on_default", Obs.Bool is_default);
          ("path_len", Obs.Int (Array.length path));
        ];
    Array.iter (fun l -> planned.(l) <- planned.(l) +. f.rate) f.links
  in
  (* Spare capacity toward [nb] as the greedy local rule scores it: 0 for
     the flow's current next hop, a failed link, or a spare that does not
     beat the flow's rate by the improvement margin. *)
  let local_spare f i u nb =
    if nb = f.path.(i + 1) then 0.
    else begin
      let l = Links.id links_reg u nb in
      if dead l then 0.
      else begin
        let s = spare l in
        if s > f.rate *. (1. +. params.improve_margin) then s else 0.
      end
    end
  in
  (* Ablation: score by the true end-to-end bottleneck spare of the
     spliced path - information no border router has at line speed;
     quantifies what the greedy local rule gives up. *)
  let bottleneck_spare f i u nb =
    if local_spare f i u nb <= 0. then 0.
    else begin
      let path = splice f.rt f.path i nb in
      if path_has_dup path then 0.
      else
        Array.fold_left (fun acc l -> Float.min acc (spare l)) infinity
          (path_links links_reg path)
    end
  in
  (* The alternative [u] deflects onto (Section III-C): over its RIB
     alternatives that the one-bit [tag] permits, the neighbor with the
     highest positive score, ties to the lower neighbor id; -1 when
     none scores above 0. *)
  let best_via f i u ~tag =
    let rt = f.rt in
    let best = ref (-1) and best_s = ref 0. in
    for j = 1 to Routing.rib_size rt u - 1 do
      if Policy.check ~tag ~downstream:(Routing.rib_rel_at rt u j) then begin
        let via = Routing.rib_via rt u j in
        let s =
          match params.alt_selection with
          | Greedy_local -> local_spare f i u via
          | Oracle_bottleneck -> bottleneck_spare f i u via
        in
        if s > 0. && (s > !best_s || (s = !best_s && via < !best)) then begin
          best := via;
          best_s := s
        end
      end
    done;
    !best
  in
  let adapt_mifo deployment f =
    if (not f.on_default) && path_drained f.default_links then
      (* hysteresis satisfied: resume the default path *)
      switch_to f f.default_path
    else begin
      (* Hop-by-hop deflection, wherever the flow currently runs: the
         first congested egress whose AS is MIFO-capable moves the flow
         onto the RIB alternative with the most spare local capacity
         (subject to the valley-free deflection rule).  One deflection
         per flow per epoch. *)
      let len = Array.length f.path in
      let rec scan i =
        if i < len - 1 then begin
          let u = f.path.(i) in
          if congested f.links.(i) && Deployment.capable deployment u then begin
            let tag =
              if i = 0 then Policy.source_tag
              else Policy.tag_of_upstream (As_graph.rel_exn g u f.path.(i - 1))
            in
            let via = best_via f i u ~tag in
            if via < 0 then scan (i + 1)
            else begin
              let path = splice f.rt f.path i via in
              if path_has_dup path then scan (i + 1) else switch_to f path
            end
          end
          else scan (i + 1)
        end
      in
      scan 0
    end
  in
  (* MIRO is a control-plane mechanism: route changes propagate through
     negotiation, so its reaction is throttled to [miro_reaction] seconds
     (MIFO reacts every data-plane epoch - the asymmetry the paper's
     introduction is built on). *)
  let miro_window = ref (-1) in
  let miro_may_act = ref false in
  let adapt_miro deployment miro_cap f =
    let src = f.spec.src in
    if !miro_may_act && Deployment.capable deployment src then begin
      let bottleneck_congested = Array.exists congested f.links in
      if f.on_default && bottleneck_congested then begin
        let candidates =
          Mifo_miro.Miro.candidates
            ~config:{ Mifo_miro.Miro.cap = miro_cap }
            f.rt ~deployment ~src
        in
        begin
          (* Candidates are scored by the spare capacity of the source's
             own link to the tunnel entry — the same local measurement
             MIFO uses; neither protocol can probe end-to-end available
             bandwidth at line speed (Section III-C). *)
          let score (e : Routing.rib_entry) =
            let path = splice f.rt f.path 0 e.via in
            if path_has_dup path then None
            else Some (path, spare (Links.id links_reg src e.via))
          in
          let best =
            List.fold_left
              (fun acc e ->
                match score e with
                | None -> acc
                | Some (path, s) -> (
                  match acc with
                  | Some (_, bs) when bs >= s -> acc
                  | _ -> Some (path, s)))
              None candidates
          in
          match best with
          | Some (path, s) when s > f.rate *. (1. +. params.improve_margin) ->
            switch_to f path
          | Some _ | None -> ()
        end
      end
      else if (not f.on_default) && path_drained f.default_links then
        switch_to f f.default_path
    end
  in
  let adapt =
    match protocol with
    | Bgp -> fun _ -> ()
    | Mifo deployment -> adapt_mifo deployment
    | Miro { deployment; cap } -> adapt_miro deployment cap
  in
  (* Can [adapt] move any flow this epoch?  Never under BGP; under MIRO
     only in the first epoch of each reaction window. *)
  let may_adapt () =
    match protocol with
    | Bgp -> false
    | Mifo _ -> true
    | Miro _ -> !miro_may_act
  in
  let epochs = ref 0 in
  let completed = ref 0 in
  let last_sample = ref neg_infinity in
  (* Reusable per-epoch scratch (adaptation order, solver slot list):
     grown geometrically, never freed, so the steady-state epoch loop
     allocates nothing. *)
  let order_scratch : flow array ref = ref [||] in
  let slot_scratch = ref [||] in
  let ensure_scratch scratch len fill =
    if Array.length !scratch < len then
      scratch :=
        Array.make
          (Stdlib.max 16 (Stdlib.max len (2 * Array.length !scratch)))
          fill
  in
  (* jump to the first arrival *)
  if total > 0 then time := flows.(0).spec.start;
  while !completed < total && !time <= params.max_time do
    incr epochs;
    Obs.incr c_epochs;
    apply_due_failures !time;
    (* arrivals *)
    while
      !next_arrival < total && flows.(!next_arrival).spec.start <= !time +. 1e-12
    do
      let f = flows.(!next_arrival) in
      Mifo_util.Vec.push active f;
      settled := false;
      f.slot <- Maxmin.Solver.register solver (Maxmin.dedup_links f.links);
      dirty := true;
      incr next_arrival
    done;
    (* adaptation against last epoch's utilization, most-starved flows
       first: the flows with the least bandwidth get first pick of the
       spare capacity, so deflections relieve hotspots instead of
       cannibalizing healthy flows.  No pass runs when it could not move
       a flow. *)
    let window = int_of_float (!time /. Float.max params.dt params.miro_reaction) in
    miro_may_act := window <> !miro_window;
    if !miro_may_act then miro_window := window;
    let nactive = Mifo_util.Vec.length active in
    if !epochs > 1 && nactive > 0 && may_adapt () && not !settled then begin
      ensure_scratch order_scratch nactive (Mifo_util.Vec.get active 0);
      let order = !order_scratch in
      for i = 0 to nactive - 1 do
        order.(i) <- Mifo_util.Vec.get active i
      done;
      sort_by_rank order nactive;
      Array.fill planned 0 nlinks 0.;
      settled := true;
      for i = 0 to nactive - 1 do
        adapt order.(i)
      done
    end;
    (* allocation; skipped outright when nothing touched the solver
       since the last solve, which would reproduce the same floats *)
    if !dirty then begin
      ensure_scratch slot_scratch nactive (-1);
      let slots = !slot_scratch in
      for i = 0 to nactive - 1 do
        slots.(i) <- (Mifo_util.Vec.get active i).slot
      done;
      Maxmin.Solver.solve solver slots nactive;
      dirty := false;
      settled := false;
      incr solves;
      Obs.incr c_solves;
      for i = 0 to nactive - 1 do
        let f = Mifo_util.Vec.get active i in
        f.rate <- Maxmin.Solver.rate solver f.slot
      done;
      alloc := Maxmin.Solver.link_allocs solver
    end
    else Obs.incr c_skipped;
    (* progress *)
    let aggregate =
      Mifo_util.Vec.fold_left (fun acc f -> acc +. f.rate) 0. active
    in
    if !time -. !last_sample >= params.series_interval -. 1e-12 then begin
      Mifo_util.Vec.push series (!time, aggregate);
      (* Snap the sampling cursor to the interval grid instead of the
         epoch timestamp: epochs land a hair after the grid point, and
         anchoring at the epoch time accumulates that quantization error
         into a phase drift that eventually skips a sample. *)
      if !last_sample = neg_infinity then last_sample := !time
      else begin
        last_sample := !last_sample +. params.series_interval;
        while !time -. !last_sample >= params.series_interval -. 1e-12 do
          last_sample := !last_sample +. params.series_interval
        done
      end
    end;
    Mifo_util.Vec.iter
      (fun f ->
        let transferred = f.rate *. params.dt in
        if not f.on_default then f.alt_time <- f.alt_time +. params.dt;
        if transferred >= f.remaining && f.rate > 0. then begin
          f.finish <- !time +. (f.remaining /. f.rate);
          f.remaining <- 0.;
          f.completed <- true;
          incr completed;
          Obs.incr c_completed
        end
        else f.remaining <- f.remaining -. transferred)
      active;
    (* drop completed flows from the active set *)
    let i = ref 0 in
    while !i < Mifo_util.Vec.length active do
      let f = Mifo_util.Vec.get active !i in
      if f.completed then begin
        ignore (Mifo_util.Vec.swap_remove active !i);
        Maxmin.Solver.unregister solver f.slot;
        f.slot <- -1;
        dirty := true
      end
      else incr i
    done;
    (* advance: skip idle gaps straight to the next arrival *)
    time := !time +. params.dt;
    if Mifo_util.Vec.is_empty active && !next_arrival < total then
      time := Float.max !time flows.(!next_arrival).spec.start
  done;
  let sim_end = !time in
  let stats =
    Array.map
      (fun f ->
        let finish = if f.completed then f.finish else sim_end in
        let duration = Float.max params.dt (finish -. f.spec.start) in
        let transferred = f.spec.size_bits -. f.remaining in
        {
          spec = f.spec;
          throughput = transferred /. duration;
          finish;
          completed = f.completed;
          switches = f.switches;
          used_alt = f.used_alt;
          alt_time = f.alt_time;
          final_path = f.path;
          final_rate = f.rate;
        })
      flows
  in
  let offload =
    if total = 0 then 0.
    else begin
      let used =
        Array.fold_left
          (fun acc (s : flow_stats) -> if s.used_alt then acc + 1 else acc)
          0 stats
      in
      float_of_int used /. float_of_int total
    end
  in
  {
    flows = stats;
    offload_fraction = offload;
    series = Mifo_util.Vec.to_array series;
    epochs = !epochs;
    solves = !solves;
    sim_end;
  }

let throughputs result = Array.map (fun s -> s.throughput) result.flows
