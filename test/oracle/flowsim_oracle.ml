(* Reference flow simulator for {!Mifo_netsim.Flowsim.run}: the original
   adaptation path, kept here as the oracle of the differential tests in
   [test_netsim] and of the flowsim rows of [bench/main.exe sim].  Every
   epoch after the first it ranks all active flows with a polymorphic
   closure sort, whatever the protocol; it picks alternatives through
   the boxed RIB lists ([Routing_oracle.rib_alternatives]) and the generic
   [best_by] fold below; it numbers links through an [(u * n + v)]-keyed
   [Hashtbl]; it looks the flow's routing state up in the table on
   every congested hop; and it solves every epoch from scratch with the
   reference allocator ({!Maxmin_ref}), so [solves = epochs].  The
   production simulator must return bit-identical results.  Input
   validation and the observability counters are left to the production
   code. *)

module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Deployment = Mifo_core.Deployment
module Policy = Mifo_core.Policy
module Flowsim = Mifo_netsim.Flowsim
module Vec = Mifo_util.Vec

(* ---------- the former Alt_select selectors ---------- *)

(* The RIB alternatives at [src_as] the Tag-Check allows for traffic
   arriving from [upstream] ([None] = locally originated). *)
let permitted rt ~src_as ~upstream =
  let allowed (e : Routing.rib_entry) =
    Policy.deflection_allowed ~upstream ~downstream:e.rel
  in
  List.filter allowed (Routing_oracle.rib_alternatives rt src_as)

(* The former [Mifo_miro.Miro.candidates], over the boxed RIB: the
   alternates after the default in its preference class, via a
   MIRO-capable neighbor, at most [cap] of them. *)
let miro_candidates ~cap rt ~deployment ~src =
  if src = Routing.dest rt || not (Deployment.capable deployment src) then []
  else
    match Routing.rib rt src with
    | [] -> []
    | default :: rest ->
      let same_class (e : Routing.rib_entry) =
        Mifo_topology.Relationship.preference_rank e.rel
        = Mifo_topology.Relationship.preference_rank default.rel
        && Deployment.capable deployment e.via
      in
      List.filteri (fun i _ -> i < cap) (List.filter same_class rest)

(* Maximizes [score] over the permitted alternatives; ties go to the
   lower neighbor id; [None] when nothing scores above 0. *)
let best_by rt ~src_as ~upstream ~score =
  let candidates = permitted rt ~src_as ~upstream in
  let better (e : Routing.rib_entry) best =
    let s = score e in
    if s <= 0. then best
    else
      match best with
      | None -> Some (e, s)
      | Some (b, bs) ->
        if s > bs || (s = bs && e.via < b.via) then Some (e, s) else best
  in
  match List.fold_right better candidates None with
  | Some (e, _) -> Some e
  | None -> None

(* The greedy local rule: the permitted alternative whose first-hop link
   has the most spare capacity. *)
let best_alternative rt ~src_as ~upstream ~spare =
  best_by rt ~src_as ~upstream ~score:(fun e -> spare e.via)

(* ---------- the former Flowsim.run ---------- *)

module Links = struct
  type t = {
    ids : (int, int) Hashtbl.t;  (* (u * n + v) -> id *)
    n : int;
    mutable count : int;
  }

  let create g =
    let n = As_graph.n g in
    let t = { ids = Hashtbl.create 4096; n; count = 0 } in
    for u = 0 to n - 1 do
      Array.iter
        (fun v ->
          Hashtbl.add t.ids ((u * n) + v) t.count;
          t.count <- t.count + 1)
        (As_graph.neighbors g u)
    done;
    t

  let id t u v = Hashtbl.find t.ids ((u * t.n) + v)
  let count t = t.count
end

type flow = {
  spec : Flowsim.flow_spec;
  idx : int;
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
}

let path_links links_reg path =
  Array.init
    (Array.length path - 1)
    (fun i -> Links.id links_reg path.(i) path.(i + 1))

let path_has_dup path =
  let seen = Hashtbl.create (Array.length path) in
  Array.exists
    (fun v ->
      if Hashtbl.mem seen v then true
      else begin
        Hashtbl.add seen v ();
        false
      end)
    path

let splice rt path i nb =
  let prefix = Array.sub path 0 (i + 1) in
  let continuation = Array.of_list (Routing.default_path rt nb) in
  Array.append prefix continuation

let dead_capacity = 1.0

let run ?(params = Flowsim.default_params) ?(failures = []) table protocol
    (flow_specs : Flowsim.flow_spec array) : Flowsim.result =
  let g = Routing_table.graph table in
  let links_reg = Links.create g in
  let nlinks = Links.count links_reg in
  let capacities = Array.make nlinks params.link_capacity in
  let solves = ref 0 in
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
        let luv = Links.id links_reg u v and lvu = Links.id links_reg v u in
        capacities.(luv) <- dead_capacity;
        capacities.(lvu) <- dead_capacity;
        go ()
      | _ -> ()
    in
    go ()
  in
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
    }
  in
  let flows = Array.map make_flow order in
  let total = Array.length flows in
  let active : flow Vec.t = Vec.create () in
  let next_arrival = ref 0 in
  let alloc = ref (Array.make nlinks 0.) in
  let series = Vec.create () in
  let dead l = capacities.(l) <= dead_capacity in
  let util l = !alloc.(l) /. capacities.(l) in
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
  let switch_to f path =
    f.path <- path;
    f.links <- path_links links_reg path;
    f.switches <- f.switches + 1;
    let is_default = path == f.default_path || path = f.default_path in
    f.on_default <- is_default;
    if not is_default then f.used_alt <- true;
    Array.iter (fun l -> planned.(l) <- planned.(l) +. f.rate) f.links
  in
  let adapt_mifo deployment f =
    if (not f.on_default) && path_drained f.default_links then
      switch_to f f.default_path
    else begin
      let len = Array.length f.path in
      let rec scan i =
        if i >= len - 1 then ()
        else begin
          let u = f.path.(i) in
          let l = f.links.(i) in
          if congested l && Deployment.capable deployment u then begin
            let rt = Routing_table.get table f.spec.dst in
            let upstream =
              if i = 0 then None else Some (As_graph.rel_exn g u f.path.(i - 1))
            in
            let local_spare nb =
              if nb = f.path.(i + 1) then 0.
              else begin
                let l' = Links.id links_reg u nb in
                if dead l' then 0.
                else begin
                  let s = spare l' in
                  if s > f.rate *. (1. +. params.improve_margin) then s else 0.
                end
              end
            in
            let candidate =
              match params.alt_selection with
              | Flowsim.Greedy_local ->
                best_alternative rt ~src_as:u ~upstream ~spare:local_spare
              | Flowsim.Oracle_bottleneck ->
                best_by rt ~src_as:u ~upstream ~score:(fun e ->
                    if local_spare e.Routing.via <= 0. then 0.
                    else begin
                      let path = splice rt f.path i e.Routing.via in
                      if path_has_dup path then 0.
                      else
                        Array.fold_left
                          (fun acc l -> Float.min acc (spare l))
                          infinity (path_links links_reg path)
                    end)
            in
            match candidate with
            | Some entry ->
              let path = splice rt f.path i entry.Routing.via in
              if not (path_has_dup path) then switch_to f path else scan (i + 1)
            | None -> scan (i + 1)
          end
          else scan (i + 1)
        end
      in
      scan 0
    end
  in
  let miro_window = ref (-1) in
  let miro_may_act = ref false in
  let adapt_miro deployment miro_cap f =
    let src = f.spec.src in
    if !miro_may_act && Deployment.capable deployment src then begin
      let bottleneck_congested = Array.exists congested f.links in
      if f.on_default && bottleneck_congested then begin
        let rt = Routing_table.get table f.spec.dst in
        let candidates = miro_candidates ~cap:miro_cap rt ~deployment ~src in
        let score (e : Routing.rib_entry) =
          let path = splice rt f.path 0 e.via in
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
      else if (not f.on_default) && path_drained f.default_links then
        switch_to f f.default_path
    end
  in
  let adapt =
    match protocol with
    | Flowsim.Bgp -> fun _ -> ()
    | Flowsim.Mifo deployment -> adapt_mifo deployment
    | Flowsim.Miro { deployment; cap } -> adapt_miro deployment cap
  in
  let epochs = ref 0 in
  let completed = ref 0 in
  let last_sample = ref neg_infinity in
  let time = ref 0. in
  if total > 0 then time := flows.(0).spec.start;
  while !completed < total && !time <= params.max_time do
    incr epochs;
    apply_due_failures !time;
    while !next_arrival < total && flows.(!next_arrival).spec.start <= !time +. 1e-12 do
      let f = flows.(!next_arrival) in
      Vec.push active f;
      incr next_arrival
    done;
    Array.fill planned 0 nlinks 0.;
    let window = int_of_float (!time /. Float.max params.dt params.miro_reaction) in
    miro_may_act := window <> !miro_window;
    if !miro_may_act then miro_window := window;
    let nactive = Vec.length active in
    if !epochs > 1 && nactive > 0 then begin
      let order = Array.init nactive (Vec.get active) in
      Array.sort
        (fun a b ->
          let c = Float.compare a.rate b.rate in
          if c <> 0 then c else Int.compare a.idx b.idx)
        order;
      Array.iter adapt order
    end;
    let active_arr = Vec.to_array active in
    let flow_links = Array.map (fun f -> f.links) active_arr in
    let rates = Maxmin_ref.allocate ~capacities ~flow_links in
    Array.iteri (fun i f -> f.rate <- rates.(i)) active_arr;
    incr solves;
    alloc := Maxmin_ref.link_allocation ~capacities ~flow_links ~rates;
    let aggregate = Vec.fold_left (fun acc f -> acc +. f.rate) 0. active in
    if !time -. !last_sample >= params.series_interval -. 1e-12 then begin
      Vec.push series (!time, aggregate);
      if !last_sample = neg_infinity then last_sample := !time
      else begin
        last_sample := !last_sample +. params.series_interval;
        while !time -. !last_sample >= params.series_interval -. 1e-12 do
          last_sample := !last_sample +. params.series_interval
        done
      end
    end;
    Vec.iter
      (fun f ->
        let transferred = f.rate *. params.dt in
        if not f.on_default then f.alt_time <- f.alt_time +. params.dt;
        if transferred >= f.remaining && f.rate > 0. then begin
          f.finish <- !time +. (f.remaining /. f.rate);
          f.remaining <- 0.;
          f.completed <- true;
          incr completed
        end
        else f.remaining <- f.remaining -. transferred)
      active;
    let i = ref 0 in
    while !i < Vec.length active do
      let f = Vec.get active !i in
      if f.completed then ignore (Vec.swap_remove active !i)
      else incr i
    done;
    time := !time +. params.dt;
    if Vec.is_empty active && !next_arrival < total then
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
          Flowsim.spec = f.spec;
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
          (fun acc (s : Flowsim.flow_stats) -> if s.used_alt then acc + 1 else acc)
          0 stats
      in
      float_of_int used /. float_of_int total
    end
  in
  {
    Flowsim.flows = stats;
    offload_fraction = offload;
    series = Vec.to_array series;
    epochs = !epochs;
    solves = !solves;
    sim_end;
  }
