(* Reference route computation for {!Mifo_bgp.Routing}: the original
   implementation, kept here as the oracle of the differential gates in
   [test_bgp] and of the [scale44k] cross-check of [bench/main.exe
   routing].  Its tree pass picks neighbours through [option]-tuple
   closures over a [Queue], builds the route tree's children as lists and
   walks them with a [Stack] of tuples; its RIB is a boxed record array
   per node, filled by scanning [As_graph.neighbors] with [rel_exn] and
   sorted with a polymorphic tuple compare.  Production must agree with
   it on every node: the tree-pass outputs and every RIB entry. *)

module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing

type t = {
  graph : As_graph.t;
  dest : int;
  dist_cust : int array;  (* best customer-route length; -1 = none *)
  export_len : int array;  (* best route length (selected); -1 = unreachable *)
  best_class : int array;  (* 0/1/2 by preference rank; -1 at dest or unreachable *)
  next : int array;  (* default next hop; -1 at dest or unreachable *)
  tree_times : int array * int array;
}

(* Pick the neighbor minimizing (advertised length, id) among candidates
   that actually have a route. *)
let best_via candidates route_len =
  let best = ref (-1) and best_len = ref max_int in
  Array.iter
    (fun nb ->
      match route_len nb with
      | None -> ()
      | Some l ->
        if l < !best_len || (l = !best_len && nb < !best) then begin
          best := nb;
          best_len := l
        end)
    candidates;
  if !best < 0 then None else Some (!best, 1 + !best_len)

(* DFS entry/exit times over the selected-route tree rooted at [d]
   (parent = default next hop). *)
let build_tree_times n next d =
  let children = Array.make n [] in
  for v = 0 to n - 1 do
    let p = next.(v) in
    if p >= 0 then children.(p) <- v :: children.(p)
  done;
  let tin = Array.make n (-1) and tout = Array.make n (-1) in
  let clock = ref 0 in
  (* iterative DFS: (node, Enter | Exit) *)
  let stack = Stack.create () in
  Stack.push (d, true) stack;
  while not (Stack.is_empty stack) do
    let v, entering = Stack.pop stack in
    if entering then begin
      tin.(v) <- !clock;
      incr clock;
      Stack.push (v, false) stack;
      List.iter (fun c -> Stack.push (c, true) stack) children.(v)
    end
    else begin
      tout.(v) <- !clock;
      incr clock
    end
  done;
  (tin, tout)

let compute g d =
  let n = As_graph.n g in
  if d < 0 || d >= n then invalid_arg "Routing_oracle.compute: destination out of range";
  let dist_cust = Array.make n (-1) in
  let peer_len = Array.make n (-1) in
  let prov_len = Array.make n (-1) in
  let export_len = Array.make n (-1) in
  let best_class = Array.make n (-1) in
  let next = Array.make n (-1) in
  (* Phase 1 — customer routes: BFS up the provider edges. *)
  dist_cust.(d) <- 0;
  let queue = Queue.create () in
  Queue.add d queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun p ->
        if dist_cust.(p) < 0 then begin
          dist_cust.(p) <- dist_cust.(v) + 1;
          Queue.add p queue
        end)
      (As_graph.providers g v)
  done;
  (* Phase 2 — peer routes, via peers that hold a customer route. *)
  for v = 0 to n - 1 do
    if v <> d then begin
      let via_peer nb = if dist_cust.(nb) >= 0 then Some dist_cust.(nb) else None in
      match best_via (As_graph.peers g v) via_peer with
      | Some (_, l) -> peer_len.(v) <- l
      | None -> ()
    end
  done;
  (* Phase 3 — provider routes, top-down. *)
  let order = As_graph.topological_order g in
  let selected v =
    if v = d then Some (-1, 0)
    else if dist_cust.(v) >= 0 then Some (0, dist_cust.(v))
    else if peer_len.(v) >= 0 then Some (1, peer_len.(v))
    else if prov_len.(v) >= 0 then Some (2, prov_len.(v))
    else None
  in
  Array.iter
    (fun v ->
      if v <> d then begin
        let via_provider nb =
          if export_len.(nb) >= 0 then Some export_len.(nb) else None
        in
        (match best_via (As_graph.providers g v) via_provider with
         | Some (_, l) -> prov_len.(v) <- l
         | None -> ());
        match selected v with
        | Some (_, l) -> export_len.(v) <- l
        | None -> ()
      end
      else export_len.(v) <- 0)
    order;
  (* Default next hops from the final class decision. *)
  for v = 0 to n - 1 do
    if v <> d then begin
      let via_customer nb = if dist_cust.(nb) >= 0 then Some dist_cust.(nb) else None in
      let via_provider nb = if export_len.(nb) >= 0 then Some export_len.(nb) else None in
      let set cls candidates route_len =
        best_class.(v) <- cls;
        match best_via candidates route_len with
        | Some (nb, _) -> next.(v) <- nb
        | None -> failwith "Routing_oracle.compute: no next hop"
      in
      if dist_cust.(v) >= 0 then set 0 (As_graph.customers g v) via_customer
      else if peer_len.(v) >= 0 then set 1 (As_graph.peers g v) via_customer
      else if prov_len.(v) >= 0 then set 2 (As_graph.providers g v) via_provider
    end
  done;
  {
    graph = g;
    dest = d;
    dist_cust;
    export_len;
    best_class;
    next;
    tree_times = build_tree_times n next d;
  }

let best_class t v =
  if v = t.dest then None
  else
    match t.best_class.(v) with
    | 0 -> Some Routing.Customer_route
    | 1 -> Some Routing.Peer_route
    | 2 -> Some Routing.Provider_route
    | _ -> None

let best_len t v =
  if v = t.dest then 0
  else if t.export_len.(v) < 0 then invalid_arg "Routing_oracle.best_len: unreachable"
  else t.export_len.(v)

let next_hop t v = if t.next.(v) < 0 then None else Some t.next.(v)
let customer_route_len t v = if t.dist_cust.(v) < 0 then None else Some t.dist_cust.(v)
let export_len t v = if t.export_len.(v) < 0 then None else Some t.export_len.(v)

let on_selected_path t ~node x =
  let tin, tout = t.tree_times in
  tin.(node) >= 0 && tin.(x) >= 0 && tin.(x) <= tin.(node) && tout.(node) <= tout.(x)

let entry_order (a : Routing.rib_entry) (b : Routing.rib_entry) =
  let ka = (Relationship.preference_rank a.rel, a.len, a.via) in
  let kb = (Relationship.preference_rank b.rel, b.len, b.via) in
  compare ka kb

(* The sorted RIB of [v]: one entry per neighbour that exports a route
   to [v] and whose path does not run through [v]. *)
let rib t v : Routing.rib_entry array =
  if v = t.dest then [||]
  else begin
    let g = t.graph in
    let entries = ref [] in
    Array.iter
      (fun nb ->
        let rel = As_graph.rel_exn g v nb in
        let advertised =
          match rel with
          | Relationship.Customer | Relationship.Peer ->
            (* they export to us (their provider / peer) only customer routes *)
            if t.dist_cust.(nb) >= 0 then Some t.dist_cust.(nb) else None
          | Relationship.Provider ->
            if t.export_len.(nb) >= 0 then Some t.export_len.(nb) else None
        in
        match advertised with
        | Some l ->
          (* BGP loop filter: the neighbour's exported path is its
             selected default path *)
          if not (on_selected_path t ~node:nb v) then
            entries := { Routing.via = nb; rel; len = 1 + l } :: !entries
        | None -> ())
      (As_graph.neighbors g v);
    let arr = Array.of_list !entries in
    Array.sort entry_order arr;
    arr
  end

(* The alternatives (every entry after the default) of a production RIB,
   as records: the boxed view the flowsim and network-builder oracles
   were written against. *)
let rib_alternatives rt v = match Routing.rib rt v with [] -> [] | _ :: rest -> rest

(* Does production [rt] agree with the oracle [o] at node [v]: the
   tree-pass outputs, the route-tree ancestor test around [v], the
   row-free [rib_mem]/[first_alternative] answers (asked before the row
   is built), and the RIB row through every packed accessor and the
   decoder? *)
let agrees o rt v =
  let row = rib o v in
  let k = Array.length row in
  let rows_agree () =
    let ok = ref (Routing.rib_size rt v = k) in
    Array.iteri
      (fun i (e : Routing.rib_entry) ->
        if
          !ok
          && (Routing.rib_via rt v i <> e.via
             || Routing.rib_len_at rt v i <> e.len
             || not (Relationship.equal (Routing.rib_rel_at rt v i) e.rel))
        then ok := false)
      row;
    !ok && Routing.rib rt v = Array.to_list row
  in
  let mem_agrees () =
    Array.for_all
      (fun nb ->
        Routing.rib_mem rt v nb
        = Array.exists (fun (e : Routing.rib_entry) -> e.via = nb) row)
      (As_graph.neighbors o.graph v)
  in
  (* the loop filter's queries: is [v] on a neighbour's path, and the
     neighbour on [v]'s *)
  let on_path_agrees () =
    Array.for_all
      (fun nb ->
        Routing.on_selected_path rt ~node:nb v = on_selected_path o ~node:nb v
        && Routing.on_selected_path rt ~node:v nb = on_selected_path o ~node:v nb)
      (As_graph.neighbors o.graph v)
  in
  Routing.next_hop rt v = next_hop o v
  && Routing.best_class rt v = best_class o v
  && (match best_class o v with
     | None when v <> o.dest -> true
     | _ -> Routing.best_len rt v = best_len o v)
  && Routing.customer_route_len rt v = customer_route_len o v
  && Routing.export_len rt v = export_len o v
  && Routing.first_alternative rt v = (if k > 1 then row.(1).via else -1)
  && mem_agrees ()
  && on_path_agrees ()
  && rows_agree ()
  && Routing.first_alternative rt v = (if k > 1 then row.(1).via else -1)
