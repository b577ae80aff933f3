module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Obs = Mifo_util.Obs

(* High-water mark of major-heap words observed at the end of every
   [compute].  Rows built later, on first read, are not counted. *)
let g_peak_words = Obs.gauge "routing.peak_words"

type route_class = Customer_route | Peer_route | Provider_route

let class_to_string = function
  | Customer_route -> "customer"
  | Peer_route -> "peer"
  | Provider_route -> "provider"

type rib_entry = { via : int; rel : Relationship.t; len : int }

type t = {
  graph : As_graph.t;
  dest : int;
  dist_cust : int array;  (* best customer-route length; -1 = none *)
  export_len : int array;  (* best route length (selected); -1 = unreachable *)
  best_class : int array;  (* 0 customer, 1 peer, 2 provider; -1 at dest or unreachable *)
  next : int array;  (* default next hop; -1 at dest or unreachable *)
  times : int array;
      (* DFS entry and exit times of the selected-route tree (parent =
         default next hop, root = dest) at [2v] and [2v + 1], side by
         side so one cache line holds both: [x] lies on [n]'s selected
         path iff [x] is an ancestor of [n], an O(1) interval test.
         Powers the BGP loop filter of the RIB rows. *)
  rows : int array array;
      (* node [v]'s sorted RIB, built on first read ([unbuilt] until
         then): one packed [(rank lsl 60) lor (len lsl 32) lor via] cell
         per entry, so ascending int order is preference order.  See
         [row] for the publication argument. *)
}

(* Physically unique marker of a row not yet built; never a real row
   (a real row is a fresh [Array.sub], or the [[||]] atom). *)
let unbuilt = [| -1 |]

let dest t = t.dest

(* Per-domain scratch, reused across calls so the BFS, the route-tree
   walk and the row build allocate nothing but their results.  [grow]
   returns a buffer of at least [m] cells. *)
let scratch_key () = Domain.DLS.new_key (fun () -> ref [||])

let grow key m =
  let r = Domain.DLS.get key in
  if Array.length !r < m then r := Array.make (Stdlib.max m (2 * Array.length !r)) 0;
  !r

let work_key = scratch_key ()  (* BFS queue, then DFS stack: 2n *)
let child_off_key = scratch_key ()  (* n + 1 *)
let child_key = scratch_key ()  (* n *)
let cells_key = scratch_key ()  (* one row: degree *)

(* The neighbour in [nbrs] with the lowest [(lens.(nb), nb)] among those
   with [lens.(nb) >= 0]; -1 when none. *)
let argmin_via nbrs lens =
  let best = ref (-1) and best_l = ref max_int in
  for i = 0 to Array.length nbrs - 1 do
    let nb = nbrs.(i) in
    let l = lens.(nb) in
    if l >= 0 && (l < !best_l || (l = !best_l && nb < !best)) then begin
      best := nb;
      best_l := l
    end
  done;
  !best

let check_next_hop ~dest ~node cls ~via ~len ~expected =
  let broken detail =
    failwith
      (Printf.sprintf
         "Routing.compute: invariant broken toward destination %d at AS %d (%s route): %s"
         dest node (class_to_string cls) detail)
  in
  if via < 0 then broken "no neighbour of that class advertises a route"
  else if len <> expected then
    broken
      (Printf.sprintf "the best route via AS %d has length %d, the selected one %d" via len
         expected)

(* The next hop of a node whose selected route has class [cls] and
   length [expected]: the best neighbour of that class, which must
   advertise a route one hop shorter. *)
let select ~dest ~node cls nbrs lens expected =
  let via = argmin_via nbrs lens in
  let len = if via < 0 then -1 else 1 + lens.(via) in
  check_next_hop ~dest ~node cls ~via ~len ~expected;
  via

(* DFS entry/exit times over the selected-route tree rooted at [d]
   (parent = default next hop), children visited in ascending id order,
   interleaved as in [t.times] (-1 = not in the tree).
   Children are a CSR over [next] (node [p]'s are [child.(off.(p)) ..
   child.(off.(p+1) - 1)], ascending); the DFS stack holds [v] to enter
   [v] and [lnot v] to leave it. *)
let tree_times n next d =
  let off = grow child_off_key (n + 1) and child = grow child_key n in
  Array.fill off 0 (n + 1) 0;
  for v = 0 to n - 1 do
    let p = next.(v) in
    if p >= 0 then off.(p + 1) <- off.(p + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  (* fill with [off.(p)] as [p]'s cursor, then shift the advanced
     cursors (each now its successor's start) back into place *)
  for v = 0 to n - 1 do
    let p = next.(v) in
    if p >= 0 then begin
      child.(off.(p)) <- v;
      off.(p) <- off.(p) + 1
    end
  done;
  for p = n downto 1 do
    off.(p) <- off.(p - 1)
  done;
  off.(0) <- 0;
  let times = Array.make (2 * n) (-1) in
  let stack = grow work_key (2 * n) in
  let sp = ref 1 and clock = ref 0 in
  stack.(0) <- d;
  while !sp > 0 do
    decr sp;
    let x = stack.(!sp) in
    if x >= 0 then begin
      times.(2 * x) <- !clock;
      incr clock;
      stack.(!sp) <- lnot x;
      incr sp;
      (* push descending so the lowest id is entered first *)
      for i = off.(x + 1) - 1 downto off.(x) do
        stack.(!sp) <- child.(i);
        incr sp
      done
    end
    else begin
      times.((2 * lnot x) + 1) <- !clock;
      incr clock
    end
  done;
  times

let compute g d =
  let n = As_graph.n g in
  if d < 0 || d >= n then invalid_arg "Routing.compute: destination out of range";
  let dist_cust = Array.make n (-1) in
  let export_len = Array.make n (-1) in
  let best_class = Array.make n (-1) in
  let next = Array.make n (-1) in
  (* Phase 1 — customer routes: BFS from the destination along
     customer->provider edges; an AS has a customer route iff some chain of
     successive customers leads down to d. *)
  let queue = grow work_key (2 * n) in
  dist_cust.(d) <- 0;
  export_len.(d) <- 0;
  queue.(0) <- d;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let provs = As_graph.providers g v in
    for i = 0 to Array.length provs - 1 do
      let p = provs.(i) in
      if dist_cust.(p) < 0 then begin
        dist_cust.(p) <- dist_cust.(v) + 1;
        best_class.(p) <- 0;
        export_len.(p) <- dist_cust.(p);
        queue.(!tail) <- p;
        incr tail
      end
    done
  done;
  (* Phase 2 — peer routes, selected where no customer route exists:
     usable iff the peer's best route is a customer route (export
     policy), i.e. iff the peer has a customer route. *)
  for v = 0 to n - 1 do
    if v <> d && dist_cust.(v) < 0 then begin
      let nb = argmin_via (As_graph.peers g v) dist_cust in
      if nb >= 0 then begin
        best_class.(v) <- 1;
        export_len.(v) <- 1 + dist_cust.(nb)
      end
    end
  done;
  (* Phase 3 — provider routes, in provider-before-customer order: a
     provider advertises its selected best route to customers, whatever its
     class, so export_len must be fixed top-down. *)
  let order = As_graph.topological_order g in
  for i = 0 to n - 1 do
    let v = order.(i) in
    if v <> d && best_class.(v) < 0 then begin
      let nb = argmin_via (As_graph.providers g v) export_len in
      if nb >= 0 then begin
        best_class.(v) <- 2;
        export_len.(v) <- 1 + export_len.(nb)
      end
    end
  done;
  (* Default next hops from the final class decision, re-derived from
     the neighbours of that class and checked against phases 1-3. *)
  for v = 0 to n - 1 do
    let len = export_len.(v) in
    next.(v) <-
      (match best_class.(v) with
       | 0 -> select ~dest:d ~node:v Customer_route (As_graph.customers g v) dist_cust len
       | 1 -> select ~dest:d ~node:v Peer_route (As_graph.peers g v) dist_cust len
       | 2 -> select ~dest:d ~node:v Provider_route (As_graph.providers g v) export_len len
       | _ -> -1)
  done;
  let t =
    {
      graph = g;
      dest = d;
      dist_cust;
      export_len;
      best_class;
      next;
      times = tree_times n next d;
      rows = Array.make n unbuilt;
    }
  in
  Obs.max_gauge g_peak_words (float_of_int (Gc.quick_stat ()).Gc.heap_words);
  t

let reachable t v = v = t.dest || t.export_len.(v) >= 0

let best_class t v =
  if v = t.dest then None
  else
    match t.best_class.(v) with
    | 0 -> Some Customer_route
    | 1 -> Some Peer_route
    | 2 -> Some Provider_route
    | _ -> None

let best_len t v =
  if v = t.dest then 0
  else if t.export_len.(v) < 0 then invalid_arg "Routing.best_len: unreachable"
  else t.export_len.(v)

let next_hop t v = if t.next.(v) < 0 then None else Some t.next.(v)

let customer_route_len t v =
  if t.dist_cust.(v) < 0 then None else Some t.dist_cust.(v)

let export_len t v = if t.export_len.(v) < 0 then None else Some t.export_len.(v)

let default_path t s =
  let n = As_graph.n t.graph in
  let rec follow v acc steps =
    if steps > n then invalid_arg "Routing.default_path: next-hop loop (corrupt state)"
    else if v = t.dest then List.rev (v :: acc)
    else
      match next_hop t v with
      | None -> invalid_arg "Routing.default_path: unreachable source"
      | Some nb -> follow nb (v :: acc) (steps + 1)
  in
  follow s [] 0

(* is [x] on [node]'s selected default path (including its endpoints)? *)
let[@inline] on_selected_path t ~node x =
  let tt = t.times in
  let tin_node = tt.(2 * node) and tin_x = tt.(2 * x) in
  tin_node >= 0 && tin_x >= 0 && tin_x <= tin_node
  && tt.((2 * node) + 1) <= tt.((2 * x) + 1)

(* ---------- RIB rows ---------- *)

(* A customer or peer advertises to us its best customer route, a
   provider its selected route; the BGP loop filter drops a route whose
   AS path (the neighbour's selected default path) runs through us. *)
let[@inline] admissible t v nb lens =
  lens.(nb) >= 0 && not (on_selected_path t ~node:nb v)

let[@inline] cell rank lens nb = (rank lsl 60) lor ((1 + lens.(nb)) lsl 32) lor nb
let[@inline] cell_via c = c land 0xFFFFFFFF
let[@inline] cell_len c = (c lsr 32) land 0xFFFFFFF

let cell_rel c =
  match c lsr 60 with
  | 0 -> Relationship.Customer
  | 1 -> Relationship.Peer
  | _ -> Relationship.Provider

let push_class t v cells k rank nbrs lens =
  let k = ref k in
  for i = 0 to Array.length nbrs - 1 do
    let nb = nbrs.(i) in
    if admissible t v nb lens then begin
      cells.(!k) <- cell rank lens nb;
      incr k
    end
  done;
  !k

(* Ascending sort of [a.(0 .. len-1)]: insertion sort on short rows,
   heapsort (O(len log len)) on hubs with thousands of entries. *)
let sort_cells (a : int array) len =
  if len <= 16 then
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let rec sift i hi =
      let l = (2 * i) + 1 in
      if l < hi then begin
        let c = if l + 1 < hi && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(c) > a.(i) then begin
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
  end

let build_row t v =
  if v = t.dest then [||]
  else begin
    let g = t.graph in
    let cells = grow cells_key (As_graph.degree g v) in
    let k = push_class t v cells 0 0 (As_graph.customers g v) t.dist_cust in
    let k = push_class t v cells k 1 (As_graph.peers g v) t.dist_cust in
    let k = push_class t v cells k 2 (As_graph.providers g v) t.export_len in
    sort_cells cells k;
    Array.sub cells 0 k
  end

(* The row of [v], built on first read.  Publication: the row is a fresh
   array whose cells are written (copied from this domain's scratch)
   when it is allocated, before one store makes it reachable from
   [t.rows].  A reader that loads the sentinel builds the row itself;
   every build of a row yields the same cells, so a racing store only
   replaces a row with an equal one. *)
let[@inline never] row_slow t v =
  let r = build_row t v in
  t.rows.(v) <- r;
  r

let[@inline] row t v =
  let r = t.rows.(v) in
  if r != unbuilt then r else row_slow t v

let rib_size t v = Array.length (row t v)
let[@inline] rib_via t v i = cell_via (row t v).(i)
let[@inline] rib_len_at t v i = cell_len (row t v).(i)
let[@inline] rib_rel_at t v i = cell_rel (row t v).(i)

let rib t v =
  let r = row t v in
  List.init (Array.length r) (fun i ->
      let c = r.(i) in
      { via = cell_via c; rel = cell_rel c; len = cell_len c })

(* The default next hop heads the row; for any other neighbour, the
   class arrays are sorted, so a binary search finds [nb]'s role. *)
let[@inline] has nbrs nb = Mifo_util.Sort.find_first nbrs nb >= 0

let rib_mem t v nb =
  let g = t.graph in
  nb = t.next.(v)
  || v <> t.dest
     &&
     if has (As_graph.customers g v) nb || has (As_graph.peers g v) nb then
       admissible t v nb t.dist_cust
     else has (As_graph.providers g v) nb && admissible t v nb t.export_len

(* [m] when a better class already gave a cell ([m < max_int]), else the
   smallest admissible cell of this class, [skip] excluded ([max_int]
   when none). *)
let min_cell t v ~skip rank nbrs lens m =
  if m < max_int then m
  else begin
    let m = ref max_int in
    for i = 0 to Array.length nbrs - 1 do
      let nb = nbrs.(i) in
      if nb <> skip && admissible t v nb lens then begin
        let c = cell rank lens nb in
        if c < !m then m := c
      end
    done;
    !m
  end

(* The row's head is the default route, so cell [1] is the smallest
   admissible cell of any other neighbour.  The classes are scanned in
   rank order, and a class that yields a cell ends the search. *)
let first_alternative t v =
  let r = t.rows.(v) in
  if r != unbuilt then if Array.length r > 1 then cell_via r.(1) else -1
  else if t.next.(v) < 0 then -1
  else begin
    let g = t.graph and skip = t.next.(v) in
    let m = min_cell t v ~skip 0 (As_graph.customers g v) t.dist_cust max_int in
    let m = min_cell t v ~skip 1 (As_graph.peers g v) t.dist_cust m in
    let m = min_cell t v ~skip 2 (As_graph.providers g v) t.export_len m in
    if m = max_int then -1 else cell_via m
  end
