(* The cache is sharded by destination so domains precomputing disjoint
   destinations rarely contend: shard [d mod nshards], one mutex per
   shard.  Each shard is an exact LRU — entries carry the shard clock's
   tick at last use; eviction removes the minimum tick.  The O(shard
   size) victim scan only runs on insertion into a full shard, which is
   the rare path (the default bound is "unbounded"). *)

module Parallel = Mifo_util.Parallel

type entry = { route : Routing.t; mutable tick : int }

type shard = {
  lock : Mutex.t;
  table : (int, entry) Hashtbl.t; (* lint:allow mutex-guarded control-plane cache *)
  mutable clock : int;
  capacity : int;  (* per-shard bound; [max_int] = unbounded *)
}

type t = {
  graph : Mifo_topology.As_graph.t;
  shards : shard array;
}

let default_shards = 16

let create ?(max_cached = max_int) graph =
  if max_cached < 1 then invalid_arg "Routing_table.create: max_cached < 1";
  (* never more shards than cache slots, so every shard holds >= 1 *)
  let nshards = Stdlib.min default_shards max_cached in
  let capacity = if max_cached = max_int then max_int else max_cached / nshards in
  {
    graph;
    shards =
      Array.init nshards (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 64; clock = 0; capacity }); (* lint:allow mutex-guarded control-plane cache *)
  }

let graph t = t.graph

let touch shard e =
  shard.clock <- shard.clock + 1;
  e.tick <- shard.clock

let evict_lru shard =
  let victim =
    Hashtbl.fold (* lint:allow mutex-guarded control-plane cache *)
      (fun d e acc ->
        match acc with
        | Some (_, best) when best <= e.tick -> acc
        | _ -> Some (d, e.tick))
      shard.table None
  in
  match victim with Some (d, _) -> Hashtbl.remove shard.table d | None -> () (* lint:allow mutex-guarded control-plane cache *)

let get t d =
  let n = Mifo_topology.As_graph.n t.graph in
  if d < 0 || d >= n then invalid_arg "Routing_table.get: destination out of range";
  let shard = t.shards.(d mod Array.length t.shards) in
  Mutex.lock shard.lock;
  match Hashtbl.find_opt shard.table d with (* lint:allow mutex-guarded control-plane cache *)
  | Some e ->
    touch shard e;
    Mutex.unlock shard.lock;
    e.route
  | None ->
    (* Compute outside the lock: a same-shard destination being computed
       by another domain must not serialize behind this one. *)
    Mutex.unlock shard.lock;
    let route = Routing.compute t.graph d in
    Mutex.lock shard.lock;
    (match Hashtbl.find_opt shard.table d with (* lint:allow mutex-guarded control-plane cache *)
     | Some e ->
       (* lost a fill race; keep the incumbent so repeated [get]s keep
          returning physically equal states *)
       touch shard e;
       Mutex.unlock shard.lock;
       e.route
     | None ->
       if Hashtbl.length shard.table >= shard.capacity then evict_lru shard; (* lint:allow mutex-guarded control-plane cache *)
       let e = { route; tick = 0 } in
       touch shard e;
       Hashtbl.add shard.table d e; (* lint:allow mutex-guarded control-plane cache *)
       Mutex.unlock shard.lock;
       route)

let precompute ?pool t dests =
  let pool = match pool with Some p -> p | None -> Parallel.get_default () in
  Parallel.parallel_for pool ~lo:0 ~hi:(Array.length dests) (fun i ->
      ignore (get t dests.(i)))

let cached_count t =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.lock;
      let len = Hashtbl.length shard.table in (* lint:allow mutex-guarded control-plane cache *)
      Mutex.unlock shard.lock;
      acc + len)
    0 t.shards
