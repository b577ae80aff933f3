module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Deployment = Mifo_core.Deployment
module Sort = Mifo_util.Sort

type t = {
  sim : Packetsim.t;
  router_of_as : int array;
  host_of_as : (int, int) Hashtbl.t;
}

let host t as_id = Hashtbl.find t.host_of_as as_id
let router t as_id = t.router_of_as.(as_id)

let build ?config ?pool ?(link_rate = 1e9) ?host_rate table ~deployment ~hosts () =
  let host_rate = match host_rate with Some r -> r | None -> link_rate in
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "As_network.build: host AS out of range")
    hosts;
  let dests = Array.of_list (List.sort_uniq Int.compare hosts) in
  (* One routing state per host prefix; the computations are independent
     so they fan out across the domain pool before the serial FIB fill. *)
  let pool = match pool with Some p -> p | None -> Mifo_util.Parallel.get_default () in
  Routing_table.precompute ~pool table dests;
  (* The first RIB alternative of every capable AS toward every host
     prefix (-1 = none), answered without building RIB rows and fanned
     out like the routing states. *)
  let first_alts =
    Mifo_util.Parallel.parallel_map pool
      (fun d ->
        let rt = Routing_table.get table d in
        Array.init n (fun v ->
            if Deployment.capable deployment v then Routing.first_alternative rt v else -1))
      dests
  in
  let sim = Packetsim.create ?config () in
  let router_of_as = Array.init n (fun v -> Packetsim.add_router sim ~as_id:v) in
  (* Egress ports in CSR form, aligned with the sorted neighbor arrays:
     the port of [v] toward [(As_graph.neighbors g v).(i)] is
     [egress.(egress_off.(v) + i)]. *)
  let egress_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    egress_off.(v + 1) <- egress_off.(v) + As_graph.degree g v
  done;
  let egress = Array.make egress_off.(n) (-1) in
  let egress_slot v u = egress_off.(v) + Sort.find_first (As_graph.neighbors g v) u in
  let port_toward v u = egress.(egress_slot v u) in
  ignore
    (As_graph.fold_edges g ~init:()
       ~f:(fun () u v kind ->
         let rel_uv, rel_vu =
           match kind with
           | As_graph.Provider_customer -> (Relationship.Customer, Relationship.Provider)
           | As_graph.Peer_peer -> (Relationship.Peer, Relationship.Peer)
         in
         let pu, pv =
           Packetsim.connect sim ~a:router_of_as.(u) ~b:router_of_as.(v)
             ~kind_ab:(Engine.Ebgp { neighbor_as = v; rel = rel_uv })
             ~kind_ba:(Engine.Ebgp { neighbor_as = u; rel = rel_vu })
             ~rate:link_rate ()
         in
         egress.(egress_slot u v) <- pu;
         egress.(egress_slot v u) <- pv));
  (* Hosts and their access links. *)
  let host_of_as = Hashtbl.create (List.length hosts) in
  let local_port = Array.make n (-1) in
  List.iter
    (fun v ->
      if not (Hashtbl.mem host_of_as v) then begin
        let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as v 1) in
        let _, router_side =
          Packetsim.connect sim ~a:h ~b:router_of_as.(v) ~kind_ab:Engine.Local
            ~kind_ba:Engine.Local ~rate:host_rate ()
        in
        Hashtbl.replace host_of_as v h;
        local_port.(v) <- router_side
      end)
    hosts;
  (* FIBs: one entry per host prefix in every router, from the analytic
     routing; on MIFO-capable ASes the initial alternative is the first
     RIB alternative, refreshed by the per-router daemon chooser below. *)
  List.iter
    (fun d ->
      let prefix = Prefix.of_as d in
      let rt = Routing_table.get table d in
      let first_alt = first_alts.(Sort.find_first dests d) in
      for v = 0 to n - 1 do
        let fib = Packetsim.fib sim router_of_as.(v) in
        if v = d then Fib.insert fib prefix ~out_port:local_port.(v) ()
        else
          match Routing.next_hop rt v with
          | None -> ()
          | Some nh ->
            let out_port = port_toward v nh in
            let alt = first_alt.(v) in
            if alt >= 0 then
              Fib.insert fib prefix ~out_port ~alt_port:(port_toward v alt) ()
            else Fib.insert fib prefix ~out_port ()
      done)
    hosts;
  (* Daemon choosers: the greedy rule, reading the candidates on demand
     from the routing states captured here.  [dest_nets] holds the host
     prefixes' network addresses, sorted, parallel to [dests]/[dest_rts]
     ([Prefix.of_as] is increasing in the AS id). *)
  let dest_nets =
    Array.map (fun d -> Int32.to_int (Prefix.of_as d).Prefix.network) dests
  in
  let dest_rts = Array.map (fun d -> Routing_table.get table d) dests in
  for v = 0 to n - 1 do
    if Deployment.capable deployment v then begin
      let node = router_of_as.(v) in
      Packetsim.set_alt_chooser sim node (fun prefix entry ->
          let i = Sort.find_first dest_nets (Int32.to_int prefix.Prefix.network) in
          if i < 0 || dests.(i) = v then Fib.alt_port entry
          else begin
            let rt = dest_rts.(i) in
            let size = Routing.rib_size rt v in
            if size < 2 || Option.is_none (Routing.next_hop rt v) then Fib.alt_port entry
            else begin
              (* RIB alternatives 1 .. size-1 in RIB order; the earliest
                 maximum spare capacity wins *)
              let best = ref (-1) and best_spare = ref 0. in
              for j = 1 to size - 1 do
                let port = port_toward v (Routing.rib_via rt v j) in
                let s = Packetsim.spare_capacity sim node port in
                if !best < 0 || s > !best_spare then begin
                  best := port;
                  best_spare := s
                end
              done;
              if !best_spare > 0. then Some !best else None
            end
          end)
    end
  done;
  { sim; router_of_as; host_of_as }

let add_transfer t ~src_as ~dst_as ~bytes ~start =
  let src = host t src_as and dst = host t dst_as in
  Packetsim.add_flow t.sim ~src ~dst ~bytes ~start

let run ?until t = Packetsim.run ?until t.sim
