module Routing = Mifo_bgp.Routing
module Relationship = Mifo_topology.Relationship
module Deployment = Mifo_core.Deployment

type config = { cap : int }

let default_config = { cap = 5 }

(* RIB entries after the default in the default's preference class,
   via a MIRO-capable neighbor, best-first, at most [cap] of them. *)
let candidates ?(config = default_config) rt ~deployment ~src =
  if
    src = Routing.dest rt
    || (not (Deployment.capable deployment src))
    || Routing.rib_size rt src = 0
  then []
  else begin
    let size = Routing.rib_size rt src in
    let rank = Relationship.preference_rank (Routing.rib_rel_at rt src 0) in
    let acc = ref [] and taken = ref 0 in
    for i = 1 to size - 1 do
      let via = Routing.rib_via rt src i in
      if
        !taken < config.cap
        && Relationship.preference_rank (Routing.rib_rel_at rt src i) = rank
        && Deployment.capable deployment via
      then begin
        incr taken;
        acc := via :: !acc
      end
    done;
    List.rev !acc
  end

let available_path_count ?config rt ~deployment ~src =
  if src = Routing.dest rt then 1
  else if not (Routing.reachable rt src) then 0
  else 1 + List.length (candidates ?config rt ~deployment ~src)

let alternate_paths ?config rt ~deployment ~src =
  let has_dup path =
    let seen = Hashtbl.create 16 in
    List.exists
      (fun v ->
        if Hashtbl.mem seen v then true
        else begin
          Hashtbl.add seen v ();
          false
        end)
      path
  in
  candidates ?config rt ~deployment ~src
  |> List.filter_map (fun via ->
         let path = src :: Routing.default_path rt via in
         if has_dup path then None else Some path)

let extra_announcements ?config rt ~deployment =
  let g_n = Deployment.size deployment in
  let total = ref 0 in
  for v = 0 to g_n - 1 do
    if v <> Routing.dest rt then begin
      let alternates = candidates ?config rt ~deployment ~src:v in
      (* each alternate is re-advertised alongside the default route *)
      total := !total + List.length alternates
    end
  done;
  !total
