module Routing = Mifo_bgp.Routing

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let ranked_alternatives rt ~src_as ~upstream ~spare ~k =
  (* Pool-cap FIRST, in RIB preference order: the k-limited static
     verifier admits deflections onto the first k RIB alternatives, so
     the runtime chooser must draw from exactly that pool for the check
     to be sound.  Every pool entry is next-hop-disjoint from the
     default route (the RIB holds one entry per neighbor and
     [alternatives] excludes the head). *)
  let pool = take (Stdlib.min k Fib.max_alts) (Routing.alternatives rt src_as) in
  let pool =
    List.filter
      (fun (e : Routing.rib_entry) ->
        Policy.deflection_allowed ~upstream ~downstream:e.rel && spare e.via > 0.)
      pool
  in
  List.stable_sort
    (fun (a : Routing.rib_entry) (b : Routing.rib_entry) ->
      let c = Float.compare (spare b.via) (spare a.via) in
      if c <> 0 then c else Int.compare a.via b.via)
    pool
