module Routing = Mifo_bgp.Routing

let ranked_alternatives rt ~src_as ~upstream ~spare ~k =
  (* Pool-cap FIRST, in RIB preference order: the k-limited static
     verifier admits deflections onto the first k RIB alternatives
     (indices 1 .. k), so the runtime chooser must draw from exactly
     that pool for the check to be sound.  Every pool entry is
     next-hop-disjoint from the default route (the RIB holds one entry
     per neighbor and index 0 is the default). *)
  let last = Stdlib.min (Stdlib.min k Fib.max_alts) (Routing.rib_size rt src_as - 1) in
  let pool = ref [] in
  for i = last downto 1 do
    let via = Routing.rib_via rt src_as i in
    if
      Policy.deflection_allowed ~upstream ~downstream:(Routing.rib_rel_at rt src_as i)
      && spare via > 0.
    then pool := via :: !pool
  done;
  List.stable_sort
    (fun a b ->
      let c = Float.compare (spare b) (spare a) in
      if c <> 0 then c else Int.compare a b)
    !pool
