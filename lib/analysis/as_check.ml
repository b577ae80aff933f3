module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Relationship = Mifo_topology.Relationship
module Policy = Mifo_core.Policy
module Loop_walk = Mifo_core.Loop_walk
module Intset = Mifo_util.Intset

type move = Automaton.move = {
  at : int;
  tag : bool;
  via : int;
  slot : int;
  deflected : bool;
}

type counterexample = {
  dest : int;
  entry : int list;
  cycle : int list;
  entry_moves : move list;
  cycle_moves : move list;
}

type loop_result = { counterexample : counterexample option; states_explored : int }

let all_enabled ~at:_ ~via:_ = true

type frame = {
  v : int;
  tag : bool;
  slot : int;  (* ranked slot the packet entered this AS by; 0 = default *)
  entered_by : move option;  (* the move taken at the parent frame *)
  mutable rest : (move * int * bool) list;
}

let find_loop_auto auto =
  (* Exhaustive DFS over the product automaton from every source root
     [(v, source_tag, 0)].  The transition relation, state encoding and
     overlay live in {!Automaton}; this function owns only the cycle
     search and counterexample extraction. *)
  let n = As_graph.n (Automaton.graph auto) in
  let dest = Automaton.dest auto in
  let enc = Automaton.enc auto in
  let slot_of entered_by =
    match entered_by with
    | None -> 0
    | Some m -> Automaton.slot_of_move auto m
  in
  let color = Array.make (Automaton.n_states auto) 0 in
  (* index of the state's frame in the current DFS path, bottom-first *)
  let pos = Array.make (Automaton.n_states auto) (-1) in
  let explored = ref 0 in
  let result = ref None in
  let path = ref [] (* top of the DFS path first *) in
  let depth = ref 0 in
  let push v tag entered_by =
    let slot = slot_of entered_by in
    let s = enc v tag slot in
    color.(s) <- 1;
    pos.(s) <- !depth;
    incr depth;
    incr explored;
    path := { v; tag; slot; entered_by; rest = Automaton.edges auto v tag } :: !path
  in
  let pop () =
    match !path with
    | [] -> ()
    | f :: rest ->
      let s = enc f.v f.tag f.slot in
      color.(s) <- 2;
      pos.(s) <- -1;
      decr depth;
      path := rest
  in
  (* A gray target at path index [target_pos] closes a cycle: frames
     [0 .. target_pos-1] are the entry, [target_pos ..] the cycle, and
     the move entering frame i+1 is the move taken AT frame i. *)
  let extract closing_move target_pos =
    let frames = Array.of_list (List.rev !path) in
    let k = Array.length frames in
    let move_at i =
      if i + 1 < k then
        match frames.(i + 1).entered_by with Some m -> m | None -> assert false
      else closing_move
    in
    let entry = ref [] and entry_moves = ref [] in
    let cycle = ref [] and cycle_moves = ref [] in
    for i = k - 1 downto 0 do
      if i < target_pos then begin
        entry := frames.(i).v :: !entry;
        entry_moves := move_at i :: !entry_moves
      end
      else begin
        cycle := frames.(i).v :: !cycle;
        cycle_moves := move_at i :: !cycle_moves
      end
    done;
    {
      dest;
      entry = !entry;
      cycle = !cycle @ [ frames.(target_pos).v ];
      entry_moves = !entry_moves;
      cycle_moves = !cycle_moves;
    }
  in
  let rec dfs () =
    if Option.is_none !result then
      match !path with
      | [] -> ()
      | f :: _ ->
        (match f.rest with
        | [] -> pop ()
        | (m, w, wtag) :: rest ->
          f.rest <- rest;
          let s = enc w wtag (slot_of (Some m)) in
          if color.(s) = 1 then result := Some (extract m pos.(s))
          else if color.(s) = 0 then push w wtag (Some m));
        dfs ()
  in
  (* Roots: every possible source with a freshly originated packet,
     which carries the source tag (it may use any of its RIB routes). *)
  let v = ref 0 in
  while Option.is_none !result && !v < n do
    if !v <> dest && color.(enc !v Policy.source_tag 0) = 0 then begin
      push !v Policy.source_tag None;
      dfs ()
    end;
    incr v
  done;
  { counterexample = !result; states_explored = !explored }

let find_loop_in = find_loop_auto

let find_loop ?(tag_check = true) ?(deflection_enabled = all_enabled) ?k g rt =
  find_loop_auto
    (Automaton.create ~tag_check
       ~overlay:(Automaton.deflection_overlay deflection_enabled)
       ?k g rt)

let replay ?(tag_check = true) g rt cx =
  let moves = Array.of_list (cx.entry_moves @ cx.cycle_moves) in
  let total = Array.length moves in
  let cyc_len = List.length cx.cycle_moves in
  if cyc_len = 0 then invalid_arg "As_check.replay: counterexample has an empty cycle";
  let i = ref 0 in
  let decide ~as_id:_ ~upstream:_ ~entries:_ =
    let m =
      if !i < total then moves.(!i)
      else moves.(total - cyc_len + ((!i - total) mod cyc_len))
    in
    incr i;
    if m.deflected then Loop_walk.Deflect m.via else Loop_walk.Default
  in
  let src =
    match cx.entry with v :: _ -> v | [] -> List.hd cx.cycle
  in
  (* Generous budget: the walk revisits an (AS, upstream) state within
     one extra turn of the cycle, well inside this bound. *)
  let max_hops = 2 * (total + cyc_len) + 8 in
  Loop_walk.walk ~tag_check ~max_hops g rt ~decide ~src

module Inc = struct
  (* Incremental re-verification over FIB deltas.  A delta toggles one
     deflection edge [(at, via)]; the invariant exploited is that a NEW
     root-reachable cycle after a batch of deltas must traverse a
     re-enabled edge (removing edges from a graph whose reachable region
     was acyclic cannot create cycles).  So a recheck after removals is
     free, and a recheck after additions DFSes only the region reachable
     from the changed states; a full [find_loop] (with the same overlay)
     runs only when that scan actually smells a cycle — which makes the
     returned verdict bit-identical to the full check by construction,
     counterexamples included. *)
  type inc = {
    g : As_graph.t;
    rt : Routing.t;
    tag_check : bool;
    k : int option;  (* k-alternative bound, None = unbounded *)
    slots : int;  (* widened-state slot count: 1 or k+1 *)
    disabled : Intset.t;  (* key = at * n + via; flat set, domain-private *)
    auto : Automaton.t;  (* overlay reads [disabled] live *)
    mutable pending_add : (int * int) list;  (* re-enabled since last recheck *)
    mutable pending_remove : (int * int) list;  (* disabled since last recheck *)
    mutable last : loop_result;
    scratch : Automaton.Scratch.t;  (* region-scan colors, epoch-cleared *)
    mutable full_checks : int;
    mutable region_scans : int;
  }

  type t = inc

  let full_check t =
    t.full_checks <- t.full_checks + 1;
    find_loop_auto t.auto

  let create ?(tag_check = true) ?k g rt =
    let n = As_graph.n g in
    let slots = match k with None -> 1 | Some kk -> kk + 1 in
    let disabled = Intset.create () in
    let enabled ~at ~via = not (Intset.mem disabled ((at * n) + via)) in
    let auto =
      Automaton.create ~tag_check ~overlay:(Automaton.deflection_overlay enabled) ?k g
        rt
    in
    let t =
      {
        g;
        rt;
        tag_check;
        k;
        slots;
        disabled;
        auto;
        pending_add = [];
        pending_remove = [];
        last = { counterexample = None; states_explored = 0 };
        scratch = Automaton.Scratch.create ();
        full_checks = 0;
        region_scans = 0;
      }
    in
    t.last <- full_check t;
    (* Pre-size the region-scan scratch so the first recheck is as
       O(region) as every later one — the arrays are allocated here,
       not inside a caller's timing window. *)
    Automaton.Scratch.round t.scratch ~states:(Automaton.n_states auto);
    t

  let result t = t.last
  let stats t = (t.full_checks, t.region_scans)

  let deflection_enabled t ~at ~via =
    not (Intset.mem t.disabled ((at * As_graph.n t.g) + via))

  let set_deflection t ~at ~via ~enabled =
    let n = As_graph.n t.g in
    let key = (at * n) + via in
    if enabled then begin
      if Intset.mem t.disabled key then begin
        Intset.remove t.disabled key;
        t.pending_add <- (at, via) :: t.pending_add
      end
    end
    else if not (Intset.mem t.disabled key) then begin
      Intset.add t.disabled key;
      t.pending_remove <- (at, via) :: t.pending_remove
    end

  (* DFS over the current edge set from the states touched by re-enabled
     edges; true iff a cycle is reachable from them.  Any new cycle, and
     any path newly connecting a source root to an old cycle, runs
     through a re-enabled edge — its endpoints (both tags and every
     entering slot, a conservative superset of the gated states) seed
     {!Automaton.cycle_from}. *)
  let region_scan t adds =
    t.region_scans <- t.region_scans + 1;
    let seeds = List.concat_map (fun (at, via) -> [ at; via ]) adds in
    Automaton.cycle_from t.auto ~scratch:t.scratch ~seeds

  let recheck t =
    let adds = t.pending_add and removes = t.pending_remove in
    t.pending_add <- [];
    t.pending_remove <- [];
    (match t.last.counterexample with
    | Some _ ->
      (* The standing verdict is a loop; a removal may have broken it
         (and the cached counterexample may reference a now-disabled
         edge), so anything pending forces a full re-verification. *)
      if adds <> [] || removes <> [] then t.last <- full_check t
    | None ->
      if adds = [] then begin
        (* Removals only: deleting edges from a graph whose reachable
           region is acyclic cannot create a cycle.  Zero states. *)
        if removes <> [] then t.last <- { counterexample = None; states_explored = 0 }
      end
      else begin
        let found, explored = region_scan t adds in
        if found then
          (* The region scan's cycle may sit outside the root-reachable
             region; the full check settles it and, when genuine, yields
             the canonical replayable counterexample. *)
          t.last <- full_check t
        else t.last <- { counterexample = None; states_explored = explored }
      end);
    t.last
end

(* The valley audit, chain-first.  A RIB path at [v] via entry [e] is
   [v :: default_path (e.via)], so both its hop count and its
   valley-freeness are functions of [e]'s direct hop plus a property of
   [via]'s default chain alone.  Per destination we memoize, for every
   node [w], the chain depth (hop count of [w]'s default path) and a
   2-bit validity mask of the chain under the valley automaton's two
   future-constraint states — S0 "anything allowed next" (still inside
   the Up* prefix) and S1 "only Down allowed" (a Flat or Down hop has
   been taken).  Each RIB entry is then audited in O(1) from the packed
   accessors; the boxed path materialises only on the cold violation
   path, so the 44K audit builds no list per RIB entry. *)
let ok_s0 = 1 (* chain valid when entered in S0 *)
let ok_s1 = 2 (* chain valid when entered in S1 *)

let chain_masks g rt =
  let n = As_graph.n g in
  let dest = Routing.dest rt in
  let depth = Array.make n (-1) in
  let okmask = Array.make n (-1) in
  depth.(dest) <- 0;
  okmask.(dest) <- ok_s0 lor ok_s1;
  let compute w0 =
    (* walk the default chain to the first memoized node, then unwind *)
    let rec walk w acc =
      if depth.(w) >= 0 then acc
      else
        match Routing.next_hop rt w with
        | None -> acc (* unreachable: caller reports, chain unused *)
        | Some nh -> walk nh ((w, nh) :: acc)
    in
    List.iter
      (fun (w, nh) ->
        depth.(w) <- 1 + depth.(nh);
        let hop = Relationship.hop_of (As_graph.rel_exn g w nh) in
        let nh_ok = okmask.(nh) in
        let s0_ok =
          match hop with
          | Relationship.Up -> nh_ok land ok_s0 <> 0
          | Relationship.Flat | Relationship.Down -> nh_ok land ok_s1 <> 0
        in
        let s1_ok =
          match hop with
          | Relationship.Down -> nh_ok land ok_s1 <> 0
          | Relationship.Up | Relationship.Flat -> false
        in
        okmask.(w) <- (if s0_ok then ok_s0 else 0) lor if s1_ok then ok_s1 else 0)
      (walk w0 [])
  in
  (depth, okmask, compute)

let check_paths g rt =
  let dest = Routing.dest rt in
  let n = As_graph.n g in
  let violations = ref [] in
  let count = ref 0 in
  let depth, okmask, compute_chain = chain_masks g rt in
  for v = 0 to n - 1 do
    if v <> dest then
      if not (Routing.reachable rt v) then
        violations := Report.Unreachable { dest; node = v } :: !violations
      else begin
        let k = Routing.rib_size rt v in
        for i = 0 to k - 1 do
          incr count;
          let via = Routing.rib_via rt v i in
          if depth.(via) < 0 then compute_chain via;
          let actual = 1 + depth.(via) in
          if actual <> Routing.rib_len_at rt v i then
            violations :=
              Report.Rib_len_mismatch
                { dest; at = v; via; expected = Routing.rib_len_at rt v i; actual }
              :: !violations;
          let hop = Relationship.hop_of (Routing.rib_rel_at rt v i) in
          let valley_free =
            match hop with
            | Relationship.Up -> okmask.(via) land ok_s0 <> 0
            | Relationship.Flat | Relationship.Down -> okmask.(via) land ok_s1 <> 0
          in
          if not valley_free then
            violations :=
              Report.Valley_path
                { dest; at = v; via; path = v :: Routing.default_path rt via }
              :: !violations
        done
      end
  done;
  (List.rev !violations, !count)
