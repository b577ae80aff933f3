module Prefix = Mifo_bgp.Prefix
module Obs = Mifo_util.Obs

(* Live FIB entries across every table in the process: insert/remove
   keep it current so `--metrics` can watch data-plane memory grow. *)
let g_entries = Obs.gauge "fib.entries"

let max_alts = 4

(* The MIFO_K_ALT knob: how many ranked alternative slots the daemon and
   the tools fill, clamped to [1, max_alts].  The FIB itself always has
   max_alts slots; the knob only caps how many get used.  Read on every
   call (never at module initialisation), so a malformed value fails
   the caller that asked for it. *)
let default_k () =
  match Sys.getenv_opt "MIFO_K_ALT" with
  | None -> max_alts
  | Some s -> (
    match String.trim s with
    | "" -> max_alts
    | t -> (
      match int_of_string_opt t with
      | Some k when k >= 1 -> Stdlib.min k max_alts
      | Some _ | None ->
        invalid_arg
          (Printf.sprintf "MIFO_K_ALT: expected a positive integer, got %S" s)))

(* Flat store for one prefix length: an open-addressed index (linear
   probing, power-of-two capacity, backward-shift deletion) over a
   slot-stable arena of unboxed fields.  Arena ids survive index growth,
   so an [entry] handle stays valid across inserts; only removing that
   exact prefix retires it.  At 44K ASes the FIB is pure int arrays —
   no per-entry boxes, no Hashtbl buckets.  [a_alt] is strided: entry
   [id]'s ranked alternative slots live at
   [a_alt.(id * max_alts) .. a_alt.(id * max_alts + max_alts - 1)],
   compacted (filled slots first, -1 afterwards). *)
type flat = {
  mutable cap : int;  (* index capacity, power of two; 0 = empty *)
  mutable idx_key : int array;  (* masked addr, -1 = empty slot *)
  mutable idx_id : int array;  (* arena id for the key in the same slot *)
  mutable f_live : int;
  mutable a_key : int array;  (* -1 = freed arena cell *)
  mutable a_out : int array;
  mutable a_alt : int array;  (* stride max_alts; -1 = empty slot *)
  mutable a_defl : int array;
  mutable a_len : int;
  mutable freed : int list;
}

type t = {
  levels : flat array;  (* index = prefix length *)
  mutable len_mask : int;
  mutable count : int;
  mutable alt_entries : int;
      (* number of live entries whose ranked alternative set is
         nonempty.  Kept exact by insert/remove AND by the entry-handle
         writers (handles carry their owning table), so [may_deflect]
         reflects the current state rather than a sticky historical
         bit. *)
}

(* A view of arena cell [id] of level [fl], owned by table [tbl]. *)
type entry = { tbl : t; fl : flat; id : int }

let buckets = 64

let empty_ints : int array = [||]

let flat_create () =
  {
    cap = 0;
    idx_key = empty_ints;
    idx_id = empty_ints;
    f_live = 0;
    a_key = empty_ints;
    a_out = empty_ints;
    a_alt = empty_ints;
    a_defl = empty_ints;
    a_len = 0;
    freed = [];
  }

(* The level every prefix length of a fresh flat table points at until
   its first insert: a 44K-router network would otherwise allocate 33
   level records per router, nearly all of which stay empty.  Readers
   see [cap = 0] and [a_len = 0] and never write; [insert] swaps in a
   private level before its first write. *)
let empty_level = flat_create ()

let create () =
  { levels = Array.make 33 empty_level; len_mask = 0; count = 0; alt_entries = 0 }

let may_deflect t = t.alt_entries > 0
let size t = t.count

(* Network masks as plain ints, index = prefix length. *)
let imask =
  Array.init 33 (fun l -> if l = 0 then 0 else 0xFFFFFFFF lsl (32 - l) land 0xFFFFFFFF)

let ikey_of_addr addr = Int32.to_int addr land 0xFFFFFFFF

(* Fibonacci-style multiplicative mix: keys are masked network addrs,
   whose low bits are all zero for short prefixes — the multiply+xor
   spreads them before the power-of-two mask. *)
let[@inline] hash_key k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Slot of [key] in the index, -1 when absent. *)
let find_index fl key =
  if fl.cap = 0 then -1
  else begin
    let mask = fl.cap - 1 in
    let i = ref (hash_key key land mask) in
    let r = ref (-2) in
    while !r = -2 do
      let k = fl.idx_key.(!i) in
      if k = key then r := !i
      else if k = -1 then r := -1
      else i := (!i + 1) land mask
    done;
    !r
  end

(* Rebuild the index at [new_cap] from the arena (arena ids unchanged). *)
let rebuild_index fl new_cap =
  let keys = Array.make new_cap (-1) in
  let ids = Array.make new_cap 0 in
  let mask = new_cap - 1 in
  for id = 0 to fl.a_len - 1 do
    let k = fl.a_key.(id) in
    if k >= 0 then begin
      let i = ref (hash_key k land mask) in
      while keys.(!i) >= 0 do
        i := (!i + 1) land mask
      done;
      keys.(!i) <- k;
      ids.(!i) <- id
    end
  done;
  fl.cap <- new_cap;
  fl.idx_key <- keys;
  fl.idx_id <- ids

let grow_arena_field a len fill =
  let n = Stdlib.max 16 (2 * len) in
  let b = Array.make n fill in
  Array.blit a 0 b 0 len;
  b

(* The strided alt field grows in lockstep with the others: same entry
   capacity, [max_alts] cells per entry. *)
let grow_arena_alts a len =
  let n = Stdlib.max 16 (2 * len) in
  let b = Array.make (n * max_alts) (-1) in
  Array.blit a 0 b 0 (len * max_alts);
  b

let[@inline] clear_alt_slots alts base =
  for j = 0 to max_alts - 1 do
    alts.(base + j) <- -1
  done

let arena_alloc fl key ~out_port ~alt =
  let id =
    match fl.freed with
    | id :: rest ->
      fl.freed <- rest;
      id
    | [] ->
      if fl.a_len = Array.length fl.a_key then begin
        fl.a_key <- grow_arena_field fl.a_key fl.a_len (-1);
        fl.a_out <- grow_arena_field fl.a_out fl.a_len 0;
        fl.a_alt <- grow_arena_alts fl.a_alt fl.a_len;
        fl.a_defl <- grow_arena_field fl.a_defl fl.a_len 0
      end;
      let id = fl.a_len in
      fl.a_len <- fl.a_len + 1;
      id
  in
  fl.a_key.(id) <- key;
  fl.a_out.(id) <- out_port;
  clear_alt_slots fl.a_alt (id * max_alts);
  fl.a_alt.(id * max_alts) <- alt;
  fl.a_defl.(id) <- 0;
  id

let[@inline] note_alt_transition t ~had ~has =
  if had && not has then t.alt_entries <- t.alt_entries - 1
  else if has && not had then t.alt_entries <- t.alt_entries + 1

(* Install or refresh [key] in [t]'s level [fl].  A refresh with the
   same [out_port] takes the call's [alt] hint as authoritative for the
   single-alt API: [-1] (no alternative) clears the whole ranked set
   and resets the deflection level; a hint equal to the current primary
   preserves the live ranked set and deflection state; a new primary
   replaces the set with the singleton and restarts the ramp.  A
   changed [out_port] is a full route change: set and ramp reset. *)
let flat_insert t fl key ~out_port ~alt =
  match find_index fl key with
  | i when i >= 0 ->
    let id = fl.idx_id.(i) in
    let base = id * max_alts in
    let had = fl.a_alt.(base) >= 0 in
    let same_out = fl.a_out.(id) = out_port in
    if not (same_out && alt >= 0 && alt = fl.a_alt.(base)) then begin
      fl.a_out.(id) <- out_port;
      clear_alt_slots fl.a_alt base;
      if alt >= 0 || not same_out then fl.a_alt.(base) <- alt;
      fl.a_defl.(id) <- 0
    end;
    note_alt_transition t ~had ~has:(fl.a_alt.(base) >= 0)
  | _ ->
    if 4 * (fl.f_live + 1) > 3 * fl.cap then
      rebuild_index fl (Stdlib.max 16 (2 * fl.cap));
    let id = arena_alloc fl key ~out_port ~alt in
    let mask = fl.cap - 1 in
    let i = ref (hash_key key land mask) in
    while fl.idx_key.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    fl.idx_key.(!i) <- key;
    fl.idx_id.(!i) <- id;
    fl.f_live <- fl.f_live + 1;
    t.count <- t.count + 1;
    Obs.add_gauge g_entries 1.;
    note_alt_transition t ~had:false ~has:(alt >= 0)

(* Backward-shift deletion: close the probe chain over the hole so
   later lookups never hit a false empty slot.  Returns the freed
   entry's had-alternative bit, -1 when the key was absent. *)
let flat_remove fl key =
  match find_index fl key with
  | -1 -> -1
  | hole ->
    let id = fl.idx_id.(hole) in
    let had_alt = if fl.a_alt.(id * max_alts) >= 0 then 1 else 0 in
    fl.a_key.(id) <- -1;
    fl.freed <- id :: fl.freed;
    fl.f_live <- fl.f_live - 1;
    let mask = fl.cap - 1 in
    let i = ref hole in
    let j = ref hole in
    let continue = ref true in
    while !continue do
      j := (!j + 1) land mask;
      let k = fl.idx_key.(!j) in
      if k = -1 then begin
        fl.idx_key.(!i) <- -1;
        continue := false
      end
      else begin
        let h = hash_key k land mask in
        if (!j - h) land mask >= (!j - !i) land mask then begin
          fl.idx_key.(!i) <- k;
          fl.idx_id.(!i) <- fl.idx_id.(!j);
          i := !j
        end
      end
    done;
    had_alt

let insert t prefix ~out_port ?alt_port () =
  let len = prefix.Prefix.length in
  let key = ikey_of_addr prefix.Prefix.network in
  let alt = match alt_port with None -> -1 | Some p -> p in
  let fs = t.levels in
  let fl =
    if fs.(len) != empty_level then fs.(len)
    else begin
      let fl = flat_create () in
      fs.(len) <- fl;
      fl
    end
  in
  flat_insert t fl key ~out_port ~alt;
  t.len_mask <- t.len_mask lor (1 lsl len)

let remove t prefix =
  let len = prefix.Prefix.length in
  let key = ikey_of_addr prefix.Prefix.network in
  let removed_alt = flat_remove t.levels.(len) key in
  if removed_alt >= 0 then begin
    t.count <- t.count - 1;
    Obs.add_gauge g_entries (-1.);
    if removed_alt = 1 then t.alt_entries <- t.alt_entries - 1;
    if t.levels.(len).f_live = 0 then t.len_mask <- t.len_mask land lnot (1 lsl len);
    true
  end
  else false

(* Highest set bit of a nonzero mask.  Lengths occupy 33 bits (0-32),
   one more than a power-of-two cascade covers, so bit 32 — host
   routes — is peeled off first. *)
let msb m =
  if m land 0x100000000 <> 0 then 32
  else begin
    let r = ref 0 and m = ref m in
    if !m land 0xFFFF0000 <> 0 then begin
      r := !r + 16;
      m := !m lsr 16
    end;
    if !m land 0xFF00 <> 0 then begin
      r := !r + 8;
      m := !m lsr 8
    end;
    if !m land 0xF0 <> 0 then begin
      r := !r + 4;
      m := !m lsr 4
    end;
    if !m land 0xC <> 0 then begin
      r := !r + 2;
      m := !m lsr 2
    end;
    if !m land 0x2 <> 0 then incr r;
    !r
  end

let find_key t len key =
  let fl = t.levels.(len) in
  let i = find_index fl key in
  if i < 0 then None else Some { tbl = t; fl; id = fl.idx_id.(i) }

let lookup t addr =
  let a = ikey_of_addr addr in
  let rec scan m =
    if m = 0 then None
    else begin
      let len = msb m in
      match find_key t len (a land imask.(len)) with
      | Some _ as r -> r
      | None -> scan (m land lnot (1 lsl len))
    end
  in
  scan t.len_mask

let find t prefix =
  find_key t prefix.Prefix.length (ikey_of_addr prefix.Prefix.network)

(* Entry accessors: handles are views into the owning store, so reads
   and writes land directly on the unboxed arena fields.  Handles also
   carry the owning table, so the alternative writers below can keep
   its alt-entry count exact. *)

let[@inline] out_port e = e.fl.a_out.(e.id)
let[@inline] alt_port_id e = e.fl.a_alt.(e.id * max_alts)

let alt_port e =
  let a = alt_port_id e in
  if a < 0 then None else Some a

let[@inline] alt_at e slot =
  if slot < 0 || slot >= max_alts then -1 else e.fl.a_alt.((e.id * max_alts) + slot)

(* Slots are compacted, so the count is the first empty index. *)
let alt_count e =
  let alts = e.fl.a_alt and base = e.id * max_alts in
  if alts.(base) < 0 then 0
  else if alts.(base + 1) < 0 then 1
  else if alts.(base + 2) < 0 then 2
  else if alts.(base + 3) < 0 then 3
  else 4

let[@inline] deflect_buckets e = e.fl.a_defl.(e.id)

(* Write the ranked set [ports] into the entry's slots: negatives are
   skipped, the rest kept in order, truncated at [max_alts], compacted,
   higher slots cleared. *)
let set_alts e ports =
  let alts = e.fl.a_alt and base = e.id * max_alts in
  let had = alts.(base) >= 0 in
  let filled = ref 0 in
  List.iter
    (fun p ->
      if p >= 0 && !filled < max_alts then begin
        alts.(base + !filled) <- p;
        incr filled
      end)
    ports;
  for j = !filled to max_alts - 1 do
    alts.(base + j) <- -1
  done;
  note_alt_transition e.tbl ~had ~has:(!filled > 0)

let set_alt_port e alt =
  let a = match alt with None -> -1 | Some p -> p in
  let had = alt_port_id e >= 0 in
  let base = e.id * max_alts in
  clear_alt_slots e.fl.a_alt base;
  e.fl.a_alt.(base) <- a;
  note_alt_transition e.tbl ~had ~has:(a >= 0)

let set_deflect_buckets e n = e.fl.a_defl.(e.id) <- n

let set_alt t prefix alt =
  match find t prefix with
  | Some e -> set_alt_port e alt
  | None -> raise Not_found

let iter t f =
  for len = 0 to 32 do
    let fl = t.levels.(len) in
    for id = 0 to fl.a_len - 1 do
      let k = fl.a_key.(id) in
      if k >= 0 then f (Prefix.make (Int32.of_int k) len) { tbl = t; fl; id }
    done
  done

(* SplitMix64-style mix so bucket spread does not depend on flow-id
   assignment patterns. *)
let flow_bucket flow =
  let open Int64 in
  let z = mul (of_int ((flow * 2) + 1)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical z 40) mod buckets

let deflects e ~flow = alt_port_id e >= 0 && flow_bucket flow < deflect_buckets e

(* ECMP spreading: deflected buckets are dealt round-robin over the
   ranked slots, so each alternative receives a deterministic slice of
   the flow space and a single-alternative entry behaves exactly like
   the k=1 data plane (every bucket maps to slot 0). *)
let[@inline] slot_of_bucket ~bucket ~count = bucket mod count

let alt_for_flow e ~flow =
  match alt_count e with
  | 0 -> -1
  | c -> alt_at e (slot_of_bucket ~bucket:(flow_bucket flow) ~count:c)
