(* Hierarchical timing wheel over integer ticks, bit-identical in pop
   order to a binary heap keyed by (time, seq).  See wheel.mli for the
   determinism contract.

   Layout: [levels] wheels of [size = 2^bits] buckets each.  A bucket at
   level [l] spans [size^l] ticks.  An event's level is the position of
   the highest base-[size] digit in which its tick differs from the
   current tick [cur], so every resident bucket index at a level is
   strictly greater than [cur]'s digit at that level — buckets never
   wrap, and the lowest nonempty level always holds the globally
   earliest event.  Advancing pops the first occupied bucket of the
   lowest nonempty level: level 0 buckets (one tick each) drain into the
   sorted "run" below; upper-level buckets cascade — [cur] jumps to the
   bucket's base tick and its cells are redistributed into lower levels.

   Cells live in a grow-only arena of parallel arrays, linked through
   [c_next]; freed cells form a free list through the same array, so
   steady-state scheduling allocates nothing.  The payload slot of a
   freed cell keeps its last value alive until the slot is reused — the
   same retention a binary heap's backing array exhibits.

   The "run" ([r_time]/[r_seq]/[r_payload]) holds the current tick's events sorted by
   (time, seq); events scheduled at or before [cur] are merge-inserted
   into its unconsumed suffix, which is exactly what preserves heap
   equivalence when quantization folds distinct times into one tick. *)

let bits = 8
let size = 1 lsl bits
let mask = size - 1
let levels = 7

(* Occupancy bitmap word size: 32 bits, NOT 64 — OCaml's native int is
   63-bit, so [1 lsl 63] silently vanishes and bucket 63/127/191/255
   would never register as occupied. *)
let word_bits = 5
let word_mask = 31
let words = size lsr word_bits
let max_tick = (1 lsl (bits * levels)) - 1
let max_tick_f = float_of_int max_tick

type 'a t = {
  tick : float;
  (* cell arena *)
  mutable c_time : float array;
  mutable c_seq : int array;
  mutable c_tick : int array;
  mutable c_payload : 'a array;
  mutable c_next : int array;
  mutable free : int;  (* free-list head through c_next, -1 = none *)
  mutable used : int;  (* arena high-water mark *)
  (* buckets: levels * size slots, FIFO lists with tail append *)
  heads : int array;
  tails : int array;
  occ : int array;  (* occupancy bitmap, [words] words per level *)
  level_count : int array;
  mutable cur : int;  (* current tick *)
  mutable count : int;  (* resident events incl. the run *)
  (* the run: current tick drained and sorted by (time, seq) *)
  mutable r_time : float array;
  mutable r_seq : int array;
  mutable r_payload : 'a array;
  mutable r_len : int;
  mutable r_cursor : int;
  mutable cascades : int;
}

let create ?(tick = 1e-6) () =
  if Float.is_nan tick || tick <= 0. || tick = Float.infinity then
    invalid_arg "Wheel.create: tick must be positive and finite";
  {
    tick;
    c_time = [||];
    c_seq = [||];
    c_tick = [||];
    c_payload = [||];
    c_next = [||];
    free = -1;
    used = 0;
    heads = Array.make (levels * size) (-1);
    tails = Array.make (levels * size) (-1);
    occ = Array.make (levels * words) 0;
    level_count = Array.make levels 0;
    cur = 0;
    count = 0;
    r_time = [||];
    r_seq = [||];
    r_payload = [||];
    r_len = 0;
    r_cursor = 0;
    cascades = 0;
  }

let length t = t.count
let is_empty t = t.count = 0

let quantize t time =
  let q = time /. t.tick in
  if q >= max_tick_f then max_tick else int_of_float q

(* Highest base-[size] digit where [tk] differs from [cur]; [tk > cur]
   so the loop runs at most [levels - 1] times (usually zero). *)
let level_of t tk =
  let x = ref ((tk lxor t.cur) lsr bits) in
  let l = ref 0 in
  while !x <> 0 do
    incr l;
    x := !x lsr bits
  done;
  !l

(* ---- cell arena -------------------------------------------------------- *)

let grow_arena t payload =
  let cap = Array.length t.c_time in
  let ncap = Stdlib.max 64 (2 * cap) in
  let nt = Array.make ncap 0. in
  let ns = Array.make ncap 0 in
  let nk = Array.make ncap 0 in
  let np = Array.make ncap payload in
  let nn = Array.make ncap (-1) in
  Array.blit t.c_time 0 nt 0 t.used;
  Array.blit t.c_seq 0 ns 0 t.used;
  Array.blit t.c_tick 0 nk 0 t.used;
  Array.blit t.c_payload 0 np 0 t.used;
  Array.blit t.c_next 0 nn 0 t.used;
  t.c_time <- nt;
  t.c_seq <- ns;
  t.c_tick <- nk;
  t.c_payload <- np;
  t.c_next <- nn

let alloc_cell t time seq tk payload =
  let c =
    if t.free >= 0 then begin
      let c = t.free in
      t.free <- t.c_next.(c);
      c
    end
    else begin
      if t.used = Array.length t.c_time then grow_arena t payload;
      let c = t.used in
      t.used <- t.used + 1;
      c
    end
  in
  t.c_time.(c) <- time;
  t.c_seq.(c) <- seq;
  t.c_tick.(c) <- tk;
  t.c_payload.(c) <- payload;
  t.c_next.(c) <- -1;
  c

let free_cell t c =
  t.c_next.(c) <- t.free;
  t.free <- c

(* ---- buckets ----------------------------------------------------------- *)

let bucket_push t l i c =
  let b = (l * size) + i in
  if t.heads.(b) < 0 then begin
    t.heads.(b) <- c;
    t.tails.(b) <- c;
    let w = (l * words) + (i lsr word_bits) in
    t.occ.(w) <- t.occ.(w) lor (1 lsl (i land word_mask))
  end
  else begin
    t.c_next.(t.tails.(b)) <- c;
    t.tails.(b) <- c
  end

let ctz x =
  let x = ref (x land -x) in
  let n = ref 0 in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then n := !n + 1;
  !n

(* First occupied bucket index at a level known to be nonempty. *)
let first_index t l =
  let base = l * words in
  let w = ref 0 in
  while t.occ.(base + !w) = 0 do
    incr w
  done;
  (!w lsl word_bits) + ctz t.occ.(base + !w)

(* ---- the sorted run ---------------------------------------------------- *)

let grow_run t payload =
  let cap = Array.length t.r_time in
  let ncap = Stdlib.max 64 (2 * cap) in
  let nt = Array.make ncap 0. in
  let ns = Array.make ncap 0 in
  let np = Array.make ncap payload in
  Array.blit t.r_time 0 nt 0 t.r_len;
  Array.blit t.r_seq 0 ns 0 t.r_len;
  Array.blit t.r_payload 0 np 0 t.r_len;
  t.r_time <- nt;
  t.r_seq <- ns;
  t.r_payload <- np

(* Insert into the unconsumed suffix [r_cursor, r_len) at the position
   that keeps it sorted by (time, seq).  The common case — keys arrive
   in order — appends without searching. *)
let run_insert t time seq payload =
  if t.r_len = Array.length t.r_time then grow_run t payload;
  let len = t.r_len in
  let after i =
    let c = Float.compare time t.r_time.(i) in
    if c <> 0 then c > 0 else seq > t.r_seq.(i)
  in
  if len = t.r_cursor || after (len - 1) then begin
    t.r_time.(len) <- time;
    t.r_seq.(len) <- seq;
    t.r_payload.(len) <- payload;
    t.r_len <- len + 1
  end
  else begin
    let lo = ref t.r_cursor and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if after mid then lo := mid + 1 else hi := mid
    done;
    let j = !lo in
    Array.blit t.r_time j t.r_time (j + 1) (len - j);
    Array.blit t.r_seq j t.r_seq (j + 1) (len - j);
    Array.blit t.r_payload j t.r_payload (j + 1) (len - j);
    t.r_time.(j) <- time;
    t.r_seq.(j) <- seq;
    t.r_payload.(j) <- payload;
    t.r_len <- len + 1
  end

(* ---- scheduling -------------------------------------------------------- *)

let place_cell t c =
  let tk = t.c_tick.(c) in
  if tk <= t.cur then begin
    run_insert t t.c_time.(c) t.c_seq.(c) t.c_payload.(c);
    free_cell t c
  end
  else begin
    let l = level_of t tk in
    bucket_push t l ((tk lsr (l * bits)) land mask) c;
    t.level_count.(l) <- t.level_count.(l) + 1
  end

let schedule t ~time ~seq payload =
  if Float.is_nan time || time < 0. then invalid_arg "Wheel.schedule: bad time";
  t.count <- t.count + 1;
  let tk = quantize t time in
  if tk <= t.cur then run_insert t time seq payload
  else begin
    let c = alloc_cell t time seq tk payload in
    let l = level_of t tk in
    bucket_push t l ((tk lsr (l * bits)) land mask) c;
    t.level_count.(l) <- t.level_count.(l) + 1
  end

(* ---- advancing --------------------------------------------------------- *)

let ensure_run t =
  if t.r_cursor >= t.r_len && t.count > 0 then begin
    t.r_cursor <- 0;
    t.r_len <- 0;
    while t.r_len = 0 do
      (* count > 0 and the run is empty, so some level is occupied *)
      let l = ref 0 in
      while t.level_count.(!l) = 0 do
        incr l
      done;
      let l = !l in
      let i = first_index t l in
      let b = (l * size) + i in
      let head = t.heads.(b) in
      t.heads.(b) <- -1;
      t.tails.(b) <- -1;
      let w = (l * words) + (i lsr word_bits) in
      t.occ.(w) <- t.occ.(w) land lnot (1 lsl (i land word_mask));
      if l = 0 then begin
        (* a one-tick bucket: this IS the next tick — drain and sort *)
        t.cur <- t.cur land lnot mask lor i;
        let c = ref head in
        while !c >= 0 do
          let nx = t.c_next.(!c) in
          t.level_count.(0) <- t.level_count.(0) - 1;
          run_insert t t.c_time.(!c) t.c_seq.(!c) t.c_payload.(!c);
          free_cell t !c;
          c := nx
        done
      end
      else begin
        (* cascade: jump to the bucket's base tick, redistribute its
           cells into lower levels (or straight into the run) *)
        t.cascades <- t.cascades + 1;
        let sh = l * bits in
        t.cur <- ((t.cur lsr (sh + bits)) lsl (sh + bits)) lor (i lsl sh);
        let c = ref head in
        while !c >= 0 do
          let nx = t.c_next.(!c) in
          t.level_count.(l) <- t.level_count.(l) - 1;
          t.c_next.(!c) <- -1;
          place_cell t !c;
          c := nx
        done
      end
    done
  end

let pop t =
  ensure_run t;
  if t.r_cursor >= t.r_len then None
  else begin
    let i = t.r_cursor in
    t.r_cursor <- i + 1;
    t.count <- t.count - 1;
    Some (t.r_time.(i), t.r_seq.(i), t.r_payload.(i))
  end

let peek t =
  ensure_run t;
  if t.r_cursor >= t.r_len then None
  else Some (t.r_time.(t.r_cursor), t.r_seq.(t.r_cursor))

(* Fused horizon-checked pop for the dispatch loop.  The popped time
   goes into [cell.(0)] — a flat float-array store — instead of a
   return value: without flambda, a float returned across a module
   boundary is boxed, and this runs once per simulation event. *)
let pop_before t ~until ~cell =
  if t.count = 0 then None
  else begin
    ensure_run t;
    let i = t.r_cursor in
    let time = t.r_time.(i) in
    if time > until then None
    else begin
      t.r_cursor <- i + 1;
      t.count <- t.count - 1;
      cell.(0) <- time;
      Some t.r_payload.(i)
    end
  end

let precedes t ~time ~seq =
  ensure_run t;
  t.r_cursor >= t.r_len
  ||
  let c = Float.compare time t.r_time.(t.r_cursor) in
  c < 0 || (c = 0 && seq < t.r_seq.(t.r_cursor))

let clear t =
  Array.fill t.heads 0 (levels * size) (-1);
  Array.fill t.tails 0 (levels * size) (-1);
  Array.fill t.occ 0 (levels * words) 0;
  Array.fill t.level_count 0 levels 0;
  t.free <- -1;
  t.used <- 0;
  t.cur <- 0;
  t.count <- 0;
  t.r_len <- 0;
  t.r_cursor <- 0;
  t.cascades <- 0

type stats = { occupancy : int array; ready : int; cascades : int }

let stats t =
  {
    occupancy = Array.copy t.level_count;
    ready = t.r_len - t.r_cursor;
    cascades = t.cascades;
  }
