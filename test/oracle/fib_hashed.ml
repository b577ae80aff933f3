(* The hashed FIB store: per prefix length an [(masked network, boxed
   entry)] Hashtbl, longest-prefix match by probing every length from
   /32 down.  It is the oracle the flat open-addressed {!Mifo_core.Fib}
   is compared against: same semantics for every operation of [S],
   which both modules implement ([iter] order differs).  The bucket and
   slot-spreading functions are the production ones; the [fib.entries]
   gauge is not fed. *)

module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib

module type S = sig
  type t
  type entry

  val buckets : int
  val max_alts : int
  val create : unit -> t
  val insert : t -> Prefix.t -> out_port:int -> ?alt_port:int -> unit -> unit
  val remove : t -> Prefix.t -> bool
  val lookup : t -> Prefix.addr -> entry option
  val find : t -> Prefix.t -> entry option
  val set_alt : t -> Prefix.t -> int option -> unit
  val iter : t -> (Prefix.t -> entry -> unit) -> unit
  val size : t -> int
  val may_deflect : t -> bool
  val out_port : entry -> int
  val alt_at : entry -> int -> int
  val deflect_buckets : entry -> int
  val set_alts : entry -> int list -> unit
  val set_deflect_buckets : entry -> int -> unit
end

let buckets = Fib.buckets
let max_alts = Fib.max_alts

(* [b_alt] holds the ranked slots, compacted: filled first, -1 after. *)
type boxed = { mutable b_out : int; b_alt : int array; mutable b_defl : int }

type t = {
  tables : (int, boxed) Hashtbl.t array;  (* index = prefix length *)
  mutable count : int;
  mutable alt_entries : int;  (* live entries with a nonempty ranked set *)
}

type entry = t * boxed

let create () =
  { tables = Array.init 33 (fun _ -> Hashtbl.create 16); count = 0; alt_entries = 0 }

let size t = t.count
let may_deflect t = t.alt_entries > 0
let key_of_addr addr = Int32.to_int addr land 0xFFFFFFFF
let mask len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

(* Run [f] on [b] and keep [t]'s alt-entry count exact. *)
let tracking_alts t b f =
  let had = b.b_alt.(0) >= 0 in
  f ();
  let has = b.b_alt.(0) >= 0 in
  if had && not has then t.alt_entries <- t.alt_entries - 1
  else if has && not had then t.alt_entries <- t.alt_entries + 1

let reset b ~alt =
  Array.fill b.b_alt 0 max_alts (-1);
  b.b_alt.(0) <- alt;
  b.b_defl <- 0

(* A route change replaces the entry; a refresh without an alternative
   clears the ranked set; a refresh naming the current first
   alternative keeps the daemon's state; any other refresh installs
   the new alternative alone. *)
let insert t prefix ~out_port ?(alt_port = -1) () =
  let table = t.tables.(prefix.Prefix.length) in
  let key = key_of_addr prefix.Prefix.network in
  match Hashtbl.find_opt table key with
  | Some b ->
    tracking_alts t b (fun () ->
        if b.b_out <> out_port || alt_port < 0 || alt_port <> b.b_alt.(0) then begin
          b.b_out <- out_port;
          reset b ~alt:alt_port
        end)
  | None ->
    let b = { b_out = out_port; b_alt = Array.make max_alts (-1); b_defl = 0 } in
    Hashtbl.replace table key b;
    t.count <- t.count + 1;
    tracking_alts t b (fun () -> b.b_alt.(0) <- alt_port)

let remove t prefix =
  let table = t.tables.(prefix.Prefix.length) in
  let key = key_of_addr prefix.Prefix.network in
  match Hashtbl.find_opt table key with
  | Some b ->
    Hashtbl.remove table key;
    t.count <- t.count - 1;
    tracking_alts t b (fun () -> b.b_alt.(0) <- -1);
    true
  | None -> false

let find t prefix =
  Hashtbl.find_opt t.tables.(prefix.Prefix.length) (key_of_addr prefix.Prefix.network)
  |> Option.map (fun b -> (t, b))

let lookup t addr =
  let a = key_of_addr addr in
  let rec scan len =
    if len < 0 then None
    else
      match Hashtbl.find_opt t.tables.(len) (a land mask len) with
      | Some b -> Some (t, b)
      | None -> scan (len - 1)
  in
  scan 32

let iter t f =
  Array.iteri
    (fun len table ->
      Hashtbl.iter (fun net b -> f (Prefix.make (Int32.of_int net) len) (t, b)) table)
    t.tables

let out_port (_, b) = b.b_out
let alt_at (_, b) slot = if slot < 0 || slot >= max_alts then -1 else b.b_alt.(slot)
let deflect_buckets (_, b) = b.b_defl
let set_deflect_buckets (_, b) n = b.b_defl <- n

(* Negatives dropped, order kept, truncated at [max_alts]. *)
let set_alts (t, b) ports =
  let kept = List.filteri (fun i _ -> i < max_alts) (List.filter (fun p -> p >= 0) ports) in
  tracking_alts t b (fun () ->
      Array.fill b.b_alt 0 max_alts (-1);
      List.iteri (fun i p -> b.b_alt.(i) <- p) kept)

let set_alt t prefix alt =
  match find t prefix with
  | Some (_, b) ->
    tracking_alts t b (fun () ->
        Array.fill b.b_alt 0 max_alts (-1);
        b.b_alt.(0) <- Option.value alt ~default:(-1))
  | None -> raise Not_found
