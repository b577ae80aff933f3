type loaded = { graph : As_graph.t; as_number : int array }

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* AS numbers are 32-bit unsigned (RFC 6793) in plain decimal.
   [int_of_string] alone would also take a sign, a radix prefix, [_]
   separators and values past 2^32 - 1. *)
let parse_asn lineno field s =
  let t = String.trim s in
  let decimal = t <> "" && String.for_all (fun c -> c >= '0' && c <= '9') t in
  match if decimal then int_of_string_opt t else None with
  | Some v when v <= 0xFFFF_FFFF -> v
  | _ -> fail lineno (Printf.sprintf "bad %s %S" field s)

let parse_string text =
  let ids = Hashtbl.create 1024 in
  let numbers = Mifo_util.Vec.create () in
  let intern asn =
    match Hashtbl.find_opt ids asn with
    | Some id -> id
    | None ->
      let id = Mifo_util.Vec.length numbers in
      Hashtbl.add ids asn id;
      Mifo_util.Vec.push numbers asn;
      id
  in
  let edges = ref [] in
  (* unordered AS-number pair -> the line that first linked it *)
  let first_line = Hashtbl.create 1024 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.split_on_char '|' line with
        | [ a; b; r ] | a :: b :: r :: _ :: [] ->
          let a = parse_asn lineno "first AS number" a in
          let b = parse_asn lineno "second AS number" b in
          let kind =
            match String.trim r with
            | "-1" -> As_graph.Provider_customer
            | "0" -> As_graph.Peer_peer
            | other -> fail lineno (Printf.sprintf "unknown relationship %S" other)
          in
          if a = b then fail lineno (Printf.sprintf "self-loop on AS%d" a);
          let key = if a < b then (a, b) else (b, a) in
          (match Hashtbl.find_opt first_line key with
           | Some first ->
             fail lineno
               (Printf.sprintf "duplicate link between AS%d and AS%d (first on line %d)" a b
                  first)
           | None -> Hashtbl.add first_line key lineno);
          (* explicit lets: OCaml evaluates tuple components right to
             left, and we want ids assigned in reading order *)
          let ia = intern a in
          let ib = intern b in
          edges := (ia, ib, kind) :: !edges
        | _ -> fail lineno "expected <as1>|<as2>|<rel>"
      end)
    lines;
  let as_number = Mifo_util.Vec.to_array numbers in
  let n = Array.length as_number in
  if n = 0 then fail 0 "no links in input";
  let graph =
    try As_graph.create ~n ~edges:!edges
    with As_graph.Cyclic_provider_graph -> fail 0 "provider-customer links form a cycle"
  in
  { graph; as_number }

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let to_string ?as_number graph =
  let name =
    match as_number with
    | Some a -> fun v -> a.(v)
    | None -> fun v -> v
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# as-rel: <provider-or-peer>|<customer-or-peer>|<-1:p2c 0:p2p>\n";
  As_graph.fold_edges graph ~init:() ~f:(fun () u v kind ->
      let r = match kind with As_graph.Provider_customer -> -1 | As_graph.Peer_peer -> 0 in
      Buffer.add_string buf (Printf.sprintf "%d|%d|%d\n" (name u) (name v) r));
  Buffer.contents buf

let save ?as_number path graph =
  let oc = open_out_bin path in
  output_string oc (to_string ?as_number graph);
  close_out oc
