(* mifo-lint: determinism and domain-safety gate, stdlib only.

   Four rule families, enforced over every .ml file (and, for the last,
   every dune file) under the given directories (default: lib bin test
   examples — bench/ is exempt, its wall-clock timing is the point):

   - Determinism: the simulators must be bit-reproducible from their
     seeds, so wall-clock reads ([Unix.gettimeofday]) and the global
     self-seeded PRNG ([Random.self_init], unseeded [Random.int] & co.)
     are banned; randomness goes through the seeded [Mifo_util.Prng].

   - Domain safety: modules whose values are shared across domains by
     design (Routing, Routing_table, Obs) may not use a bare [Hashtbl]
     without a [Mutex] in the same file — the OCaml runtime does not
     make [Hashtbl] atomic, and a silent race there corrupts routing
     state under the multicore fan-out.

   - Simulator hot paths: polymorphic comparison ([compare] /
     [Stdlib.compare]) is banned in lib/netsim/ — it walks the runtime
     representation on every call, which is both slow on the simulators'
     inner loops and fragile (it would traverse whole records if a
     comparator's argument type drifted).  Use the monomorphic
     [Float.compare] / [Int.compare] (identical orders on those types).

   - Oracles stay out of production: the reference implementations the
     differential tests compare against live in the [mifo_oracle]
     library (test/oracle/), which only test/ and bench/ may link.  A
     dune file under lib/ or bin/ that names it is a finding, so a
     production path can never select an oracle at run time.

   A finding can be waived for one line with a [lint:allow] marker.
   Exit status: 0 clean, 1 findings. *)

let banned_substrings =
  [
    ("Unix.gettimeofday", "wall-clock read breaks seeded determinism");
    ("Unix.time", "wall-clock read breaks seeded determinism");
    ("Random.self_init", "self-seeded global PRNG is nondeterministic");
    ("Random.State.make_self_init", "self-seeded PRNG state is nondeterministic");
    ("Random.int", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.float", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.bool", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.bits", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.full_int", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.nativeint", "unseeded global PRNG; use Mifo_util.Prng");
  ]

(* Files shared across domains: a bare Hashtbl here needs a Mutex. *)
let domain_shared = [ "routing.ml"; "routing_table.ml"; "obs.ml" ]

(* Data-plane hot paths (lib/bgp, lib/core): new bare [Hashtbl] use is
   banned — the CSR RIB arena and the open-addressed flat FIB are the
   representations there, and a boxed hash table on those paths undoes
   the 44K-scale memory/locality work.  Mutex-guarded control-plane
   caches and analysis-only scratch sets carry explicit [lint:allow]
   waivers; pure control-plane parsers are exempt wholesale; oracle
   representations live in test/oracle/. *)
let no_hashtbl_dirs = [ "bgp"; "core"; "analysis" ]
let no_hashtbl_exempt = [ "bgp_proto.ml"; "prefix_table.ml" ]

(* Library code reports through {!Report} / {!Obs.Json}; writing to
   stdout from lib/ bypasses the JSON contract and interleaves with the
   drivers' own output under the domain fan-out. *)
let no_stdout_prints =
  [
    ("Printf.printf", "stdout print in lib/; report through Report/Obs.Json");
    ("print_endline", "stdout print in lib/; report through Report/Obs.Json");
  ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* Does [line] use the polymorphic [compare]?  A match is the bare word
   "compare" not preceded by '.' (so [Float.compare] / [Int.compare] /
   [String.compare] pass) or an identifier character (so [my_compare]
   passes), plus the explicit [Stdlib.compare].  Substring-based like the
   rest of this linter: comments and strings are not parsed, use a
   [lint:allow] waiver for prose hits. *)
let uses_polymorphic_compare line =
  if contains ~sub:"Stdlib.compare" line then true
  else begin
    let n = String.length line in
    let m = String.length "compare" in
    let is_ident c =
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_' || c = '\'' || c = '.'
    in
    let rec go i =
      if i + m > n then false
      else if
        String.sub line i m = "compare"
        && (i = 0 || not (is_ident line.[i - 1]))
        && (i + m = n || not (is_ident line.[i + m]))
      then true
      else go (i + 1)
    in
    go 0
  end

(* Directories whose .ml files sit on simulator hot paths. *)
let hot_path_dirs = [ "netsim" ]

let findings = ref 0

let report path line_no line msg =
  incr findings;
  Printf.printf "%s:%d: %s\n  %s\n" path line_no msg (String.trim line)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Array.of_list (List.rev !lines)

let lint_file path =
  let lines = read_lines path in
  let dir = Filename.basename (Filename.dirname path) in
  let on_hot_path = List.mem dir hot_path_dirs in
  let no_hashtbl =
    List.mem dir no_hashtbl_dirs
    && not (List.mem (Filename.basename path) no_hashtbl_exempt)
  in
  let in_lib =
    let prefix = "lib" ^ Filename.dir_sep in
    let n = String.length prefix in
    (String.length path >= n && String.sub path 0 n = prefix)
    || contains ~sub:(Filename.dir_sep ^ prefix) path
  in
  Array.iteri
    (fun i line ->
      if not (contains ~sub:"lint:allow" line) then begin
        List.iter
          (fun (sub, msg) ->
            if contains ~sub line then report path (i + 1) line (sub ^ ": " ^ msg))
          banned_substrings;
        if on_hot_path && uses_polymorphic_compare line then
          report path (i + 1) line
            "polymorphic compare on a simulator hot path; use Float.compare / \
             Int.compare (or waive with lint:allow)";
        if no_hashtbl && contains ~sub:"Hashtbl." line then
          report path (i + 1) line
            "bare Hashtbl on a data-plane hot path; use the flat CSR/open-addressed \
             representations (or waive an oracle with lint:allow)";
        if in_lib then
          List.iter
            (fun (sub, msg) ->
              if contains ~sub line then report path (i + 1) line (sub ^ ": " ^ msg))
            no_stdout_prints
      end)
    lines;
  if List.mem (Filename.basename path) domain_shared then begin
    let whole = String.concat "\n" (Array.to_list lines) in
    if contains ~sub:"Hashtbl." whole && not (contains ~sub:"Mutex" whole) then begin
      incr findings;
      Printf.printf "%s: bare Hashtbl in a domain-shared module without a Mutex\n" path
    end
  end

(* The oracle library may be linked by test/ and bench/ only. *)
let oracle_library = "mifo_oracle"

let is_production_dune path =
  let parts = String.split_on_char '/' path in
  Filename.basename path = "dune"
  && (List.mem "lib" parts || (match parts with "bin" :: _ -> true | _ -> false))

let lint_dune path =
  Array.iteri
    (fun i line ->
      if contains ~sub:oracle_library line then
        report path (i + 1) line
          (oracle_library ^ ": production code must not link the oracle library"))
    (read_lines path)

let rec walk path =
  if Sys.is_directory path then
    Array.iter
      (fun entry ->
        if entry <> "_build" && entry <> "bench" then walk (Filename.concat path entry))
      (Sys.readdir path)
  else if is_production_dune path then lint_dune path
  else if
    Filename.check_suffix path ".ml" && Filename.basename path <> "mifo_lint.ml"
    (* the rule table above would match itself *)
  then lint_file path

let () =
  let dirs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> [ "lib"; "bin"; "test"; "examples" ]
  in
  List.iter (fun d -> if Sys.file_exists d then walk d) dirs;
  if !findings > 0 then begin
    Printf.printf "mifo-lint: %d finding(s)\n" !findings;
    exit 1
  end
  else print_endline "mifo-lint: clean"
