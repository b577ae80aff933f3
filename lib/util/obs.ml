(* Global metric registry.  Updates go through atomics so instrumented
   code can run on any domain; the mutex only guards registration (rare)
   and trace appends (gated off by default). *)

type counter = { c_name : string; cell : int Atomic.t }
type gauge = { g_name : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  bounds : float array; (* inclusive upper bounds, strictly increasing *)
  buckets : int Atomic.t array; (* length = Array.length bounds + 1 *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type field = Int of int | Float of float | Str of string | Bool of bool

type event_rec = {
  seq : int;
  t : float option;
  ev_name : string;
  fields : (string * field) list;
}

type registry = {
  mutable counters : (string * counter) list;
  mutable gauges : (string * gauge) list;
  mutable histograms : (string * histogram) list;
}
(* Association lists: the registry holds a few dozen metrics, created
   once at module initialisation; lookups after that go through the
   returned handles, never by name. *)

let lock = Mutex.create ()
let registry = { counters = []; gauges = []; histograms = [] }

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_add_float cell x

(* Counters *)

let counter name =
  with_lock (fun () ->
      match List.assoc_opt name registry.counters with
      | Some c -> c
      | None ->
        let c = { c_name = name; cell = Atomic.make 0 } in
        registry.counters <- (name, c) :: registry.counters;
        c)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

let counter_value name =
  with_lock (fun () ->
      match List.assoc_opt name registry.counters with
      | Some c -> Atomic.get c.cell
      | None -> 0)

(* Gauges *)

let gauge name =
  with_lock (fun () ->
      match List.assoc_opt name registry.gauges with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_cell = Atomic.make Float.nan } in
        registry.gauges <- (name, g) :: registry.gauges;
        g)

let set_gauge g x = Atomic.set g.g_cell x

let rec add_gauge g x =
  let old = Atomic.get g.g_cell in
  let base = if Float.is_nan old then 0. else old in
  if not (Atomic.compare_and_set g.g_cell old (base +. x)) then add_gauge g x

let rec max_gauge g x =
  let old = Atomic.get g.g_cell in
  if Float.is_nan old || x > old then begin
    if not (Atomic.compare_and_set g.g_cell old x) then max_gauge g x
  end

let gauge_value name =
  with_lock (fun () ->
      match List.assoc_opt name registry.gauges with
      | Some g -> Atomic.get g.g_cell
      | None -> Float.nan)

(* Histograms *)

let default_bounds = [| 0.01; 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 1.0 |]

let histogram ?(bounds = default_bounds) name =
  with_lock (fun () ->
      match List.assoc_opt name registry.histograms with
      | Some h -> h
      | None ->
        Array.iteri
          (fun i b ->
            if i > 0 && bounds.(i - 1) >= b then
              invalid_arg "Obs.histogram: bounds must be strictly increasing")
          bounds;
        let h =
          {
            h_name = name;
            bounds = Array.copy bounds;
            buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.;
            h_count = Atomic.make 0;
          }
        in
        registry.histograms <- (name, h) :: registry.histograms;
        h)

let observe h x =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && x > h.bounds.(!i) do
    Stdlib.incr i
  done;
  ignore (Atomic.fetch_and_add h.buckets.(!i) 1);
  atomic_add_float h.h_sum x;
  ignore (Atomic.fetch_and_add h.h_count 1)

let observe_n h x n =
  if n > 0 then begin
    let k = Array.length h.bounds in
    let i = ref 0 in
    while !i < k && x > h.bounds.(!i) do
      Stdlib.incr i
    done;
    ignore (Atomic.fetch_and_add h.buckets.(!i) n);
    atomic_add_float h.h_sum (x *. float_of_int n);
    ignore (Atomic.fetch_and_add h.h_count n)
  end

let histogram_count name =
  with_lock (fun () ->
      match List.assoc_opt name registry.histograms with
      | Some h -> Atomic.get h.h_count
      | None -> 0)

(* Event trace: a ring buffer under the registry mutex.  The enabled
   flag is read lock-free so disabled tracing costs one atomic load. *)

let trace_on = Atomic.make false

type trace = {
  mutable ring : event_rec option array;
  mutable next : int; (* slot for the next event *)
  mutable recorded : int; (* lifetime count, = seq of the next event *)
}

let trace = { ring = [||]; next = 0; recorded = 0 }

let set_trace_capacity n =
  if n < 0 then invalid_arg "Obs.set_trace_capacity";
  with_lock (fun () ->
      trace.ring <- Array.make n None;
      trace.next <- 0;
      trace.recorded <- 0;
      Atomic.set trace_on (n > 0))

let trace_enabled () = Atomic.get trace_on

let event ?t name fields =
  if Atomic.get trace_on then
    with_lock (fun () ->
        let cap = Array.length trace.ring in
        if cap > 0 then begin
          trace.ring.(trace.next) <-
            Some { seq = trace.recorded; t; ev_name = name; fields };
          trace.next <- (trace.next + 1) mod cap;
          trace.recorded <- trace.recorded + 1
        end)

let retained () =
  (* under the lock; oldest first *)
  let cap = Array.length trace.ring in
  let out = ref [] in
  for i = cap - 1 downto 0 do
    match trace.ring.((trace.next + i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let events () =
  with_lock (fun () ->
      List.map (fun e -> (e.seq, e.t, e.ev_name, e.fields)) (retained ()))

(* JSON *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let add_num buf x =
    if not (Float.is_finite x) then Buffer.add_string buf "null"
    else if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else Buffer.add_string buf (Printf.sprintf "%.17g" x)

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_num buf x
    | Str s -> escape buf s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    emit buf j;
    Buffer.contents buf

  (* Recursive-descent parser, enough to validate our own output and
     any standard JSON document without exotic escapes. *)

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "Json.parse: %s at offset %d" msg !pos) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect ch =
      match peek () with
      | Some c when c = ch -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" ch)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "invalid literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let digits = String.sub s !pos 4 in
             (* [int_of_string] alone would also take [_] separators *)
             let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
             if not (String.for_all hex digits) then fail "bad \\u escape";
             let code = int_of_string ("0x" ^ digits) in
             pos := !pos + 4;
             (* Pass low codepoints through; anything else becomes '?'
                — we only need round-tripping of our own output, which
                never emits non-ASCII. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_char buf '?'
           | _ -> fail "bad escape");
          loop ()
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
          Buffer.add_char buf c;
          loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && number_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected a value";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "empty input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* Snapshots *)

let json_of_field = function
  | Int i -> Json.Num (float_of_int i)
  | Float x -> Json.Num x
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let sorted_by_name xs = List.sort (fun (a, _) (b, _) -> compare a b) xs

let snapshot_json () =
  with_lock (fun () ->
      let counters =
        sorted_by_name registry.counters
        |> List.map (fun (name, c) -> (name, Json.Num (float_of_int (Atomic.get c.cell))))
      in
      let gauges =
        sorted_by_name registry.gauges
        |> List.filter_map (fun (name, g) ->
               let v = Atomic.get g.g_cell in
               (* never set: the layer did not run, so it has no reading *)
               if Float.is_nan v then None else Some (name, Json.Num v))
      in
      let histograms =
        sorted_by_name registry.histograms
        |> List.map (fun (name, h) ->
               ( name,
                 Json.Obj
                   [
                     ("bounds", Json.Arr (Array.to_list h.bounds |> List.map (fun b -> Json.Num b)));
                     ( "counts",
                       Json.Arr
                         (Array.to_list h.buckets
                         |> List.map (fun b -> Json.Num (float_of_int (Atomic.get b)))) );
                     ("sum", Json.Num (Atomic.get h.h_sum));
                     ("count", Json.Num (float_of_int (Atomic.get h.h_count)));
                   ] ))
      in
      let kept = List.length (retained ()) in
      Json.to_string
        (Json.Obj
           [
             ("counters", Json.Obj counters);
             ("gauges", Json.Obj gauges);
             ("histograms", Json.Obj histograms);
             ( "trace",
               Json.Obj
                 [
                   ("capacity", Json.Num (float_of_int (Array.length trace.ring)));
                   ("recorded", Json.Num (float_of_int trace.recorded));
                   ("kept", Json.Num (float_of_int kept));
                 ] );
           ])
      ^ "\n")

let jsonl_of_event e =
  let time_field = match e.t with Some t -> [ ("t", Json.Num t) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ((("seq", Json.Num (float_of_int e.seq)) :: time_field)
       @ (("event", Json.Str e.ev_name)
         :: List.map (fun (k, v) -> (k, json_of_field v)) e.fields)))

let trace_jsonl () =
  with_lock (fun () ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun e ->
          Buffer.add_string buf (jsonl_of_event e);
          Buffer.add_char buf '\n')
        (retained ());
      Buffer.contents buf)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_metrics path = write_file path (snapshot_json ())
let write_trace path = write_file path (trace_jsonl ())

let reset () =
  with_lock (fun () ->
      registry.counters <- [];
      registry.gauges <- [];
      registry.histograms <- [];
      Array.fill trace.ring 0 (Array.length trace.ring) None;
      trace.next <- 0;
      trace.recorded <- 0)

(* Phase timing *)

let time_phase name f =
  let seconds = gauge (Printf.sprintf "phase.%s.seconds" name) in
  let runs = counter (Printf.sprintf "phase.%s.runs" name) in
  let t0 = Sys.time () in
  Fun.protect
    ~finally:(fun () ->
      add_gauge seconds (Sys.time () -. t0);
      incr runs)
    f
