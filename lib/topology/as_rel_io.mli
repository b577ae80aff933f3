(** Serialization in the CAIDA / UCLA [as-rel] format.

    One link per line, [<as1>|<as2>|<rel>] where [rel = -1] means [as1]
    is the provider of [as2] and [rel = 0] means mutual peering; lines
    starting with ['#'] are comments.  Real inferred topologies (e.g. the
    paper's Nov. 2014 UCLA IRL trace) ship in this format, so a user can
    swap the synthetic graph for a real one without code changes.

    AS numbers are plain decimal in \[0, 4294967295\] (32-bit ASNs); a
    sign, a radix prefix, [_] separators or a larger value is a
    {!Parse_error} naming the line and the field.  The relationship is
    exactly [-1] or [0].  The AS numbers in the file are mapped to the
    dense ids {!As_graph} uses; the mapping is returned alongside the
    graph. *)

type loaded = {
  graph : As_graph.t;
  as_number : int array;  (** dense id -> original AS number *)
}

exception Parse_error of int * string
(** Line number (1-based) and message.  A self-loop or a link listed
    twice is reported on its own line; errors about the input as a whole
    (no links, a provider-customer cycle) carry line 0.  [parse_string]
    raises no other exception. *)

val parse_string : string -> loaded
val load : string -> loaded
(** [load path] reads a file. *)

val to_string : ?as_number:int array -> As_graph.t -> string
(** Serialize; [as_number] relabels dense ids (defaults to identity). *)

val save : ?as_number:int array -> string -> As_graph.t -> unit
