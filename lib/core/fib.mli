(** The MIFO-modified FIB (Fig. 1), generalized to ranked alternatives.

    A classic FIB maps a prefix to the default output port; MIFO adds
    alternative ports pointing at the best alternative paths, kept up to
    date by the MIFO daemon, plus the adaptive deflection level the
    daemon uses to shift flows onto them.  Lookup is longest-prefix
    match.

    Each entry holds a {e ranked set} of up to {!max_alts} alternative
    port ids (slot 0 = most preferred).  The historical single-alt API
    ({!alt_port}, {!set_alt_port}, the [?alt_port] insert argument) is
    the k=1 compatibility shim: it reads/writes slot 0 and clears the
    higher slots.

    Deflection granularity: flows hash into [buckets] (64) buckets and an
    entry deflects the first [deflect_buckets] of them, so path choice is
    deterministic per flow (no packet reordering — Section II-A) while
    the daemon ramps the deflected share up under congestion and back
    down when the default path drains.  Deflected buckets are spread
    ECMP-style over the ranked slots: bucket [b] of an entry with [c]
    live alternatives uses slot [b mod c], so each alternative receives
    a deterministic slice of the flow space and a single-alternative
    entry behaves exactly like the k=1 data plane.

    {b Representation.}  Each prefix length's entries sit in an
    open-addressed int-keyed index over a slot-stable arena of unboxed
    [out_port]/[alt]/[deflect_buckets] int arrays (the alt array
    strided {!max_alts} cells per entry) — no per-entry boxes, which is
    what lets a full-Internet-scale FIB fit in flat memory.  The
    original one-[Hashtbl]-per-length layout lives with the tests
    ([test/oracle/fib_hashed.ml]); QCheck gates in [test_core] assert
    the two are observationally identical under random
    insert/remove/set-alts churn. *)

type t

type entry
(** A handle onto one live FIB entry.  Valid until that exact prefix is
    {!remove}d (an [insert] — even one that grows the table — never
    invalidates handles); a handle kept across a [remove] of its prefix
    must be dropped. *)

val buckets : int
(** Number of hash buckets (64). *)

val max_alts : int
(** Number of ranked alternative slots per entry (4). *)

val default_k : unit -> int
(** The [MIFO_K_ALT] knob: how many ranked slots the daemon and the
    command-line tools fill, clamped to \[1, {!max_alts}\]; defaults to
    {!max_alts} when unset or empty.  The variable is read on each call,
    not at module initialisation.  The FIB itself always has
    {!max_alts} slots — this only caps how many get used.
    @raise Invalid_argument naming the variable and its value when it
    is not a positive integer. *)

val create : unit -> t
(** A fresh table allocates no per-length storage: all 33
    prefix lengths share one empty sentinel level, and a length gets
    its own index and arena on its first {!insert}.  {!lookup},
    {!find}, {!remove}, {!iter} and {!size} on a length never inserted
    read the sentinel and never write it, so tables stay isolated from
    each other.  A 44K-router network whose FIBs hold only /24s thus
    pays for one level per router, not 33. *)

val insert : t -> Mifo_bgp.Prefix.t -> out_port:int -> ?alt_port:int -> unit -> unit
(** Installs or refreshes the entry for a prefix.

    On a re-insert whose [out_port] matches the existing entry (a route
    refresh), the call's [alt_port] is authoritative for the single-alt
    shim: omitted ([None]) means {e no alternative} and clears the whole
    ranked set and the deflection level; a hint equal to the entry's
    current slot-0 alternative preserves the live daemon-owned state
    (ranked set and [deflect_buckets]) untouched; any other hint
    replaces the set with that singleton and resets the deflection
    level.  A re-insert with a different [out_port] is a route change:
    the entry is replaced outright and the deflection state reset. *)

val remove : t -> Mifo_bgp.Prefix.t -> bool
(** Withdraw the exact prefix; [false] when absent.  Outstanding
    {!entry} handles for that prefix become invalid. *)

val lookup : t -> Mifo_bgp.Prefix.addr -> entry option
(** Longest-prefix match. *)

val find : t -> Mifo_bgp.Prefix.t -> entry option
(** Exact-prefix lookup (the daemon's view). *)

val set_alt : t -> Mifo_bgp.Prefix.t -> int option -> unit
(** @raise Not_found if no entry exists for the prefix. *)

val iter : t -> (Mifo_bgp.Prefix.t -> entry -> unit) -> unit
(** Iteration order is unspecified; callers needing a canonical order
    must sort. *)

val size : t -> int
(** Number of live entries — a cached O(1) count (it sits on the
    [validate]/metrics path). *)

val may_deflect : t -> bool
(** Whether any live entry currently has a nonempty ranked alternative
    set — an exact count, {e not} a sticky historical flag: it is
    maintained by {!insert}/{!remove} and by the entry-handle writers
    ({!set_alt_port}, {!set_alts}), so withdrawing the last alternative
    turns it back off and re-enables callers' no-deflection fast paths
    (e.g. the {!Mifo_netsim.Packetsim} daemon tick skips chooser-less
    routers whose table cannot deflect). *)

(** {1 Entry accessors}

    Handles are views into the owning store; writes land directly on the
    table's unboxed fields.  Ranked slots are kept compacted: live
    alternatives occupy slots [0 .. alt_count-1] in rank order and the
    remaining slots read [-1]. *)

val out_port : entry -> int

val alt_port : entry -> int option
(** Slot 0 of the ranked set (the most preferred alternative). *)

val alt_port_id : entry -> int
(** Allocation-free form of {!alt_port}: the port, or [-1] for none.
    The packet-forwarding hot path uses this to avoid a [Some] box per
    packet. *)

val alt_count : entry -> int
(** Number of live ranked alternatives, in \[0, {!max_alts}\]. *)

val alt_at : entry -> int -> int
(** [alt_at e slot] is the port in ranked slot [slot], or [-1] when the
    slot is empty or out of range. *)

val deflect_buckets : entry -> int
(** [0] = all flows on the default path. *)

val set_alt_port : entry -> int option -> unit
(** k=1 shim: [Some p] makes the ranked set the singleton [{p}]
    (clearing higher slots); [None] clears the whole set.  Does not
    touch [deflect_buckets]. *)

val set_alts : entry -> int list -> unit
(** Install a ranked alternative set: negatives are dropped, order kept,
    truncated at {!max_alts}, higher slots cleared.  Does not touch
    [deflect_buckets] — per-slot ramp policy lives in [Daemon]. *)

val set_deflect_buckets : entry -> int -> unit

val flow_bucket : int -> int
(** Deterministic bucket of a flow id, in \[0, buckets). *)

val deflects : entry -> flow:int -> bool
(** Whether this flow currently hashes onto an alternative path. *)

val slot_of_bucket : bucket:int -> count:int -> int
(** The ECMP spreading function: ranked slot used by deflected bucket
    [bucket] when [count] ≥ 1 alternatives are live ([bucket mod
    count]). *)

val alt_for_flow : entry -> flow:int -> int
(** The alternative port this flow's bucket spreads onto, or [-1] when
    the entry has no alternatives.  Note this does {e not} consult
    [deflect_buckets]; pair with {!deflects}. *)
