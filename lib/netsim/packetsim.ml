module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Daemon = Mifo_core.Daemon
module Packet = Mifo_core.Packet
module Vec = Mifo_util.Vec
module Obs = Mifo_util.Obs

type node_id = int

type config = {
  queue_bits : int;
  daemon_period : float;
  daemon_config : Daemon.config;
  engine_congest_ratio : float;
  mss_bits : int;
  ack_bits : int;
  series_interval : float;
  tag_check : bool;
  ibgp_encap : bool;
  eventq_engine : Eventq.engine;
  packet_trains : bool;
}

let default_config =
  {
    queue_bits = 1_000_000;
    daemon_period = 0.005;
    daemon_config = Daemon.default_config;
    engine_congest_ratio = 0.5;
    mss_bits = 8_000;
    ack_bits = 320;
    series_interval = 0.1;
    tag_check = true;
    ibgp_encap = true;
    eventq_engine = Eventq.Wheel;
    packet_trains = true;
  }

(* All-float on purpose: OCaml stores such records flat, so the per-hop
   [next_free] / [bits_carried] updates are in-place stores instead of
   fresh boxed floats behind a write barrier. *)
type link = {
  rate : float;
  delay : float;
  queue_limit_f : float;
  mutable next_free : float;
  mutable bits_carried : float;
  mutable carried_at_epoch : float;  (* snapshot at last daemon tick *)
}

(* [event] is defined up here so each port can cache its own [Train]
   event: trains re-enter the queue every time they are preempted, and
   the event payload is identical each time. *)
type event =
  | Arrive of { node : node_id; port : int; packet : Packet.t }
  | Train of { node : node_id; port : int }
      (* the pending departures of [port] on [node]; keyed in the queue
         by the head element's (time, seq) *)
  | Start_flow of int
  | Timeout of { host : node_id; flow : int; gen : int }
  | Emit of { flow : int }  (* next burst of an open-loop UDP source *)
  | Daemon_tick

type port = {
  link : link;
  peer : node_id;
  peer_port : int;
  kind : Engine.port_kind;
  (* Per-link packet train: in-flight departures on this port, FIFO and
     therefore sorted by (arrival time, queue seq) — serialization keeps
     per-link arrival times non-decreasing and seqs are allocated in
     append order.  The event queue holds at most ONE entry per port
     ([tr_live]), keyed by the head element, instead of one per packet;
     see [train_drain]. *)
  tr_time : float Vec.t;
  tr_seq : int Vec.t;
  tr_pkt : Packet.t Vec.t;
  mutable tr_head : int;
  mutable tr_live : bool;
  tr_ev : event;  (* this port's [Train], allocated once *)
}

type flow_rec = {
  id : int;
  src_host : node_id;
  dst_host : node_id;
  src_addr : Prefix.addr;
  dst_addr : Prefix.addr;
  bytes : int;
  start : float;
  mutable finish : float option;
}

type sender = {
  frec : flow_rec;
  tcp : Tcp.Sender.t;
  send_times : float array;
      (* first-transmission time per segment, indexed by seq;
         [neg_infinity] until first sent, NaN once retransmitted (Karn's
         rule disables the RTT sample).  A flat array instead of an
         (int, float) Hashtbl: seq ids are dense 0..total-1, and this
         sits on the per-segment hot path. *)
  (* Lazy RTO timer.  Re-arming on every ACK used to schedule a fresh
     Timeout event each time, leaving a trail of dead events in the
     queue (one per ACK, each living a full RTO).  Instead the logical
     deadline is just recorded here, and a queue event exists only for
     the earliest outstanding fire time [t_min]; an event firing before
     [t_deadline] is stale and re-schedules itself at the deadline.  The
     timeout still takes effect at exactly the eager scheme's time: the
     deadline of the latest arm. *)
  mutable t_gen : int;  (* Tcp timer generation of the latest arm *)
  mutable t_deadline : float;  (* logical fire time; infinity = unarmed *)
  mutable t_min : float;  (* earliest queued Timeout; infinity = none *)
}

type router = {
  as_id : int;
  r_fib : Fib.t;
  mutable r_env : Engine.env option;
      (* the engine environment for this router, built on first packet;
         its closures capture only stable state (the sim and this
         record), so rebuilding it per packet — as [handle_router] used
         to — was four closure allocations per hop for nothing *)
  mutable chooser : (Prefix.t -> Fib.entry -> int option) option;
  mutable chooser_k : (Prefix.t -> Fib.entry -> int list) option;
      (* ranked-set chooser; when present it wins over [chooser] and the
         daemon tick runs [Daemon.epoch_ranked] *)
  last_egress : int Vec.t;  (* flow -> last egress port; -1 = none yet *)
  switches : int Vec.t;  (* flow -> egress change count *)
  ibgp_peers : (int, int) Hashtbl.t;
      (* peer router (node id named in the port's Ibgp kind) -> local
         port carrying that session; the engine's route_to_peer.  Stays
         a hashtable: consulted only on encapsulation decisions, keyed
         by sparse node ids. *)
}

(* Open-loop (UDP-style) source: the testbed's line-rate probe traffic.
   No ack clock and no retransmission — the source just streams its
   segments back-to-back in bursts of [u_burst], self-paced off the
   host link's [next_free] so the next [Emit] fires exactly when the
   last burst has serialized. *)
type udp_sender = {
  u_frec : flow_rec;
  u_total : int;
  u_burst : int;
  mutable u_next_seg : int;
}

type host = {
  addr : Prefix.addr;
  senders : sender option Vec.t;  (* flow id -> sender, on the src host *)
  receivers : Tcp.Receiver.t option Vec.t;  (* flow id -> receiver, dst host *)
  udp_tx : udp_sender option Vec.t;  (* flow id -> UDP source, src host *)
  udp_rx : int Vec.t;
      (* flow id -> delivered segment count on the dst host; -1 marks
         "not a UDP flow terminating here" *)
}

type node_kind = Router of router | Host of host
type node = { kind : node_kind; ports : port Vec.t }

type counters = {
  delivered_packets : int;
  dropped_queue : int;
  dropped_ttl : int;
  dropped_valley : int;
  dropped_no_route : int;
  encapsulated : int;
  deflected : int;
}

type t = {
  cfg : config;
  nodes : node Vec.t;
  flows : flow_rec Vec.t;
  events : event Eventq.t;
  clk : float array;
      (* the simulation clock IS the event queue's {!Eventq.time_cell}:
         every successful pop writes the popped time into [clk.(0)]
         in place, so advancing time costs a flat store and reading it
         never goes through a boxed float *)
  mutable events_processed : int;
  mutable delivered_packets : int;
  mutable dropped_queue : int;
  mutable dropped_ttl : int;
  mutable dropped_valley : int;
  mutable dropped_no_route : int;
  mutable encapsulated : int;
  mutable deflected : int;
  goodput_buckets : float Vec.t;  (* bits per series_interval bucket *)
  mutable daemon_scheduled : bool;
  mutable last_epoch_time : float;
  mutable on_complete : (int -> unit) option;
  mutable tracer : (float -> int -> Packet.t -> Engine.action -> unit) option;
  batch_counts : int array;
      (* per-sim train batch-size tally, indexed by exact batch size
         (1..128); flushed into the shared histogram at daemon ticks so
         the per-batch hot path touches no atomics *)
}

let create ?(config = default_config) () =
  let events = Eventq.create ~engine:config.eventq_engine () in
  {
    cfg = config;
    nodes = Vec.create ();
    flows = Vec.create ();
    events;
    clk = Eventq.time_cell events;
    events_processed = 0;
    delivered_packets = 0;
    dropped_queue = 0;
    dropped_ttl = 0;
    dropped_valley = 0;
    dropped_no_route = 0;
    encapsulated = 0;
    deflected = 0;
    goodput_buckets = Vec.create ();
    daemon_scheduled = false;
    last_epoch_time = 0.;
    on_complete = None;
    tracer = None;
    batch_counts = Array.make 129 0;
  }

let config t = t.cfg
let now t = t.clk.(0)
let events_processed t = t.events_processed

(* Flow-indexed flat tables: [Vec.ensure]-grown, sentinel-initialized. *)
let slot v i = if i >= 0 && i < Vec.length v then Vec.get v i else None

(* Process-wide observability mirrors of the per-sim counters, plus the
   queue-depth view only the transmit path can see. *)
let c_delivered = Obs.counter "packetsim.delivered"
let c_drop_queue = Obs.counter "packetsim.dropped.queue"
let c_drop_ttl = Obs.counter "packetsim.dropped.ttl"
let c_drop_valley = Obs.counter "packetsim.dropped.valley"
let c_drop_no_route = Obs.counter "packetsim.dropped.no_route"
let c_deflected = Obs.counter "packetsim.deflected"
let c_encapsulated = Obs.counter "packetsim.encapsulated"
let h_queue_ratio = Obs.histogram "packetsim.queue_ratio"

let h_train_batch =
  Obs.histogram ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "packetsim.train_batch"

(* Event-queue health, sampled at daemon ticks (and at end of run). *)
let g_peak_len = Obs.gauge "eventq.peak_len"
let g_cascades = Obs.gauge "eventq.wheel.cascades"
let g_ready = Obs.gauge "eventq.wheel.ready"

let g_levels =
  Array.init Mifo_util.Wheel.levels (fun l ->
      Obs.gauge (Printf.sprintf "eventq.wheel.level%d.occupancy" l))

(* Train memory footprint, sampled at daemon ticks: [resident] is the
   backing capacity currently held across every port's train vecs,
   [peak] its high-water mark.  The spread shows {!Mifo_util.Vec.trim}
   releasing a deep backlog's arrays once the backlog drains. *)
let g_train_resident = Obs.gauge "packetsim.train.resident_elems"
let g_train_peak = Obs.gauge "packetsim.train.peak_elems"

let add_router t ~as_id =
  let r =
    {
      as_id;
      r_fib = Fib.create ();
      r_env = None;
      chooser = None;
      chooser_k = None;
      last_egress = Vec.create ();
      switches = Vec.create ();
      ibgp_peers = Hashtbl.create 8;
    }
  in
  Vec.push t.nodes { kind = Router r; ports = Vec.create () };
  Vec.length t.nodes - 1

let add_host t ~addr =
  let h =
    {
      addr;
      senders = Vec.create ();
      receivers = Vec.create ();
      udp_tx = Vec.create ();
      udp_rx = Vec.create ();
    }
  in
  Vec.push t.nodes { kind = Host h; ports = Vec.create () };
  Vec.length t.nodes - 1

let node t id = Vec.get t.nodes id

let router_exn t id =
  match (node t id).kind with
  | Router r -> r
  | Host _ -> invalid_arg "Packetsim: expected a router"

let host_exn t id =
  match (node t id).kind with
  | Host h -> h
  | Router _ -> invalid_arg "Packetsim: expected a host"

let connect t ~a ~b ~kind_ab ~kind_ba ~rate ?(delay = 50e-6) ?queue_bits () =
  if rate <= 0. then invalid_arg "Packetsim.connect: rate must be positive";
  let queue_limit = match queue_bits with Some q -> q | None -> t.cfg.queue_bits in
  let mk () =
    {
      rate;
      delay;
      queue_limit_f = float_of_int queue_limit;
      next_free = 0.;
      bits_carried = 0.;
      carried_at_epoch = 0.;
    }
  in
  let mk_port link self self_port peer peer_port kind =
    {
      link;
      peer;
      peer_port;
      kind;
      tr_time = Vec.create ();
      tr_seq = Vec.create ();
      tr_pkt = Vec.create ();
      tr_head = 0;
      tr_live = false;
      tr_ev = Train { node = self; port = self_port };
    }
  in
  let na = node t a and nb = node t b in
  let pa = Vec.length na.ports and pb = Vec.length nb.ports in
  Vec.push na.ports (mk_port (mk ()) a pa b pb kind_ab);
  Vec.push nb.ports (mk_port (mk ()) b pb a pa kind_ba);
  let note_ibgp n kind p =
    match (n.kind, kind) with
    | Router r, Engine.Ibgp { peer_router } -> Hashtbl.replace r.ibgp_peers peer_router p
    | _ -> ()
  in
  note_ibgp na kind_ab pa;
  note_ibgp nb kind_ba pb;
  (pa, pb)

let fib t id = (router_exn t id).r_fib
let set_alt_chooser t id chooser = (router_exn t id).chooser <- Some chooser
let set_ranked_chooser t id chooser = (router_exn t id).chooser_k <- Some chooser

let port t id p = Vec.get (node t id).ports p

(* Queue occupancy of a link right now: the backlog implied by
   next_free.  The clamp is a bare [if], not [Float.max]: an
   out-of-line float call boxes both arguments and the result, and
   this runs several times per simulated hop. *)
let queue_bits_now t link =
  let b = (link.next_free -. t.clk.(0)) *. link.rate in
  if b > 0. then b else 0.

let queue_ratio t link = queue_bits_now t link /. link.queue_limit_f

let spare_capacity t id p =
  let link = (port t id p).link in
  let elapsed = Float.max t.cfg.daemon_period (t.clk.(0) -. t.last_epoch_time) in
  let used = (link.bits_carried -. link.carried_at_epoch) /. elapsed in
  Float.max 0. (link.rate -. used)

(* Queue-health observability, sampled at daemon ticks and at end of
   run rather than on every transmit: an unbiased time sample of each
   directed link's occupancy, plus the event-queue gauges and the flush
   of the per-sim train batch tally.  Keeping the histogram updates off
   the transmit path matters — [Obs.observe] is an atomic CAS retry
   loop on a boxed float, several hundred ns per call at millions of
   events/sec. *)
let sample_queue_health t =
  let train_resident = ref 0 in
  for id = 0 to Vec.length t.nodes - 1 do
    Vec.iter
      (fun p ->
        Obs.observe h_queue_ratio (queue_ratio t p.link);
        train_resident := !train_resident + Vec.capacity p.tr_time)
      (Vec.get t.nodes id).ports
  done;
  Obs.set_gauge g_train_resident (float_of_int !train_resident);
  Obs.max_gauge g_train_peak (float_of_int !train_resident);
  let bc = t.batch_counts in
  for size = 1 to Array.length bc - 1 do
    let n = bc.(size) in
    if n > 0 then begin
      Obs.observe_n h_train_batch (float_of_int size) n;
      bc.(size) <- 0
    end
  done;
  Obs.set_gauge g_peak_len (float_of_int (Eventq.peak_length t.events));
  match Eventq.wheel_stats t.events with
  | None -> ()
  | Some st ->
    Obs.set_gauge g_cascades (float_of_int st.Mifo_util.Wheel.cascades);
    Obs.set_gauge g_ready (float_of_int st.Mifo_util.Wheel.ready);
    Array.iteri
      (fun l n -> Obs.set_gauge g_levels.(l) (float_of_int n))
      st.Mifo_util.Wheel.occupancy

(* Transmit a packet out of a node's port: tail-drop FIFO queue, then
   store-and-forward serialization and propagation.

   With packet trains the arrival is appended to the port's train
   instead of becoming its own queue entry; the element still claims a
   queue seq via [alloc_seq] at exactly the point [Eventq.schedule]
   would have, so the global (time, seq) event order — and therefore
   the whole simulation — is bit-identical to per-packet scheduling. *)
let transmit t src_node p packet =
  let pt = port t src_node p in
  let link = pt.link in
  let wire = float_of_int (Packet.wire_size_bits packet) in
  if queue_bits_now t link +. wire > link.queue_limit_f then begin
    t.dropped_queue <- t.dropped_queue + 1;
    Obs.incr c_drop_queue;
    if Obs.trace_enabled () then
      Obs.event ~t:t.clk.(0) "queue_drop"
        [
          ("node", Obs.Int src_node);
          ("port", Obs.Int p);
          ("flow", Obs.Int packet.Packet.flow);
        ]
  end
  else begin
    let now = t.clk.(0) in
    let start = if now > link.next_free then now else link.next_free in
    let done_tx = start +. (wire /. link.rate) in
    link.next_free <- done_tx;
    link.bits_carried <- link.bits_carried +. wire;
    let arrival = done_tx +. link.delay in
    if t.cfg.packet_trains then begin
      let seq = Eventq.alloc_seq t.events in
      Vec.push pt.tr_time arrival;
      Vec.push pt.tr_seq seq;
      Vec.push pt.tr_pkt packet;
      if not pt.tr_live then begin
        pt.tr_live <- true;
        Eventq.schedule_pre t.events ~time:arrival ~seq pt.tr_ev
      end
      (* else: the queued entry is keyed by the train's head, whose
         (time, seq) is <= ours — FIFO order per link *)
    end
    else
      Eventq.schedule t.events ~time:arrival
        (Arrive { node = pt.peer; port = pt.peer_port; packet })
  end

let record_goodput t bits =
  let bucket = int_of_float (t.clk.(0) /. t.cfg.series_interval) in
  while Vec.length t.goodput_buckets <= bucket do
    Vec.push t.goodput_buckets 0.
  done;
  Vec.set t.goodput_buckets bucket (Vec.get t.goodput_buckets bucket +. bits)

let engine_env t id r =
  {
    Engine.router_id = id;
    fib = r.r_fib;
    port_kind = (fun p -> (port t id p).kind);
    is_congested =
      (fun p -> queue_ratio t (port t id p).link >= t.cfg.engine_congest_ratio);
    next_hop_router =
      (fun p ->
        let pt = port t id p in
        match (node t pt.peer).kind with Router _ -> Some pt.peer | Host _ -> None);
    route_to_peer = (fun peer -> Hashtbl.find_opt r.ibgp_peers peer);
  }

let note_egress r flow p =
  Vec.ensure r.last_egress (flow + 1) (-1);
  let prev = Vec.get r.last_egress flow in
  if prev <> p then begin
    Vec.set r.last_egress flow p;
    if prev >= 0 then begin
      Vec.ensure r.switches (flow + 1) 0;
      Vec.set r.switches flow (Vec.get r.switches flow + 1)
    end
  end

let handle_router t id r ~port:ingress packet =
  let env =
    match r.r_env with
    | Some env -> env
    | None ->
      let env = engine_env t id r in
      r.r_env <- Some env;
      env
  in
  let action =
    Engine.forward_from ~tag_check:t.cfg.tag_check ~ibgp_encap:t.cfg.ibgp_encap env
      ~ingress packet
  in
  (match t.tracer with Some f -> f t.clk.(0) id packet action | None -> ());
  match action with
  | Engine.Drop { reason = Engine.Ttl_expired; _ } ->
    t.dropped_ttl <- t.dropped_ttl + 1;
    Obs.incr c_drop_ttl
  | Engine.Drop { reason = Engine.Valley_violation; _ } ->
    t.dropped_valley <- t.dropped_valley + 1;
    Obs.incr c_drop_valley
  | Engine.Drop { reason = Engine.No_route; _ } ->
    t.dropped_no_route <- t.dropped_no_route + 1;
    Obs.incr c_drop_no_route
  | Engine.Send { port = out; packet = packet'; default_port } ->
    (* A packet that arrived encapsulated and leaves still encapsulated
       is an in-transit tunnel routed on its outer header — not a
       deflection decision of this router.  [default_port] is the FIB
       default the engine already looked up ([-1] when it routed without
       one), so deflection accounting costs no second lookup. *)
    let in_transit = packet.Packet.encap <> None && packet'.Packet.encap <> None in
    if default_port >= 0 && out <> default_port && not in_transit then begin
      t.deflected <- t.deflected + 1;
      Obs.incr c_deflected;
      if packet'.Packet.encap <> None && packet.Packet.encap = None then begin
        t.encapsulated <- t.encapsulated + 1;
        Obs.incr c_encapsulated
      end
    end;
    note_egress r packet'.Packet.flow out;
    transmit t id out packet'

(* Host-side TCP machinery.  [arm_timer] is lazy: it moves the logical
   deadline and only touches the event queue when no queued Timeout
   fires early enough to cover it (see the [sender] field comments). *)
let arm_timer t host_id (s : sender) =
  if Tcp.Sender.timer_needed s.tcp then begin
    let gen = Tcp.Sender.arm_timer s.tcp in
    let deadline = t.clk.(0) +. Tcp.Sender.rto s.tcp in
    s.t_gen <- gen;
    s.t_deadline <- deadline;
    if deadline < s.t_min then begin
      s.t_min <- deadline;
      Eventq.schedule t.events ~time:deadline
        (Timeout { host = host_id; flow = s.frec.id; gen })
    end
  end
  else s.t_deadline <- Float.infinity

let send_segment t host_id (s : sender) seq =
  s.send_times.(seq) <-
    (if s.send_times.(seq) = Float.neg_infinity then t.clk.(0) else Float.nan);
  let packet =
    Packet.make ~kind:Packet.Data ~seq ~size_bits:t.cfg.mss_bits ~src:s.frec.src_addr
      ~dst:s.frec.dst_addr ~flow:s.frec.id ()
  in
  transmit t host_id 0 packet

let pump t host_id (s : sender) =
  let rec go () =
    let seq = Tcp.Sender.next_seq_hot s.tcp in
    if seq >= 0 then begin
      send_segment t host_id s seq;
      go ()
    end
  in
  go ();
  arm_timer t host_id s

let total_segments t bytes = ((bytes * 8) + t.cfg.mss_bits - 1) / t.cfg.mss_bits

let add_flow t ~src ~dst ~bytes ~start =
  if bytes <= 0 then invalid_arg "Packetsim.add_flow: empty flow";
  let hs = host_exn t src and hd = host_exn t dst in
  let id = Vec.length t.flows in
  let frec =
    {
      id;
      src_host = src;
      dst_host = dst;
      src_addr = hs.addr;
      dst_addr = hd.addr;
      bytes;
      start;
      finish = None;
    }
  in
  Vec.push t.flows frec;
  let total = total_segments t bytes in
  let tcp = Tcp.Sender.create ~total in
  Vec.ensure hs.senders (id + 1) None;
  Vec.set hs.senders id
    (Some
       {
         frec;
         tcp;
         send_times = Array.make total Float.neg_infinity;
         t_gen = 0;
         t_deadline = Float.infinity;
         t_min = Float.infinity;
       });
  Vec.ensure hd.receivers (id + 1) None;
  Vec.set hd.receivers id (Some (Tcp.Receiver.create ()));
  Eventq.schedule t.events ~time:start (Start_flow id);
  id

let add_udp_flow t ~src ~dst ~bytes ?(burst = 32) ~start () =
  if bytes <= 0 then invalid_arg "Packetsim.add_udp_flow: empty flow";
  if burst <= 0 then invalid_arg "Packetsim.add_udp_flow: burst must be positive";
  let hs = host_exn t src and hd = host_exn t dst in
  let id = Vec.length t.flows in
  let frec =
    {
      id;
      src_host = src;
      dst_host = dst;
      src_addr = hs.addr;
      dst_addr = hd.addr;
      bytes;
      start;
      finish = None;
    }
  in
  Vec.push t.flows frec;
  Vec.ensure hs.udp_tx (id + 1) None;
  Vec.set hs.udp_tx id
    (Some { u_frec = frec; u_total = total_segments t bytes; u_burst = burst; u_next_seg = 0 });
  Vec.ensure hd.udp_rx (id + 1) (-1);
  Vec.set hd.udp_rx id 0;
  Eventq.schedule t.events ~time:start (Start_flow id);
  id

(* One burst of an open-loop source: stream up to [u_burst] segments
   back-to-back into the host link, then come back the moment the link
   has serialized them ([next_free]) — line-rate self-pacing with no
   per-segment events at the source. *)
let emit_burst t host_id (u : udp_sender) =
  let pt = port t host_id 0 in
  let n = Stdlib.min u.u_burst (u.u_total - u.u_next_seg) in
  for _ = 1 to n do
    let seq = u.u_next_seg in
    u.u_next_seg <- seq + 1;
    let packet =
      Packet.make ~kind:Packet.Data ~seq ~size_bits:t.cfg.mss_bits
        ~src:u.u_frec.src_addr ~dst:u.u_frec.dst_addr ~flow:u.u_frec.id ()
    in
    transmit t host_id 0 packet
  done;
  if u.u_next_seg < u.u_total then begin
    (* [next_free] only fails to advance when every segment was
       tail-dropped (host queue smaller than one burst); fall back to
       one serialization time so emission still makes progress. *)
    let next =
      if pt.link.next_free > t.clk.(0) then pt.link.next_free
      else t.clk.(0) +. (float_of_int t.cfg.mss_bits /. pt.link.rate)
    in
    Eventq.schedule t.events ~time:next (Emit { flow = u.u_frec.id })
  end

let handle_host t id h ~port:_ packet =
  match packet.Packet.kind with
  | Packet.Data -> (
    match slot h.receivers packet.Packet.flow with
    | None ->
      (* no TCP receiver: maybe an open-loop (UDP) sink *)
      let flow = packet.Packet.flow in
      let got = if flow < Vec.length h.udp_rx then Vec.get h.udp_rx flow else -1 in
      if got >= 0 then begin
        t.delivered_packets <- t.delivered_packets + 1;
        Obs.incr c_delivered;
        record_goodput t (float_of_int packet.Packet.size_bits);
        let got = got + 1 in
        Vec.set h.udp_rx flow got;
        let frec = Vec.get t.flows flow in
        if got = total_segments t frec.bytes then begin
          frec.finish <- Some t.clk.(0);
          match t.on_complete with Some f -> f flow | None -> ()
        end
      end
    | Some rcv ->
      t.delivered_packets <- t.delivered_packets + 1;
      Obs.incr c_delivered;
      record_goodput t (float_of_int packet.Packet.size_bits);
      let ack = Tcp.Receiver.on_data rcv packet.Packet.seq in
      let reply =
        Packet.make ~kind:Packet.Ack ~seq:ack ~size_bits:t.cfg.ack_bits
          ~src:packet.Packet.dst ~dst:packet.Packet.src ~flow:packet.Packet.flow ()
      in
      transmit t id 0 reply)
  | Packet.Ack -> (
    match slot h.senders packet.Packet.flow with
    | None -> ()
    | Some s ->
      if s.frec.finish = None then begin
        let before = Tcp.Sender.snd_una s.tcp in
        let ack = packet.Packet.seq in
        if ack > before then begin
          (* RTT sample from the newest segment this ACK covers.  Acked
             slots need no cleanup: once cumulative, they are never read
             again.  [neg_infinity] (never sent) and NaN (retransmitted,
             Karn's rule) both fail [is_finite] and yield no sample. *)
          if ack - 1 < Array.length s.send_times then begin
            let t0 = s.send_times.(ack - 1) in
            if Float.is_finite t0 then Tcp.Sender.observe_rtt s.tcp (t.clk.(0) -. t0)
          end
        end;
        let rtx = Tcp.Sender.on_ack s.tcp packet.Packet.seq in
        List.iter (send_segment t id s) rtx;
        if Tcp.Sender.is_done s.tcp then begin
          s.frec.finish <- Some t.clk.(0);
          match t.on_complete with Some f -> f s.frec.id | None -> ()
        end
        else pump t id s
      end)

let daemon_tick t =
  for id = 0 to Vec.length t.nodes - 1 do
    match (node t id).kind with
    | Host _ -> ()
    | Router r
      when r.chooser = None && r.chooser_k = None && not (Fib.may_deflect r.r_fib) ->
      (* No chooser and no live alternative in the table: the epoch walk
         over this FIB would visit every entry only to write back the
         state it already has.  On a benign mesh this skip turns the
         tick from O(routers x prefixes) into O(routers). *)
      ()
    | Router r -> (
      let port_utilization p =
        let link = (port t id p).link in
        let elapsed = Float.max 1e-9 (t.clk.(0) -. t.last_epoch_time) in
        let used = (link.bits_carried -. link.carried_at_epoch) /. elapsed in
        Float.min 1. (used /. link.rate)
      in
      match r.chooser_k with
      | Some choose_alts ->
        Daemon.epoch_ranked ~config:t.cfg.daemon_config ~fib:r.r_fib
          ~port_utilization ~choose_alts ()
      | None ->
        let choose_alt prefix entry =
          match r.chooser with
          | Some f -> f prefix entry
          | None -> Fib.alt_port entry
        in
        Daemon.epoch ~config:t.cfg.daemon_config ~fib:r.r_fib ~port_utilization
          ~choose_alt ())
  done;
  (* snapshot link counters for the next epoch's utilization window *)
  for id = 0 to Vec.length t.nodes - 1 do
    Vec.iter (fun p -> p.link.carried_at_epoch <- p.link.bits_carried) (node t id).ports
  done;
  t.last_epoch_time <- t.clk.(0)

let deliver t id p packet =
  match (node t id).kind with
  | Router r -> handle_router t id r ~port:p packet
  | Host h -> handle_host t id h ~port:p packet

(* A drained-empty train releases its backing arrays once they exceed
   this many elements: a 44K-scale run's transient bufferbloat would
   otherwise pin its ~600K-entry high-water in every deep port forever.
   Small trains keep their arrays — re-growing an 8..1K-element array
   on every idle period would churn for no memory win. *)
let train_release_capacity = 1024

(* Drain a port's train.  The head element was just popped by the run
   loop ([t.clk.(0)] set, counted); each following element is processed
   inline as long as it is still globally next — i.e. its (time, seq)
   precedes the event queue's head — skipping a queue round-trip for
   the dominant back-to-back case.  The moment something else (an event
   another handler scheduled, or [until]) preempts, the train goes back
   into the queue keyed by its new head. *)
let train_drain t id p ~until =
  let pt = port t id p in
  pt.tr_live <- false;
  let batch = ref 0 in
  let continue = ref true in
  while !continue do
    let h = pt.tr_head in
    let packet = Vec.get pt.tr_pkt h in
    pt.tr_head <- h + 1;
    incr batch;
    deliver t pt.peer pt.peer_port packet;
    if pt.tr_head >= Vec.length pt.tr_time then continue := false
    else begin
      let nt = Vec.get pt.tr_time pt.tr_head in
      let ns = Vec.get pt.tr_seq pt.tr_head in
      if nt <= until && Eventq.precedes_head t.events ~time:nt ~seq:ns then begin
        t.clk.(0) <- nt;
        t.events_processed <- t.events_processed + 1
      end
      else begin
        pt.tr_live <- true;
        Eventq.schedule_pre t.events ~time:nt ~seq:ns pt.tr_ev;
        continue := false
      end
    end
  done;
  (let b = !batch in
   if b < Array.length t.batch_counts then
     t.batch_counts.(b) <- t.batch_counts.(b) + 1
   else Obs.observe h_train_batch (float_of_int b));
  if pt.tr_head >= Vec.length pt.tr_time then begin
    Vec.clear pt.tr_time;
    Vec.clear pt.tr_seq;
    Vec.clear pt.tr_pkt;
    pt.tr_head <- 0;
    if Vec.capacity pt.tr_time >= train_release_capacity then begin
      Vec.trim pt.tr_time;
      Vec.trim pt.tr_seq;
      Vec.trim pt.tr_pkt
    end
  end
  else if pt.tr_head >= 256 && 2 * pt.tr_head >= Vec.length pt.tr_time then begin
    (* Reclaim the consumed prefix so a long-lived busy port's train
       stays bounded by its in-flight packets — but only once the
       consumed prefix is at least half the vector, so each element is
       moved at most once on average (compacting on a fixed threshold
       re-blits a deep port's thousands of pending arrivals every 256
       pops: quadratic exactly in the bufferbloat regime trains are
       for). *)
    Vec.drop_prefix pt.tr_time pt.tr_head;
    Vec.drop_prefix pt.tr_seq pt.tr_head;
    Vec.drop_prefix pt.tr_pkt pt.tr_head;
    pt.tr_head <- 0
  end

let handle t = function
  | Arrive { node = id; port = p; packet } -> deliver t id p packet
  | Train _ -> assert false (* dispatched by the run loop, needs [until] *)
  | Start_flow flow -> (
    let frec = Vec.get t.flows flow in
    let h = host_exn t frec.src_host in
    match slot h.senders flow with
    | Some s -> pump t frec.src_host s
    | None -> (
      match slot h.udp_tx flow with
      | Some u -> emit_burst t frec.src_host u
      | None -> ()))
  | Emit { flow } -> (
    let frec = Vec.get t.flows flow in
    match slot (host_exn t frec.src_host).udp_tx flow with
    | Some u -> emit_burst t frec.src_host u
    | None -> ())
  | Timeout { host; flow; gen } -> (
    match slot (host_exn t host).senders flow with
    | None -> ()
    | Some s ->
      (* events fire in time order, so this was the earliest queued one *)
      s.t_min <- Float.infinity;
      if s.frec.finish = None then begin
        let rtx = Tcp.Sender.on_timeout s.tcp ~gen in
        if rtx <> [] then begin
          List.iter (send_segment t host s) rtx;
          arm_timer t host s
        end
        else if
          Tcp.Sender.timer_needed s.tcp
          && s.t_deadline >= t.clk.(0)
          && s.t_deadline < Float.infinity
          && s.t_min > s.t_deadline
        then begin
          (* stale early fire: keep the logical deadline covered *)
          s.t_min <- s.t_deadline;
          Eventq.schedule t.events ~time:s.t_deadline
            (Timeout { host; flow; gen = s.t_gen })
        end
      end)
  | Daemon_tick ->
    daemon_tick t;
    sample_queue_health t;
    if not (Eventq.is_empty t.events) then begin
      Eventq.schedule t.events ~time:(t.clk.(0) +. t.cfg.daemon_period) Daemon_tick
    end

let run ?(until = infinity) t =
  if not t.daemon_scheduled then begin
    t.daemon_scheduled <- true;
    Eventq.schedule t.events ~time:t.cfg.daemon_period Daemon_tick
  end;
  let rec loop () =
    match Eventq.pop_before t.events ~until with
    | None -> ()
    | Some ev ->
      (* the pop already advanced [t.clk.(0)] — it is the queue's
         time cell *)
      t.events_processed <- t.events_processed + 1;
      (match ev with
      | Train { node; port } -> train_drain t node port ~until
      | ev -> handle t ev);
      loop ()
  in
  loop ();
  sample_queue_health t

type flow_result = { flow : int; start : float; finish : float option; bytes : int }

let flow_results t =
  Array.map
    (fun (f : flow_rec) ->
      { flow = f.id; start = f.start; finish = f.finish; bytes = f.bytes })
    (Vec.to_array t.flows)

let throughput_series t =
  Array.mapi
    (fun i bits -> (float_of_int i *. t.cfg.series_interval, bits /. t.cfg.series_interval))
    (Vec.to_array t.goodput_buckets)

let counters t =
  {
    delivered_packets = t.delivered_packets;
    dropped_queue = t.dropped_queue;
    dropped_ttl = t.dropped_ttl;
    dropped_valley = t.dropped_valley;
    dropped_no_route = t.dropped_no_route;
    encapsulated = t.encapsulated;
    deflected = t.deflected;
  }

let path_switches t =
  let totals = Vec.create () in
  for id = 0 to Vec.length t.nodes - 1 do
    match (node t id).kind with
    | Host _ -> ()
    | Router r ->
      for flow = 0 to Vec.length r.switches - 1 do
        let c = Vec.get r.switches flow in
        if c > 0 then begin
          Vec.ensure totals (flow + 1) 0;
          Vec.set totals flow (Vec.get totals flow + c)
        end
      done
  done;
  (* flows ascending, built back to front — no sort needed *)
  let acc = ref [] in
  for flow = Vec.length totals - 1 downto 0 do
    let c = Vec.get totals flow in
    if c > 0 then acc := (flow, c) :: !acc
  done;
  !acc

(* Read-only topology/state exports for the static verifier
   (Mifo_analysis.Net_check): enough to rebuild the forwarding graph —
   nodes, ports with their kinds and far ends, FIBs (via [fib]) and the
   iBGP routing table — without exposing any mutable simulator state. *)

type node_view = Router_view of { as_id : int } | Host_view of { addr : Prefix.addr }

let node_count t = Vec.length t.nodes

let node_view t id =
  match (node t id).kind with
  | Router r -> Router_view { as_id = r.as_id }
  | Host h -> Host_view { addr = h.addr }

let port_count t id = Vec.length (node t id).ports
let port_kind t id p = (port t id p).kind

let port_peer t id p =
  let pt = port t id p in
  (pt.peer, pt.peer_port)

let ibgp_route t id peer = Hashtbl.find_opt (router_exn t id).ibgp_peers peer

let set_completion_hook t f = t.on_complete <- Some f
let set_tracer t f = t.tracer <- Some f
let clear_tracer t = t.tracer <- None
