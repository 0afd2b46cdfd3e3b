module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet

(* Serialization port: rate-limited FIFO + propagation delay.

   Hot-path shape: one flat ring (parallel arrays, no per-entry tuple)
   holds each frame from enqueue until delivery, indexed by a per-port
   sequence number ([seq land (capacity - 1)]).  The ring's live span is
   three consecutive runs:

     [head, tx)   serialized, propagating toward [deliver]
     tx           on the serializer (while [busy])
     (tx, tail)   waiting

   so a frame is stored once, at enqueue, and moves between runs by index
   arithmetic alone.  Both the tx-complete and the delivery events are
   static-site handlers riding pooled engine cells — steady-state
   forwarding schedules nothing on the OCaml heap, and stores no fresh
   packet into a long-lived structure beyond its one ring slot.

   Delivery coalescing: on the jitter-free path, delivery due times from
   one port are nondecreasing (finish times are spaced by tx_time and
   prop_delay is constant), so the propagating run is drained in order by
   a single armed engine event.  A run of same-due packets — e.g. a
   downstream burst after an idle gap, or tx_time rounding to 0 at
   extreme rates — is handed over in one dispatch instead of one event
   each.  Jitter can reorder due times, so that path schedules one event
   per frame carrying the frame's sequence number; a delivered slot is
   emptied and [head] advances over the emptied prefix. *)

type t = {
  engine : Engine.t;
  rate_bps : int;
  prop_delay : Time_ns.t;
  jitter : (Eventsim.Rng.t * Time_ns.t) option;
  deliver : Packet.t -> unit;
  (* The ring.  Each entry carries its enqueue-time wire size (packets
     are mutable and an option rewrite while queued must not unbalance the
     byte books) and a time: the enqueue time until serialization
     completes (the basis of the sojourn instruments below), the delivery
     due time after. *)
  mutable r_pkt : Packet.t array;
  mutable r_size : int array;
  mutable r_time : int array;
  mutable head : int;
  mutable tx : int;
  mutable tail : int;
  mutable d_armed : bool;
  tracer : Obs.Trace.t;
  pcap : Obs.Pcap.t;
  iface : string;
  node : Obs.Trace.name;
  port : int;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable on_tx_complete : Packet.t -> size:int -> unit;
  (* Queue-residency instruments (enqueue -> serialization complete), an
     INT-independent cross-check for the telemetry a switch stamps: the
     gauge keeps the high-water sojourn, the counters let a validator
     bound per-hop INT samples against this queue's own books. *)
  g_sojourn : Obs.Metrics.gauge;
  c_sojourn_total : Obs.Metrics.counter;
  c_sojourn_samples : Obs.Metrics.counter;
}

let initial_ring = 64

let create ?(node = "txq") ?(port = 0) engine ~rate_bps ~prop_delay ~jitter ~deliver =
  assert (rate_bps > 0);
  let scope =
    Obs.Metrics.scope (Obs.Runtime.metrics ()) (Printf.sprintf "txq.%s.port%d" node port)
  in
  {
    engine;
    rate_bps;
    prop_delay;
    jitter;
    deliver;
    r_pkt = Array.make initial_ring Packet.dummy;
    r_size = Array.make initial_ring 0;
    r_time = Array.make initial_ring 0;
    head = 0;
    tx = 0;
    tail = 0;
    d_armed = false;
    tracer = Obs.Runtime.tracer ();
    pcap = Obs.Runtime.pcap ();
    iface = Printf.sprintf "%s:%d" node port;
    node = Obs.Trace.intern node;
    port;
    queued_bytes = 0;
    busy = false;
    on_tx_complete = (fun _ ~size:_ -> ());
    g_sojourn = Obs.Metrics.scope_gauge scope "sojourn_ns";
    c_sojourn_total = Obs.Metrics.scope_counter scope "sojourn_total_ns";
    c_sojourn_samples = Obs.Metrics.scope_counter scope "sojourn_samples";
  }

let set_on_tx_complete t f = t.on_tx_complete <- f

let queued_bytes t = t.queued_bytes
(* Waiting frames only — the one on the serializer is excluded (matching
   [queued_bytes]'s complement: bytes include it, the count never did). *)
let queued_packets t = t.tail - t.tx - if t.busy then 1 else 0
let rate_bps t = t.rate_bps
let busy t = t.busy

let tx_time t ~bytes = bytes * 8 * 1_000_000_000 / t.rate_bps

let[@inline] slot t seq = seq land (Array.length t.r_pkt - 1)

(* Grow by doubling, re-laying each live entry at its sequence number's
   slot under the new mask. *)
let grow t =
  let cap = Array.length t.r_pkt in
  let pkt = Array.make (2 * cap) Packet.dummy in
  let size = Array.make (2 * cap) 0 in
  let time = Array.make (2 * cap) 0 in
  for seq = t.head to t.tail - 1 do
    let i = seq land (cap - 1) and j = seq land ((2 * cap) - 1) in
    pkt.(j) <- t.r_pkt.(i);
    size.(j) <- t.r_size.(i);
    time.(j) <- t.r_time.(i)
  done;
  t.r_pkt <- pkt;
  t.r_size <- size;
  t.r_time <- time

(* The delivery handler for the jittered path: one pooled event per frame,
   carrying the frame's sequence number, no closure. *)
let deliver_one t seq =
  let i = slot t seq in
  let pkt = t.r_pkt.(i) in
  t.r_pkt.(i) <- Packet.dummy;
  while t.head < t.tx && t.r_pkt.(slot t t.head) == Packet.dummy do
    t.head <- t.head + 1
  done;
  t.deliver pkt

let deliver_one_h : (t, int) Engine.handler = Engine.handler deliver_one

(* [finish] (serialization complete), [start_next] and [deliver_batch] are
   mutually recursive with their own static handlers; the handlers are
   [lazy] so the recursive group ties the knot at module init. *)
let rec finish_unprofiled t =
  let i = slot t t.tx in
  let pkt = t.r_pkt.(i) and size = t.r_size.(i) and enq_ns = t.r_time.(i) in
  t.queued_bytes <- t.queued_bytes - size;
  let now = Engine.now t.engine in
  let sojourn = Time_ns.diff now enq_ns in
  Obs.Metrics.set_max t.g_sojourn sojourn;
  Obs.Metrics.add t.c_sojourn_total sojourn;
  Obs.Metrics.incr t.c_sojourn_samples;
  (* Close the top INT hop (if the upstream switch opened one) before the
     trace/capture taps run, so the frame on the wire — and in the pcap —
     carries the completed stamp. *)
  Packet.complete_int_hop pkt ~egress_ns:now;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.dequeue t.tracer ~now ~node:t.node ~port:t.port ~pkt:pkt.Packet.id ~size
      ~qbytes:t.queued_bytes;
  (* The capture tap sits at serialization time — the moment the frame
     hits the wire — so the ECN/option state in the capture is what
     downstream nodes will actually see. *)
  if Obs.Pcap.enabled t.pcap then Obs.Pcap.capture t.pcap ~iface:t.iface ~now pkt;
  t.on_tx_complete pkt ~size;
  let seq = t.tx in
  t.tx <- seq + 1;
  (match t.jitter with
  | Some (rng, j) when j > 0 ->
    let delay = Time_ns.add t.prop_delay (Eventsim.Rng.int rng j) in
    Engine.schedule_static_after t.engine ~delay deliver_one_h t seq
  | Some _ | None ->
    (* Coalescing path: the frame joins the propagating run; due times
       are nondecreasing so the single armed event drains it in order. *)
    let due = Time_ns.add now t.prop_delay in
    t.r_time.(slot t seq) <- due;
    if not t.d_armed then begin
      t.d_armed <- true;
      Engine.schedule_static t.engine ~at:due (Lazy.force deliver_batch_h) t ()
    end);
  start_next t

and finish t () =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.txq_dequeue in
    (try finish_unprofiled t
     with e ->
       Profcore.leave tok;
       raise e);
    Profcore.leave tok
  end
  else finish_unprofiled t

and start_next t =
  if t.tx = t.tail then t.busy <- false
  else begin
    t.busy <- true;
    Engine.schedule_static_after t.engine
      ~delay:(tx_time t ~bytes:t.r_size.(slot t t.tx))
      (Lazy.force finish_h) t ()
  end

(* Drain every propagating frame due now (one dispatch covers a whole
   same-instant run), then re-arm for the next due time, if any. *)
and deliver_batch t () =
  let now = Engine.now t.engine in
  while t.head < t.tx && t.r_time.(slot t t.head) = now do
    let i = slot t t.head in
    let pkt = t.r_pkt.(i) in
    t.r_pkt.(i) <- Packet.dummy;
    t.head <- t.head + 1;
    t.deliver pkt
  done;
  if t.head < t.tx then
    Engine.schedule_static t.engine ~at:t.r_time.(slot t t.head) (Lazy.force deliver_batch_h) t ()
  else t.d_armed <- false

and finish_h = lazy (Engine.handler finish)
and deliver_batch_h = lazy (Engine.handler deliver_batch)

let enqueue_unprofiled t pkt ~size =
  t.queued_bytes <- t.queued_bytes + size;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.enqueue t.tracer ~now:(Engine.now t.engine) ~node:t.node ~port:t.port
      ~pkt:pkt.Packet.id ~size ~qbytes:t.queued_bytes;
  if t.tail - t.head = Array.length t.r_pkt then grow t;
  let i = slot t t.tail in
  t.r_pkt.(i) <- pkt;
  t.r_size.(i) <- size;
  t.r_time.(i) <- Engine.now t.engine;
  t.tail <- t.tail + 1;
  if not t.busy then start_next t

let enqueue_sized t pkt ~size =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.txq_enqueue in
    enqueue_unprofiled t pkt ~size;
    Profcore.leave tok
  end
  else enqueue_unprofiled t pkt ~size

let enqueue t pkt = enqueue_sized t pkt ~size:(Packet.wire_size pkt)
