type verdict = Pass | Drop

type processor = {
  name : string;
  egress : Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> verdict;
  ingress : Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> verdict;
}

let no_op name =
  { name; egress = (fun _ ~inject:_ -> Pass); ingress = (fun _ ~inject:_ -> Pass) }

type t = {
  mutable processors : processor list; (* registration order *)
  node : Obs.Trace.name;
  clock : unit -> Eventsim.Time_ns.t;
  tracer : Obs.Trace.t;
  m_egress_packets : Obs.Metrics.counter;
  m_ingress_packets : Obs.Metrics.counter;
  m_egress_drops : Obs.Metrics.counter;
  m_ingress_drops : Obs.Metrics.counter;
}

let create ?(name = "vswitch") ?(clock = fun () -> Eventsim.Time_ns.zero) () =
  let scope = Obs.Metrics.scope (Obs.Runtime.metrics ()) "vswitch" in
  {
    processors = [];
    node = Obs.Trace.intern name;
    clock;
    tracer = Obs.Runtime.tracer ();
    m_egress_packets = Obs.Metrics.scope_counter scope "egress_packets";
    m_ingress_packets = Obs.Metrics.scope_counter scope "ingress_packets";
    m_egress_drops = Obs.Metrics.scope_counter scope "egress_drops";
    m_ingress_drops = Obs.Metrics.scope_counter scope "ingress_drops";
  }

let add_processor t p = t.processors <- t.processors @ [ p ]

(* One top-level loop per direction, closed over nothing, so running the
   chain allocates nothing.  (A shared loop taking a field selector would
   apply [select p pkt ~inject] as one three-argument call, which feeds
   the two-argument hook its arguments one at a time through a
   partial-application closure per processor per packet.) *)
let rec run_egress processors pkt ~inject =
  match processors with
  | [] -> Pass
  | p :: rest -> (
    match p.egress pkt ~inject with Pass -> run_egress rest pkt ~inject | Drop -> Drop)

let rec run_ingress processors pkt ~inject =
  match processors with
  | [] -> Pass
  | p :: rest -> (
    match p.ingress pkt ~inject with Pass -> run_ingress rest pkt ~inject | Drop -> Drop)

let trace_drop t (pkt : Dcpkt.Packet.t) ~egress =
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.vswitch_drop t.tracer ~now:(t.clock ()) ~node:t.node ~pkt:pkt.Dcpkt.Packet.id ~egress

let process_egress_unprofiled t pkt ~emit =
  Obs.Metrics.incr t.m_egress_packets;
  match run_egress t.processors pkt ~inject:emit with
  | Pass -> emit pkt
  | Drop ->
    Obs.Metrics.incr t.m_egress_drops;
    trace_drop t pkt ~egress:true

let process_egress t pkt ~emit =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.vswitch_tx in
    process_egress_unprofiled t pkt ~emit;
    Profcore.leave tok
  end
  else process_egress_unprofiled t pkt ~emit

let process_ingress_unprofiled t pkt ~deliver =
  Obs.Metrics.incr t.m_ingress_packets;
  match run_ingress t.processors pkt ~inject:deliver with
  | Pass -> deliver pkt
  | Drop ->
    Obs.Metrics.incr t.m_ingress_drops;
    trace_drop t pkt ~egress:false

let process_ingress t pkt ~deliver =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.vswitch_rx in
    process_ingress_unprofiled t pkt ~deliver;
    Profcore.leave tok
  end
  else process_ingress_unprofiled t pkt ~deliver

let egress_packets t = Obs.Metrics.value t.m_egress_packets
let ingress_packets t = Obs.Metrics.value t.m_ingress_packets
let egress_drops t = Obs.Metrics.value t.m_egress_drops
let ingress_drops t = Obs.Metrics.value t.m_ingress_drops
