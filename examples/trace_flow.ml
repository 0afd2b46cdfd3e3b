(* Watch AC/DC work, packet by packet.

   One 64 KB transfer between two hosts, observed two ways:

   - a tap on the sender's datapath placed *after* the AC/DC processor:
     everything printed is what actually reaches the wire (egress) or the
     tenant VM (ingress).  You can see the SYN handshake carrying the
     window scale, data forced to ECT(0), and the returning ACKs arriving
     with their PACK option already consumed and the receive window
     rewritten to AC/DC's computed value.

   - the structured trace layer (lib/obs): a ring tracer installed as the
     ambient sink records every enqueue, CE mark and RWND rewrite across
     the whole fabric, and the tail of that ring is replayed at the end.

   - the time-series layer (Obs.Timeseries): virtual-clock probes sample
     the switch's queue depth and the flow's enforced window every 100 us,
     and the channels are summarized (and optionally dumped as CSV) at the
     end.

   Run with: dune exec examples/trace_flow.exe
             dune exec examples/trace_flow.exe -- /tmp/flow.jsonl
             dune exec examples/trace_flow.exe -- /tmp/flow.jsonl /tmp/flow-ts
   (with a file argument the full trace is also streamed there as JSONL;
   with a directory argument each channel is written as <dir>/<name>.csv) *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet

let budget = ref 18 (* packets to print before going quiet *)

let show engine direction (pkt : Packet.t) =
  if !budget > 0 then begin
    decr budget;
    Format.printf "  %8.2fus %s %a@."
      (Time_ns.to_us (Engine.now engine))
      direction Packet.pp pkt
  end

let tap engine =
  {
    Vswitch.Datapath.name = "tap";
    egress =
      (fun pkt ~inject:_ ->
        show engine "wire <-" pkt;
        Vswitch.Datapath.Pass);
    ingress =
      (fun pkt ~inject:_ ->
        show engine "VM   ->" pkt;
        Vswitch.Datapath.Pass);
  }

(* One traced run; [main] brackets it with the requested sinks. *)
let demo () =
  (* Install the tracer *before* the topology is built — switches and NICs
     capture it at construction time.  The ring sees every event; the
     run's JSONL file, if any, too. *)
  let ring = Obs.Trace.ring ~capacity:4096 () in
  Obs.Runtime.set_tracer (Obs.Trace.tee ring (Obs.Runtime.tracer ()));
  let params = Fabric.Params.with_ecn (Fabric.Params.with_mtu Fabric.Params.default 1500) in
  let engine = Engine.create () in
  let net =
    Fabric.Topology.star engine ~params ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~hosts:2 ()
  in
  (* The tap registers after AC/DC, so it sees the datapath's output. *)
  Vswitch.Datapath.add_processor
    (Fabric.Host.datapath (Fabric.Topology.host net 0))
    (tap engine);
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  Format.printf
    "Sender-host datapath, post-AC/DC (tenant: CUBIC without ECN, 1.5K MTU):@.@.";
  let conn =
    Fabric.Conn.establish ~src:(Fabric.Topology.host net 0) ~dst:(Fabric.Topology.host net 1)
      ~config ()
  in
  (* Time-series channels: switch queues and this flow's enforced window,
     sampled on the virtual clock.  Probes registered before Engine.run
     take their first sample at t=0. *)
  let ts = Obs.Timeseries.create engine in
  let sample_every = Time_ns.us 100 in
  Array.iter
    (fun sw -> Netsim.Switch.register_probes sw ~ts ~interval:sample_every ())
    net.Fabric.Topology.switches;
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    Acdc.Sender.register_flow_probes (Acdc.sender instance) ~ts ~prefix:"flow"
      ~interval:sample_every (Fabric.Conn.key conn)
  | None -> ());
  Fabric.Conn.send_message conn ~bytes:65_536 ~on_complete:(fun fct ->
      Format.printf "@.  transfer of 64 KB completed in %a@." Time_ns.pp fct);
  Engine.run ~until:(Time_ns.ms 50) engine;
  Obs.Timeseries.stop ts;
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    let sender = Acdc.sender instance in
    Format.printf "  AC/DC sender module: %d tracked flow(s), %d RWND rewrites@."
      (Acdc.Sender.tracked_flows sender)
      (Acdc.Sender.rwnd_rewrites sender)
  | None -> ());
  Fabric.Topology.shutdown net;
  (* Replay the tail of the structured trace: prefer the control-plane
     events (rewrites, marks) over the enqueue/dequeue chatter. *)
  let interesting = function
    | _, (Obs.Trace.Enqueue _ | Obs.Trace.Dequeue _) -> false
    | _ -> true
  in
  let events = Obs.Trace.events ring in
  let picked = List.filter interesting events in
  Format.printf "@.Structured trace: %d events recorded fabric-wide (%d in the ring);@."
    (Obs.Trace.recorded ring) (List.length events);
  Format.printf "last control-plane events (CE marks, RWND rewrites, alpha updates):@.";
  let tail n l = List.filteri (fun i _ -> i >= List.length l - n) l in
  List.iter
    (fun (t, ev) ->
      Format.printf "  %8.2fus %a@." (Time_ns.to_us t) Obs.Trace.pp_event ev)
    (tail 10 picked);
  (* Per-run metric snapshot from the same ambient registry the switches
     and AC/DC modules count into. *)
  Format.printf "@.Metric snapshot (ambient registry):@.";
  List.iter
    (fun (name, v) -> if v > 0 then Format.printf "  %-36s %d@." name v)
    (Obs.Metrics.counters (Obs.Runtime.metrics ()));
  Format.printf "@.Time-series channels (sampled every %.0f us of virtual time):@."
    (Time_ns.to_us sample_every);
  List.iter
    (fun ch ->
      let last =
        match Obs.Timeseries.last ch with
        | Some (_, v) -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      Format.printf "  %-28s %4d points, last %s %s@." (Obs.Timeseries.name ch)
        (Obs.Timeseries.length ch) last (Obs.Timeseries.unit_label ch))
    (Obs.Timeseries.channels ts);
  Obs.Runtime.export_timeseries ts

let () =
  let path, csv_dir =
    match Sys.argv with
    | [| _; path |] -> (Some path, None)
    | [| _; path; dir |] -> (Some path, Some dir)
    | _ -> (None, None)
  in
  let config =
    {
      Obs.Runtime.off with
      trace = (match path with Some p -> File p | None -> Obs.Runtime.off.trace);
      timeseries = csv_dir;
    }
  in
  Obs.Runtime.with_run config demo;
  Option.iter (Format.printf "@.full JSONL trace written to %s@.") path;
  Option.iter (Format.printf "time-series CSVs written to %s/@.") csv_dir;
  Format.printf
    "@.Things to notice: the tenant sent Not-ECT data (it has no ECN), yet@\n\
     every data packet left as ECT0; the ACKs the VM received carry no PACK@\n\
     option (consumed by AC/DC) and their receive window is AC/DC's computed@\n\
     value, not the receiver's 6 MB buffer.@."
