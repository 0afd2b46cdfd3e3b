(* One measured simulation for the benchmark (perfbench/run.py drives it).

   A process runs exactly one workload on one seed and prints one JSON
   line of raw figures; run.py starts a fresh process per measurement
   (so allocation counts are reproducible), repeats, and reduces.

   Phases, in order:
   1. inputs: everything the seed decides (flow start offsets, the
      open-loop arrival schedule) is generated before any clock starts;
   2. set-up (timed as [setup_s]): topology build, connection
      establishment and a warm-up window of simulated time;
   3. the timed window: consecutive [Engine.run ~until] calls, one per
      fixed slice of simulated time, each timed on its own.  Between
      slices (outside the slice timer) the benchmark checks switch
      buffers and samples the AC/DC flow tables.

   With [--traced] the program's own [Obs.Prof] spans are collected over
   the timed window only; with [--single] the window is one
   [Engine.run] call.  Neither may change a simulated output: run.py
   compares [sim.digest] across all three. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Rng = Eventsim.Rng
module Topology = Fabric.Topology
module Conn = Fabric.Conn
module Host = Fabric.Host
module Switch = Netsim.Switch
module Prof = Obs.Prof

let clock_ns = Prof.clock_ns

type workload = Bulk_dumbbell | Websearch_leafspine | Bulk_observed

(* Simulated time per process: [warmup] (part of set-up) then [window]
   timed in [slice]s.  Every window holds 2000 slices, so each process's
   slice p99 has 20 slices beyond it; the lengths keep one process near
   half a second of host time on a quiet core. *)
type shape = { name : string; warmup : Time_ns.t; window : Time_ns.t; slice : Time_ns.t }

let shape workload =
  let ms = Time_ns.ms and us = Time_ns.us in
  match workload with
  | Bulk_dumbbell -> { name = "bulk-dumbbell"; warmup = ms 20; window = ms 200; slice = us 100 }
  | Websearch_leafspine ->
    { name = "websearch-leafspine"; warmup = ms 10; window = ms 50; slice = us 25 }
  | Bulk_observed -> { name = "bulk-observed"; warmup = ms 20; window = ms 100; slice = us 50 }

let workloads =
  List.map (fun w -> ((shape w).name, w)) [ Bulk_dumbbell; Websearch_leafspine; Bulk_observed ]

(* ------------------------------------------------------------------ *)
(* Workload parameters                                                 *)

let bulk_pairs = 8
let bulk_start_spread_ns = 200_000
let leaves = 4
let spines = 2
let hosts_per_leaf = 4
let websearch_load = 0.5
let mice_cutoff_bytes = 100_000
let teardown_grace = Time_ns.ms 20
let trace_ring_capacity = 16_384

(* Tenant stacks of the web-search fabric: source host [i] runs the
   [i mod 6]-th registered congestion control. *)
let tenant_ccs = Array.of_list Tcp.Cc_registry.all

type arrival = { at : Time_ns.t; dst : int; bytes : int }

(* Poisson arrivals per source host at [websearch_load] of its link,
   sizes from the web-search CDF, destinations on another leaf (3 switch
   hops).  Generated for the whole horizon before the clock starts. *)
let websearch_schedule ~seed ~horizon ~(params : Fabric.Params.t) =
  let master = Rng.create ~seed in
  let dist = Workload.Dist.web_search in
  let mean_s =
    Workload.Dist.mean_bytes dist *. 8.0
    /. (websearch_load *. float_of_int params.Fabric.Params.link_rate_bps)
  in
  Array.init (leaves * hosts_per_leaf) (fun src ->
      let rng = Rng.split master in
      let rec go at acc =
        let at = at + Time_ns.sec (Rng.exponential rng ~mean:mean_s) in
        if at >= horizon then Array.of_list (List.rev acc)
        else
          let leaf = (src / hosts_per_leaf + 1 + Rng.int rng (leaves - 1)) mod leaves in
          let dst = (leaf * hosts_per_leaf) + Rng.int rng hosts_per_leaf in
          go at ({ at; dst; bytes = Workload.Dist.sample dist rng } :: acc)
      in
      go Time_ns.zero [])

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)

type flows = {
  mutable conns : Conn.t list;
  mutable started : int;
  mutable completed_in_window : int;
  mutable fcts : (int * Time_ns.t) list;  (** (bytes, fct) completed in the window *)
  mutable establish_ns : int list;
  mutable window_open : bool;
}

let new_flows () =
  {
    conns = [];
    started = 0;
    completed_in_window = 0;
    fcts = [];
    establish_ns = [];
    window_open = false;
  }

(* Benchmark-side span around the program's connection set-up call. *)
let timed_establish flows ~src ~dst ~config ?at () =
  let t0 = clock_ns () in
  let conn = Conn.establish ~src ~dst ~config ?at () in
  flows.establish_ns <- (clock_ns () - t0) :: flows.establish_ns;
  flows.conns <- conn :: flows.conns;
  flows.started <- flows.started + 1;
  conn

let start_bulk net flows ~seed =
  let rng = Rng.create ~seed in
  let offsets = Array.init bulk_pairs (fun _ -> Rng.int rng bulk_start_spread_ns) in
  let params = net.Topology.params in
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  Array.iteri
    (fun i offset ->
      let conn =
        timed_establish flows ~src:(Topology.host net i)
          ~dst:(Topology.host net (bulk_pairs + i))
          ~config ~at:(Time_ns.ns offset) ()
      in
      Conn.send_forever conn)
    offsets

let start_websearch net flows schedule =
  let engine = net.Topology.engine in
  let params = net.Topology.params in
  Array.iteri
    (fun src arrivals ->
      let cc = snd tenant_ccs.(src mod Array.length tenant_ccs) in
      let config = Fabric.Params.tcp_config params ~cc ~ecn:false in
      let rec arm k =
        if k < Array.length arrivals then
          let a = arrivals.(k) in
          Engine.schedule engine ~at:a.at (fun () ->
              let conn =
                timed_establish flows ~src:(Topology.host net src)
                  ~dst:(Topology.host net a.dst) ~config ()
              in
              Conn.send_message conn ~bytes:a.bytes ~on_complete:(fun fct ->
                  if flows.window_open then begin
                    flows.completed_in_window <- flows.completed_in_window + 1;
                    flows.fcts <- (a.bytes, fct) :: flows.fcts
                  end;
                  Conn.teardown conn ~after:teardown_grace);
              arm (k + 1))
      in
      arm 0)
    schedule

(* ------------------------------------------------------------------ *)
(* Counters read through public accessors                              *)

let sum_hosts net f =
  Array.fold_left
    (fun acc h -> match Host.acdc h with Some a -> acc + f a | None -> acc)
    0 net.Topology.hosts

let live_flows net =
  let acc = ref 0 in
  let hosts = net.Topology.hosts in
  for i = 0 to Array.length hosts - 1 do
    match Host.acdc hosts.(i) with
    | Some a ->
      acc :=
        !acc + Acdc.Sender.tracked_flows (Acdc.sender a)
        + Acdc.Receiver.tracked_flows (Acdc.receiver a)
    | None -> ()
  done;
  !acc

let sum_switches net f = Array.fold_left (fun acc sw -> acc + f sw) 0 net.Topology.switches

let sum_clients flows f =
  List.fold_left (fun acc c -> acc + f (Conn.client c)) 0 flows.conns

type snapshot = {
  events : int;
  forwarded : int;
  drops : int;
  ce_marks : int;
  bytes_acked : int;
  retransmissions : int;
  timeouts : int;
  rwnd_rewrites : int;
  packs : int;
  facks : int;
}

let snapshot net flows =
  {
    events = Engine.events_processed net.Topology.engine;
    forwarded = Topology.total_forwarded net;
    drops = Topology.total_switch_drops net;
    ce_marks = sum_switches net Switch.ce_marks;
    bytes_acked = List.fold_left (fun acc c -> acc + Conn.bytes_acked c) 0 flows.conns;
    retransmissions = sum_clients flows Tcp.Endpoint.retransmissions;
    timeouts = sum_clients flows Tcp.Endpoint.timeouts;
    rwnd_rewrites = sum_hosts net (fun a -> Acdc.Sender.rwnd_rewrites (Acdc.sender a));
    packs = sum_hosts net (fun a -> Acdc.Receiver.packs_sent (Acdc.receiver a));
    facks = sum_hosts net (fun a -> Acdc.Receiver.facks_sent (Acdc.receiver a));
  }

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

(* Nearest-rank percentile of an already sorted array. *)
let rank_pctl sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

let run ~workload ~seed ~traced ~single =
  let { name; warmup; window; slice } = shape workload in
  let observed = workload = Bulk_observed in
  let horizon = warmup + window in
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let schedule =
    match workload with
    | Websearch_leafspine -> Some (websearch_schedule ~seed ~horizon ~params)
    | Bulk_dumbbell | Bulk_observed -> None
  in
  if observed then begin
    Dcpkt.Int_meta.set_enabled true;
    Obs.Attrib.set_enabled (Obs.Runtime.attrib ()) true;
    Obs.Runtime.set_tracer (Obs.Trace.ring ~capacity:trace_ring_capacity ())
  end;
  let flows = new_flows () in
  (* -- set-up -- *)
  let setup0 = clock_ns () in
  let engine = Engine.create () in
  let acdc = Topology.acdc_everywhere params in
  let net =
    match workload with
    | Websearch_leafspine ->
      Topology.leaf_spine engine ~params ~acdc ~leaves ~spines ~hosts_per_leaf ()
    | Bulk_dumbbell | Bulk_observed -> Topology.dumbbell engine ~params ~acdc ~pairs:bulk_pairs ()
  in
  let build_ns = clock_ns () - setup0 in
  (match schedule with
  | Some s -> start_websearch net flows s
  | None -> start_bulk net flows ~seed);
  Engine.run ~until:warmup engine;
  let setup_ns = clock_ns () - setup0 in
  (* -- timed window -- *)
  let checks = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> checks := s :: !checks) fmt in
  let capacity = params.Fabric.Params.buffer_bytes in
  let switches = net.Topology.switches in
  let check_buffers () =
    for i = 0 to Array.length switches - 1 do
      let used = Switch.buffer_used switches.(i) in
      if used < 0 || used > capacity then
        fail "switch %s buffer_used %d outside [0, %d]" (Switch.name switches.(i)) used capacity
    done
  in
  let nslices = if single then 1 else window / slice in
  let step = window / nslices in
  let slice_ns = Array.make nslices 0 in
  let live0 = live_flows net in
  let live = ref live0 and live_max = ref live0 in
  let inserts = ref 0 and removals = ref 0 in
  let before = snapshot net flows in
  flows.window_open <- true;
  if traced then begin
    Prof.reset ();
    Prof.set_enabled true
  end;
  let minor0 = Gc.minor_words () in
  for i = 0 to nslices - 1 do
    let until = warmup + ((i + 1) * step) in
    let t0 = clock_ns () in
    Engine.run ~until engine;
    slice_ns.(i) <- clock_ns () - t0;
    check_buffers ();
    let now_live = live_flows net in
    if now_live > !live then inserts := !inserts + (now_live - !live)
    else removals := !removals + (!live - now_live);
    live := now_live;
    if now_live > !live_max then live_max := now_live
  done;
  let minor_words = Gc.minor_words () -. minor0 in
  if traced then Prof.set_enabled false;
  flows.window_open <- false;
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let after = snapshot net flows in
  (* -- simulated outputs and their checks -- *)
  let d f = f after - f before in
  let window_s = Time_ns.to_sec window in
  let goodput_gbps = float_of_int (d (fun s -> s.bytes_acked)) *. 8.0 /. window_s /. 1e9 in
  let link_gbps = float_of_int params.Fabric.Params.link_rate_bps /. 1e9 in
  let bottleneck_gbps =
    match workload with
    | Websearch_leafspine -> link_gbps *. float_of_int (Array.length net.Topology.hosts)
    | Bulk_dumbbell | Bulk_observed -> link_gbps
  in
  if goodput_gbps > bottleneck_gbps then
    fail "aggregate goodput %.3f Gb/s above bottleneck %.3f Gb/s" goodput_gbps bottleneck_gbps;
  if flows.completed_in_window > flows.started then
    fail "%d flows completed but only %d started" flows.completed_in_window flows.started;
  List.iter
    (fun (bytes, fct) ->
      if fct <= 0 then fail "flow of %d bytes completed with FCT %d ns" bytes fct)
    flows.fcts;
  let mice =
    sorted_of_list
      (List.filter_map
         (fun (bytes, fct) -> if bytes < mice_cutoff_bytes then Some fct else None)
         flows.fcts)
  in
  let sim =
    [
      ("sim.events", string_of_int (d (fun s -> s.events)));
      ("sim.pkts_forwarded", string_of_int (d (fun s -> s.forwarded)));
      ("sim.switch_drops", string_of_int (d (fun s -> s.drops)));
      ("sim.goodput_gbps", Printf.sprintf "%.6f" goodput_gbps);
      ("sim.flows_completed", string_of_int flows.completed_in_window);
      ("sim.mice_fct_p99_ms", Printf.sprintf "%.6f" (Time_ns.to_ms (rank_pctl mice 99.0)));
    ]
  in
  (* The digest also covers every completed flow and every connection's
     acknowledged bytes, so it pins more than the six printed values. *)
  let digest =
    let b = Buffer.create 4096 in
    List.iter (fun (k, v) -> Printf.bprintf b "%s=%s\n" k v) sim;
    List.iter (fun (bytes, fct) -> Printf.bprintf b "fct %d %d\n" bytes fct) flows.fcts;
    List.iter (fun c -> Printf.bprintf b "acked %d\n" (Conn.bytes_acked c)) flows.conns;
    String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16
  in
  let sim = sim @ [ ("sim.digest", digest) ] in
  let sorted_slices = Array.copy slice_ns in
  Array.sort compare sorted_slices;
  let establish = sorted_of_list flows.establish_ns in
  let data_segs =
    float_of_int (d (fun s -> s.bytes_acked)) /. float_of_int (Fabric.Params.mss params)
  in
  let counts =
    [
      ("ce_marks", d (fun s -> s.ce_marks));
      ("retransmissions", d (fun s -> s.retransmissions));
      ("timeouts", d (fun s -> s.timeouts));
      ("rwnd_rewrites", d (fun s -> s.rwnd_rewrites));
      ("packs", d (fun s -> s.packs));
      ("facks", d (fun s -> s.facks));
      ("flow_inserts", !inserts);
      ("flow_gc_removals", !removals);
      ("flows_live_max", !live_max);
    ]
  in
  let module J = Obs.Json in
  let prof =
    if not traced then []
    else
      let site (s : Prof.site_stats) =
        ( s.Prof.s_name,
          J.Obj [ ("count", J.Int s.Prof.s_count); ("minor_words", J.Float s.Prof.s_minor_words) ]
        )
      in
      [
        ( "prof",
          J.Obj
            [
              ("heap_depth_max", J.Int (Prof.heap_depth_high_water ()));
              ("sites", J.Obj (List.map site (Prof.snapshot ())));
              ("folded", J.Obj (List.map (fun (p, ns) -> (p, J.Int ns)) (Prof.folded ())));
            ] );
      ]
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("workload", J.String name);
             ("seed", J.Int seed);
             ("traced", J.Bool traced);
             ("single", J.Bool single);
             ("setup_ns", J.Int setup_ns);
             ("build_ns", J.Int build_ns);
             ("window_ns", J.Int (Array.fold_left ( + ) 0 slice_ns));
             ("warmup_ns", J.Int warmup);
             ("window_sim_ns", J.Int window);
             ("slices", J.Int nslices);
             ("slice_p50_ns", J.Int (rank_pctl sorted_slices 50.0));
             ("slice_p99_ns", J.Int (rank_pctl sorted_slices 99.0));
             ("minor_words", J.Float minor_words);
             ("top_heap_words", J.Int top_heap_words);
             ("data_segs", J.Float data_segs);
             ("establish_p50_ns", J.Int (rank_pctl establish 50.0));
             ("establish_p99_ns", J.Int (rank_pctl establish 99.0));
             ("sim", J.Obj (List.map (fun (k, v) -> (k, J.String v)) sim));
             ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counts));
             ("checks", J.List (List.rev_map (fun c -> J.String c) !checks));
           ]
          @ prof)))

let () =
  let workload = ref None and seed = ref 1 and traced = ref false and single = ref false in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> workload := List.assoc_opt s workloads),
        " " ^ String.concat " | " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--traced", Arg.Set traced, " collect Obs.Prof spans over the window");
      ("--single", Arg.Set single, " run the window as one Engine.run call");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad a)) "perfbench --workload W [options]";
  match !workload with
  | None ->
    prerr_endline "perfbench: --workload must name one of the workloads";
    exit 2
  | Some workload -> run ~workload ~seed:!seed ~traced:!traced ~single:!single
