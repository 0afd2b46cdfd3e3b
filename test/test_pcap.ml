module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Pcap = Obs.Pcap

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let key = Flow_key.make ~src_ip:3 ~dst_ip:9 ~src_port:40321 ~dst_port:5001

(* ------------------------------------------------------------------ *)
(* Packet.to_wire / of_wire                                            *)

let roundtrip ?(check_fields = true) label (p : Packet.t) =
  let wire = Packet.to_wire p in
  match Packet.of_wire wire with
  | Error e -> Alcotest.fail (Printf.sprintf "%s: of_wire: %s" label e)
  | Ok q ->
    check_string (label ^ ": re-serialization is byte-identical") wire (Packet.to_wire q);
    if check_fields then begin
      check_int (label ^ ": id") (p.Packet.id land 0xFFFF) q.Packet.id;
      check_bool (label ^ ": key") true (Flow_key.equal p.Packet.key q.Packet.key);
      check_int (label ^ ": seq") p.Packet.seq q.Packet.seq;
      check_int (label ^ ": ack") p.Packet.ack q.Packet.ack;
      check_bool (label ^ ": syn") p.Packet.syn q.Packet.syn;
      check_bool (label ^ ": fin") p.Packet.fin q.Packet.fin;
      check_bool (label ^ ": rst") p.Packet.rst q.Packet.rst;
      check_bool (label ^ ": has_ack") p.Packet.has_ack q.Packet.has_ack;
      check_bool (label ^ ": ece") p.Packet.ece q.Packet.ece;
      check_bool (label ^ ": cwr") p.Packet.cwr q.Packet.cwr;
      check_bool (label ^ ": ecn") true (p.Packet.ecn = q.Packet.ecn);
      check_bool (label ^ ": vm_ect") p.Packet.vm_ect q.Packet.vm_ect;
      check_int (label ^ ": rwnd_field") p.Packet.rwnd_field q.Packet.rwnd_field;
      check_int (label ^ ": payload") p.Packet.payload q.Packet.payload;
      check_bool (label ^ ": options") true (p.Packet.options = q.Packet.options)
    end

let test_wire_roundtrip () =
  Packet.reset_ids ();
  (* Every IP ECN codepoint on a full-size data segment. *)
  List.iter
    (fun (label, ecn) -> roundtrip label (Packet.make ~key ~seq:1000 ~ecn ~payload:1448 ()))
    [
      ("not-ect", Packet.Not_ect);
      ("ect0", Packet.Ect0);
      ("ect1", Packet.Ect1);
      ("ce", Packet.Ce);
    ];
  roundtrip "syn with mss+wscale"
    (Packet.make ~key ~syn:true
       ~options:[ Packet.Mss 8960; Packet.Window_scale 9 ]
       ~payload:0 ());
  roundtrip "syn-ack"
    (Packet.make ~key:(Flow_key.reverse key) ~syn:true ~has_ack:true ~ack:1
       ~options:[ Packet.Mss 1448; Packet.Window_scale 7 ]
       ~payload:0 ());
  roundtrip "pack ack"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:123456 ~has_ack:true ~rwnd_field:0x1234
       ~options:[ Packet.Pack { total_bytes = 1_000_000; marked_bytes = 65_535 } ]
       ~payload:0 ());
  roundtrip "sack ack"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:1000 ~has_ack:true
       ~options:[ Packet.Sack [ (1000, 2448); (5000, 6448); (9000, 10448) ] ]
       ~payload:0 ());
  roundtrip "pack + sack together"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:1000 ~has_ack:true
       ~options:
         [ Packet.Pack { total_bytes = 42; marked_bytes = 7 }; Packet.Sack [ (1000, 2448) ] ]
       ~payload:0 ());
  roundtrip "fin-ack" (Packet.make ~key ~seq:77 ~ack:88 ~fin:true ~has_ack:true ~payload:0 ());
  roundtrip "rst" (Packet.make ~key ~rst:true ~payload:0 ());
  (* Mutable flag bits the vSwitch rewrites in place. *)
  let p = Packet.make ~key ~seq:1 ~ecn:Packet.Ce ~payload:9000 () in
  p.Packet.ece <- true;
  p.Packet.cwr <- true;
  p.Packet.vm_ect <- true;
  roundtrip "ece+cwr+vm_ect" p;
  (* PACK counters wrap at 2^24 on the wire: bytes still round-trip even
     though the decoded counter is reduced mod 2^24. *)
  roundtrip ~check_fields:false "pack counter wrap"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:1 ~has_ack:true
       ~options:[ Packet.Pack { total_bytes = 0x1_234_567; marked_bytes = 0x1_000_001 } ]
       ~payload:0 ())

let test_wire_errors () =
  Packet.reset_ids ();
  let wire = Packet.to_wire (Packet.make ~key ~seq:5 ~payload:100 ()) in
  let expect_error label s =
    check_bool label true (Result.is_error (Packet.of_wire s))
  in
  expect_error "empty" "";
  expect_error "truncated" (String.sub wire 0 40);
  let corrupt off =
    let b = Bytes.of_string wire in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
    Bytes.to_string b
  in
  expect_error "bad ethertype" (corrupt 12);
  expect_error "ip header corruption fails checksum" (corrupt 30);
  expect_error "tcp header corruption fails checksum" (corrupt 38);
  (* Oversized segments can't be expressed in a 16-bit total length. *)
  check_bool "to_wire rejects > 64KB" true
    (try
       ignore (Packet.to_wire (Packet.make ~key ~payload:70_000 ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pcap writer/reader units                                            *)

let write_capture format packets =
  let buf = Buffer.create 4096 in
  let sink = Pcap.create ~format ~write:(Buffer.add_string buf) in
  List.iter (fun (iface, now, pkt) -> Pcap.capture sink ~iface ~now pkt) packets;
  (Buffer.contents buf, Pcap.frames sink)

let sample_packets () =
  Packet.reset_ids ();
  [
    ("tor0:1", Time_ns.us 5, Packet.make ~key ~seq:1 ~ecn:Packet.Ect0 ~payload:1448 ());
    ( "host3.vm",
      Time_ns.ms 2,
      Packet.make ~key:(Flow_key.reverse key) ~ack:1449 ~has_ack:true
        ~options:[ Packet.Pack { total_bytes = 1448; marked_bytes = 0 } ]
        ~payload:0 () );
    ("tor0:1", Time_ns.sec 3.5, Packet.make ~key ~seq:1449 ~ecn:Packet.Ce ~payload:9000 ());
  ]

let check_frames frames packets ~expect_iface =
  check_int "frame count" (List.length packets) (List.length frames);
  List.iter2
    (fun (iface, now, (pkt : Packet.t)) (f : Pcap.frame) ->
      check_int "timestamp survives" now f.Pcap.ts;
      check_bool "iface label" true
        (f.Pcap.iface = if expect_iface then Some iface else None);
      check_int "orig_len = headers + payload"
        (String.length f.Pcap.data + pkt.Packet.payload)
        f.Pcap.orig_len;
      match Packet.of_wire f.Pcap.data with
      | Error e -> Alcotest.fail e
      | Ok q ->
        check_int "captured payload" pkt.Packet.payload q.Packet.payload;
        check_string "captured frame re-serializes" f.Pcap.data (Packet.to_wire q))
    packets frames

let test_pcap_classic () =
  let packets = sample_packets () in
  let bytes, count = write_capture Pcap.Pcap packets in
  check_int "writer frame counter" (List.length packets) count;
  match Pcap.read bytes with
  | Error e -> Alcotest.fail e
  | Ok frames -> check_frames frames packets ~expect_iface:false

let test_pcapng () =
  let packets = sample_packets () in
  let bytes, _ = write_capture Pcap.Pcapng packets in
  match Pcap.read bytes with
  | Error e -> Alcotest.fail e
  | Ok frames ->
    check_frames frames packets ~expect_iface:true;
    (* Two taps -> two interface blocks, reused on the second tor0:1 hit. *)
    check_int "distinct interfaces" 2
      (List.length
         (List.sort_uniq compare (List.filter_map (fun f -> f.Pcap.iface) frames)))

let test_read_rejects_garbage () =
  List.iter
    (fun s -> check_bool "rejected" true (Result.is_error (Pcap.read s)))
    [ ""; "xx"; String.make 64 '\000'; "\x4d\x3c\xb2\xa1" (* truncated header *) ]

(* A hand-built pcapng: section header, one interface block whose
   if_tsresol option is [tsresol], one 4-byte packet at tick 5. *)
let pcapng_with_tsresol tsresol =
  let block btype body =
    let b = Buffer.create 64 in
    let total = 12 + String.length body in
    Buffer.add_int32_le b (Int32.of_int btype);
    Buffer.add_int32_le b (Int32.of_int total);
    Buffer.add_string b body;
    Buffer.add_int32_le b (Int32.of_int total);
    Buffer.contents b
  in
  let body f =
    let b = Buffer.create 32 in
    f b;
    Buffer.contents b
  in
  let shb =
    body (fun b ->
        Buffer.add_int32_le b 0x1A2B3C4Dl;
        Buffer.add_uint16_le b 1;
        Buffer.add_uint16_le b 0;
        Buffer.add_int64_le b (-1L))
  in
  let idb =
    body (fun b ->
        Buffer.add_uint16_le b 1 (* Ethernet *);
        Buffer.add_uint16_le b 0;
        Buffer.add_int32_le b 65535l;
        Buffer.add_uint16_le b 9 (* if_tsresol *);
        Buffer.add_uint16_le b 1;
        Buffer.add_uint8 b tsresol;
        Buffer.add_string b "\000\000\000";
        Buffer.add_int32_le b 0l (* opt_endofopt *))
  in
  let epb =
    body (fun b ->
        List.iter (Buffer.add_int32_le b) [ 0l; 0l; 5l; 4l; 4l ];
        Buffer.add_string b "abcd")
  in
  block 0x0A0D0D0A shb ^ block 1 idb ^ block 6 epb

let test_read_rejects_tsresol () =
  (* 10^6 ticks per second: tick 5 is 5000 ns. *)
  (match Pcap.read (pcapng_with_tsresol 6) with
  | Ok [ f ] -> check_int "microsecond ticks" 5000 f.Pcap.ts
  | Ok _ -> Alcotest.fail "expected one frame"
  | Error e -> Alcotest.fail e);
  (* A resolution whose tick-to-ns divisor does not fit an int (at 72 it
     wraps to 0) is an error, not an exception. *)
  List.iter
    (fun r ->
      check_bool
        (Printf.sprintf "tsresol %d rejected" r)
        true
        (Result.is_error (Pcap.read (pcapng_with_tsresol r))))
    [ 28; 72; 127 ]

(* ------------------------------------------------------------------ *)
(* End-to-end: a seeded AC/DC run captures a byte-identical, fully
   re-readable pcap through the ambient taps.                          *)

let capture_of_run format =
  Packet.reset_ids ();
  let buf = Buffer.create 65536 in
  let sink = Pcap.create ~format ~write:(Buffer.add_string buf) in
  Obs.Runtime.with_run { Obs.Runtime.off with pcap = Sink sink } @@ fun () ->
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let engine = Engine.create () in
  let net =
    Fabric.Topology.dumbbell engine ~params
      ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~pairs:2 ()
  in
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  List.iter
    (fun i ->
      Fabric.Conn.send_forever
        (Fabric.Conn.establish
           ~src:(Fabric.Topology.host net i)
           ~dst:(Fabric.Topology.host net (2 + i))
           ~config ()))
    [ 0; 1 ];
  Engine.run ~until:(Time_ns.ms 5) engine;
  Fabric.Topology.shutdown net;
  (Buffer.contents buf, Pcap.frames sink)

let test_run_capture_deterministic () =
  let a, count_a = capture_of_run Pcap.Pcap in
  let b, count_b = capture_of_run Pcap.Pcap in
  check_bool "capture non-empty" true (count_a > 0);
  check_int "same frame count" count_a count_b;
  check_string "byte-identical across runs" (Digest.to_hex (Digest.string a))
    (Digest.to_hex (Digest.string b))

let test_run_capture_roundtrips () =
  let bytes, count = capture_of_run Pcap.Pcapng in
  match Pcap.read bytes with
  | Error e -> Alcotest.fail e
  | Ok frames ->
    check_int "reader sees every frame" count (List.length frames);
    List.iter
      (fun (f : Pcap.frame) ->
        (match f.Pcap.iface with
        | Some _ -> ()
        | None -> Alcotest.fail "pcapng frame without interface");
        match Packet.of_wire f.Pcap.data with
        | Error e -> Alcotest.fail e
        | Ok q ->
          check_string "frame re-serializes byte-identically" f.Pcap.data (Packet.to_wire q);
          check_int "orig_len consistent"
            (String.length f.Pcap.data + q.Packet.payload)
            f.Pcap.orig_len)
      frames;
    (* The run crosses NIC queues, switch ports and both VM edges. *)
    let ifaces = List.sort_uniq compare (List.filter_map (fun f -> f.Pcap.iface) frames) in
    check_bool "several distinct taps" true (List.length ifaces >= 4);
    check_bool "vm edge tap present" true
      (List.exists (fun n -> Filename.check_suffix n ".vm") ifaces)

(* ------------------------------------------------------------------ *)
(* Decoder robustness: a mutated capture (bit flips, truncation,
   trailing junk) reads as [Ok] or [Error], never an exception.         *)

let prop_read_total format =
  let valid = lazy (fst (write_capture format (sample_packets ()))) in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "mutated %s captures read as Ok or Error"
         (match format with Pcap.Pcap -> "pcap" | Pcap.Pcapng -> "pcapng"))
    ~count:1000 Mutation.arbitrary
    (fun mutations ->
      match Pcap.read (Mutation.apply_all (Lazy.force valid) mutations) with
      | Ok _ | Error _ -> true)

let () =
  Alcotest.run "pcap"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip matrix" `Quick test_wire_roundtrip;
          Alcotest.test_case "error handling" `Quick test_wire_errors;
        ] );
      ( "files",
        [
          Alcotest.test_case "classic pcap" `Quick test_pcap_classic;
          Alcotest.test_case "pcapng interfaces" `Quick test_pcapng;
          Alcotest.test_case "garbage rejected" `Quick test_read_rejects_garbage;
          Alcotest.test_case "out-of-range tsresol rejected" `Quick test_read_rejects_tsresol;
        ] );
      ( "run",
        [
          Alcotest.test_case "deterministic capture" `Quick test_run_capture_deterministic;
          Alcotest.test_case "captured frames roundtrip" `Quick test_run_capture_roundtrips;
        ] );
      ( "decoders",
        List.map QCheck_alcotest.to_alcotest
          [ prop_read_total Pcap.Pcap; prop_read_total Pcap.Pcapng ] );
    ]
