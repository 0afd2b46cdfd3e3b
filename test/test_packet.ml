module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let key = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:1000 ~dst_port:80

(* ------------------------------------------------------------------ *)
(* Flow keys                                                           *)

let test_key_reverse () =
  let r = Flow_key.reverse key in
  check_int "src_ip" 2 r.Flow_key.src_ip;
  check_int "dst_ip" 1 r.Flow_key.dst_ip;
  check_int "src_port" 80 r.Flow_key.src_port;
  check_int "dst_port" 1000 r.Flow_key.dst_port;
  check_bool "double reverse" true (Flow_key.equal key (Flow_key.reverse r))

let test_key_equal_hash () =
  let same = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:1000 ~dst_port:80 in
  check_bool "equal" true (Flow_key.equal key same);
  check_int "hash equal" (Flow_key.hash key) (Flow_key.hash same);
  let other = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:1001 ~dst_port:80 in
  check_bool "not equal" false (Flow_key.equal key other)

let test_key_table () =
  let table = Flow_key.Table.create 4 in
  Flow_key.Table.replace table key "a";
  Flow_key.Table.replace table (Flow_key.reverse key) "b";
  Alcotest.(check (option string)) "forward" (Some "a") (Flow_key.Table.find_opt table key);
  Alcotest.(check (option string))
    "reverse distinct" (Some "b")
    (Flow_key.Table.find_opt table (Flow_key.reverse key))

let key_gen =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) -> Flow_key.make ~src_ip:a ~dst_ip:b ~src_port:c ~dst_port:d)
      (quad (int_bound 1000) (int_bound 1000) (int_bound 65535) (int_bound 65535)))

let arbitrary_key = QCheck.make key_gen

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse is an involution" ~count:300 arbitrary_key (fun k ->
      Flow_key.equal k (Flow_key.reverse (Flow_key.reverse k)))

let prop_compare_consistent_with_equal =
  QCheck.Test.make ~name:"compare = 0 iff equal" ~count:300
    (QCheck.pair arbitrary_key arbitrary_key)
    (fun (a, b) -> Flow_key.equal a b = (Flow_key.compare a b = 0))

(* Wire round-trip: random flag/option/INT-depth combinations must
   serialize and re-parse byte-exactly — the invariant behind pcap
   captures and `trace_query validate`.  Hops are pushed through
   [add_int_hop] so the 40-byte option-space cap (and the exceeded flag
   it sets) is exercised, not bypassed. *)
let hop_gen =
  QCheck.Gen.(
    map
      (fun ((hop_id, port, ingress), (sojourn, qbytes, svc_units)) pkt ->
        Packet.add_int_hop pkt ~hop_id ~port ~ingress_ns:ingress ~egress_ns:(ingress + sojourn)
          ~qbytes ~svc_bps:(svc_units * 10_000_000))
      (pair
         (triple (int_bound 300) (int_bound 300) (int_bound 1_000_000_000))
         (triple (int_bound 500_000_000) (int_bound 1_000_000) (int_bound 10_000))))

let wire_packet_gen =
  QCheck.Gen.(
    map
      (fun (((key, flags), (ecn_i, rwnd)), ((opts, sack_n), (payload, hops))) ->
        let bit n = flags land n <> 0 in
        let ecn = [| Packet.Not_ect; Packet.Ect0; Packet.Ect1; Packet.Ce |].(ecn_i) in
        let options =
          (if opts land 1 <> 0 then [ Packet.Mss 1460 ] else [])
          @ (if opts land 2 <> 0 then [ Packet.Window_scale 7 ] else [])
          @ (if opts land 4 <> 0 then
               [ Packet.Pack { total_bytes = 123_456; marked_bytes = 2_345 } ]
             else [])
          @
          if opts land 8 <> 0 then
            [ Packet.Sack (List.init (sack_n + 1) (fun i -> (i * 2000, (i * 2000) + 1000))) ]
          else []
        in
        let pkt =
          Packet.make ~key ~seq:17 ~ack:23 ~syn:(bit 1) ~fin:(bit 2) ~rst:(bit 4)
            ~has_ack:(bit 8) ~ecn ~rwnd_field:rwnd ~options ~payload ()
        in
        pkt.Packet.ece <- bit 16;
        pkt.Packet.cwr <- bit 32;
        pkt.Packet.vm_ect <- bit 64;
        List.iter (fun push -> push pkt) hops;
        if bit 128 then pkt.Packet.int_exceeded <- true;
        pkt)
      (pair
         (pair (pair key_gen (int_bound 255)) (pair (int_bound 3) (int_bound 65535)))
         (pair
            (pair (int_bound 15) (int_bound 1))
            (pair (int_bound 9000) (list_size (int_bound 5) hop_gen)))))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"to_wire/of_wire round-trips byte-exactly" ~count:500
    (QCheck.make wire_packet_gen) (fun pkt ->
      let w = Packet.to_wire pkt in
      match Packet.of_wire w with
      | Error e -> QCheck.Test.fail_reportf "of_wire failed: %s" e
      | Ok pkt' ->
        String.equal (Packet.to_wire pkt') w
        && Dcpkt.Int_meta.depth pkt'.Packet.int_stack = Dcpkt.Int_meta.depth pkt.Packet.int_stack
        && pkt'.Packet.int_exceeded = pkt.Packet.int_exceeded
        && pkt'.Packet.payload = pkt.Packet.payload)

(* ------------------------------------------------------------------ *)
(* Packets                                                             *)

let test_wire_size () =
  let pkt = Packet.make ~key ~payload:1000 () in
  check_int "base header" 54 (Packet.header_bytes pkt);
  check_int "wire size" 1054 (Packet.wire_size pkt);
  let with_opts =
    Packet.make ~key ~options:[ Packet.Mss 1460; Packet.Window_scale 9 ] ~payload:0 ()
  in
  check_int "options add bytes" (54 + 4 + 3) (Packet.header_bytes with_opts);
  let with_pack =
    Packet.make ~key ~options:[ Packet.Pack { total_bytes = 1; marked_bytes = 0 } ] ~payload:0 ()
  in
  check_int "pack is 8 bytes" (54 + 8) (Packet.header_bytes with_pack);
  let with_sack = Packet.make ~key ~options:[ Packet.Sack [ (1, 2); (5, 9) ] ] ~payload:0 () in
  check_int "sack 2 blocks" (54 + 2 + 16) (Packet.header_bytes with_sack)

let test_seq_end () =
  check_int "payload" 1100 (Packet.seq_end (Packet.make ~key ~seq:100 ~payload:1000 ()));
  check_int "syn consumes one" 1 (Packet.seq_end (Packet.make ~key ~seq:0 ~syn:true ~payload:0 ()));
  check_int "fin consumes one" 6
    (Packet.seq_end (Packet.make ~key ~seq:5 ~fin:true ~payload:0 ()))

let test_ecn_predicates () =
  check_bool "not_ect" false (Packet.is_ect (Packet.make ~key ~payload:0 ()));
  check_bool "ect0" true (Packet.is_ect (Packet.make ~key ~ecn:Packet.Ect0 ~payload:0 ()));
  check_bool "ce" true (Packet.is_ect (Packet.make ~key ~ecn:Packet.Ce ~payload:0 ()))

let test_option_accessors () =
  let pkt = Packet.make ~key ~options:[ Packet.Window_scale 7 ] ~payload:0 () in
  Alcotest.(check (option int)) "wscale" (Some 7) (Packet.wscale pkt);
  Alcotest.(check (option (pair int int))) "no pack" None (Packet.pack_info pkt);
  Packet.set_option pkt (Packet.Pack { total_bytes = 100; marked_bytes = 40 });
  Alcotest.(check (option (pair int int))) "pack" (Some (100, 40)) (Packet.pack_info pkt);
  check_int "pack_total" 100 (Packet.pack_total pkt);
  check_int "pack_marked" 40 (Packet.pack_marked pkt);
  (* set_option replaces same-constructor options rather than stacking. *)
  Packet.set_option pkt (Packet.Pack { total_bytes = 200; marked_bytes = 50 });
  Alcotest.(check (option (pair int int))) "pack replaced" (Some (200, 50)) (Packet.pack_info pkt);
  check_int "still one pack + one wscale" 2 (List.length pkt.Packet.options);
  Packet.remove_pack pkt;
  Alcotest.(check (option (pair int int))) "pack removed" None (Packet.pack_info pkt);
  check_int "pack_total without PACK" (-1) (Packet.pack_total pkt);
  check_int "pack_marked without PACK" (-1) (Packet.pack_marked pkt);
  Alcotest.(check (option int)) "wscale survives" (Some 7) (Packet.wscale pkt)

let test_sack_accessor () =
  let pkt = Packet.make ~key ~payload:0 () in
  Alcotest.(check (list (pair int int))) "no sack" [] (Packet.sack_blocks pkt);
  Packet.set_option pkt (Packet.Sack [ (10, 20) ]);
  Alcotest.(check (list (pair int int))) "sack" [ (10, 20) ] (Packet.sack_blocks pkt)

(* The serializing queue completes the open INT hop in place, so a wire
   duplicate must own its open hop: completing one frame's hop leaves the
   other's open. *)
let test_copy_owns_open_hop () =
  let hop pkt ~hop_id =
    Packet.add_int_hop pkt ~hop_id ~port:0 ~ingress_ns:10 ~egress_ns:0 ~qbytes:0 ~svc_bps:0
  in
  let pkt = Packet.make ~key ~payload:100 () in
  hop pkt ~hop_id:1;
  Packet.complete_int_hop pkt ~egress_ns:20;
  hop pkt ~hop_id:2;
  let dup = Packet.copy pkt in
  Packet.complete_int_hop dup ~egress_ns:50;
  let egress p =
    let s = p.Packet.int_stack in
    Array.init (Dcpkt.Int_meta.depth s) (Dcpkt.Int_meta.egress_ns s)
  in
  Alcotest.(check (array int)) "original's hop still open" [| 20; 0 |] (egress pkt);
  Alcotest.(check (array int)) "duplicate's hop completed" [| 20; 50 |] (egress dup);
  Packet.complete_int_hop pkt ~egress_ns:70;
  Alcotest.(check (array int)) "and completes on its own" [| 20; 70 |] (egress pkt);
  Alcotest.(check (array int)) "without touching the duplicate" [| 20; 50 |] (egress dup)

(* A stamped packet's life on a warmed free list — two switches stamp and
   complete, the strip point reads the stack and releases it — allocates
   nothing. *)
let test_int_cycle_allocates_nothing () =
  let pkt = Packet.make ~key ~payload:1000 () in
  let read = ref 0 in
  let cycle now =
    for hop_id = 1 to 2 do
      Packet.add_int_hop pkt ~hop_id ~port:3 ~ingress_ns:now ~egress_ns:0 ~qbytes:1500
        ~svc_bps:10_000_000_000;
      Packet.complete_int_hop pkt ~egress_ns:(now + 700)
    done;
    let s = pkt.Packet.int_stack in
    for i = 0 to Dcpkt.Int_meta.depth s - 1 do
      read := !read + Dcpkt.Int_meta.sojourn_ns s i + Dcpkt.Int_meta.hop_key s i
    done;
    Packet.release_int pkt
  in
  for now = 1 to 1000 do
    cycle now
  done;
  let n = 100_000 in
  let words0 = Gc.minor_words () in
  for now = 1 to n do
    cycle now
  done;
  let per_op = (Gc.minor_words () -. words0) /. float_of_int n in
  check_bool (Printf.sprintf "%.2f minor words per cycle" per_op) true (per_op < 0.005);
  check_bool "released" true (pkt.Packet.int_stack == Dcpkt.Int_meta.empty);
  check_bool "stacks were read" true (!read > 0)

let test_ids_unique () =
  Packet.reset_ids ();
  let a = Packet.make ~key ~payload:0 () in
  let b = Packet.make ~key ~payload:0 () in
  check_bool "distinct ids" true (a.Packet.id <> b.Packet.id)

(* Decoder robustness: a mutated frame (bit flips, truncation, trailing
   junk) decodes to [Ok] or [Error], never an exception. *)
let prop_of_wire_total =
  QCheck.Test.make ~name:"mutated frames decode to Ok or Error" ~count:2000
    QCheck.(pair (make wire_packet_gen) Mutation.arbitrary)
    (fun (pkt, mutations) ->
      match Packet.of_wire (Mutation.apply_all (Packet.to_wire pkt) mutations) with
      | Ok _ | Error _ -> true)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reverse_involution;
      prop_compare_consistent_with_equal;
      prop_wire_roundtrip;
      prop_of_wire_total;
    ]

let () =
  Alcotest.run "packet"
    [
      ( "flow_key",
        [
          Alcotest.test_case "reverse" `Quick test_key_reverse;
          Alcotest.test_case "equal/hash" `Quick test_key_equal_hash;
          Alcotest.test_case "table" `Quick test_key_table;
        ] );
      ( "packet",
        [
          Alcotest.test_case "wire size" `Quick test_wire_size;
          Alcotest.test_case "seq_end" `Quick test_seq_end;
          Alcotest.test_case "ecn predicates" `Quick test_ecn_predicates;
          Alcotest.test_case "option accessors" `Quick test_option_accessors;
          Alcotest.test_case "sack accessor" `Quick test_sack_accessor;
          Alcotest.test_case "unique ids" `Quick test_ids_unique;
          Alcotest.test_case "copy owns its open INT hop" `Quick test_copy_owns_open_hop;
          Alcotest.test_case "INT stack cycle allocates nothing" `Quick
            test_int_cycle_allocates_nothing;
        ] );
      ("properties", qtests);
    ]
