module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key
module Packet = Dcpkt.Packet

type drop_reason = No_route | Buffer_full | Over_threshold | Wred | No_endpoint

type impair_action =
  | Imp_lost
  | Imp_corrupted
  | Imp_duplicated of { copy : int }
  | Imp_pack_stripped
  | Imp_reordered

type event =
  | Created of { node : string; pkt : int; flow : Flow_key.t; size : int; kind : string }
  | Enqueue of { node : string; port : int; pkt : int; size : int; qbytes : int }
  | Dequeue of { node : string; port : int; pkt : int; size : int; qbytes : int }
  | Drop of { node : string; port : int; pkt : int; size : int; reason : drop_reason }
  | Ce_mark of { node : string; port : int; pkt : int; qbytes : int }
  | Impaired of { link : string; pkt : int; action : impair_action }
  | Vswitch_drop of { node : string; pkt : int; egress : bool }
  | Delivered of { node : string; pkt : int }
  | Pack_attach of { flow : Flow_key.t; pkt : int; total : int; marked : int }
  | Rwnd_rewrite of { flow : Flow_key.t; pkt : int; window : int; field : int }
  | Alpha_update of { flow : Flow_key.t; alpha : float; fraction : float }
  | Policer_drop of { flow : Flow_key.t; pkt : int; seq : int; window : int }
  | Dupack of { flow : Flow_key.t; ack : int; count : int }
  | Rto_fire of { flow : Flow_key.t; inferred : bool; count : int }
  | Int_hop of {
      flow : Flow_key.t;
      pkt : int;
      depth : int;
      hop : string;
      port : int;
      ingress : int;
      egress : int;
      qbytes : int;
      svc_bps : int;
    }
  | Int_strip of { node : string; flow : Flow_key.t; pkt : int; hops : int; exceeded : bool }
  | Attrib_transition of {
      flow : Flow_key.t;
      from_state : string;
      to_state : string;
      spent : int;
    }

(* ------------------------------------------------------------------ *)
(* Interned names and flows                                            *)

(* Append-only and process-wide: a ring stores ids, and an id decodes to
   the same string for the life of the process, whatever was reset
   since.  Ids are packed 25 bits wide into a slot's header word. *)
type name = int

let max_ids = 1 lsl 25

type 'a table = { mutable items : 'a array; mutable count : int }

let add_item table x =
  let id = table.count in
  if id >= max_ids then failwith "Trace: intern table full";
  if id = Array.length table.items then begin
    let grown = Array.make (2 * id) x in
    Array.blit table.items 0 grown 0 id;
    table.items <- grown
  end;
  table.items.(id) <- x;
  table.count <- id + 1;
  id

let names = { items = Array.make 64 ""; count = 0 }
let name_ids : (string, name) Hashtbl.t = Hashtbl.create 64

let intern s =
  match Hashtbl.find name_ids s with
  | id -> id
  | exception Not_found ->
    let id = add_item names s in
    Hashtbl.add name_ids s id;
    id

let label id = names.items.(id)

let no_flow = Flow_key.make ~src_ip:0 ~dst_ip:0 ~src_port:0 ~dst_port:0
let flows = { items = Array.make 64 no_flow; count = 0 }
let flow_ids : int Flow_key.Table.t = Flow_key.Table.create 64

(* A packet's events arrive in runs (its INT hops and strip, a segment's
   creation and enqueue, ...) under one long-lived key, so the last key
   looked up, compared physically, skips most of the hashing. *)
let last_flow = ref no_flow
let last_flow_id = ref 0

let flow_id key =
  if key == !last_flow then !last_flow_id
  else begin
    let id =
      match Flow_key.Table.find flow_ids key with
      | id -> id
      | exception Not_found ->
        let id = add_item flows key in
        Flow_key.Table.add flow_ids key id;
        id
    in
    last_flow := key;
    last_flow_id := id;
    id
  end

(* ------------------------------------------------------------------ *)
(* The binary ring                                                      *)

(* A flight recorder of fixed 8-int (64-byte) slots in one int array, so
   recording stores no pointer and allocates nothing.  Slot layout:
   [time; header; p0 .. p5], the header packing the kind tag (5 bits), a
   small field [c] (8 bits) and two ids [a] and [b] (25 bits each); the
   [w_*] encoders below give each kind's use of them. *)
let width = 8

type ring = { buf : int array; capacity : int; mutable next : int; mutable total : int }

type t =
  | Null
  | Ring of ring
  | Write of (string -> unit)
  | Tee of t * t
  | Filter of (Time_ns.t -> event -> bool) * t

let null = Null

let tee a b = match (a, b) with Null, t | t, Null -> t | a, b -> Tee (a, b)

let ring ?(capacity = 1024) () =
  assert (capacity > 0);
  Ring { buf = Array.make (capacity * width) 0; capacity; next = 0; total = 0 }

let jsonl ~write = Write write

let jsonl_channel oc =
  Write
    (fun line ->
      output_string oc line;
      output_char oc '\n')

let filter ~keep = function Null -> Null | t -> Filter (keep, t)

let enabled = function Null -> false | Ring _ | Write _ | Tee _ | Filter _ -> true

let reason_label = function
  | No_route -> "no_route"
  | Buffer_full -> "buffer_full"
  | Over_threshold -> "over_threshold"
  | Wred -> "wred"
  | No_endpoint -> "no_endpoint"

let reason_of_label = function
  | "no_route" -> Some No_route
  | "buffer_full" -> Some Buffer_full
  | "over_threshold" -> Some Over_threshold
  | "wred" -> Some Wred
  | "no_endpoint" -> Some No_endpoint
  | _ -> None

let action_label = function
  | Imp_lost -> "lost"
  | Imp_corrupted -> "corrupted"
  | Imp_duplicated _ -> "duplicated"
  | Imp_pack_stripped -> "pack_stripped"
  | Imp_reordered -> "reordered"

let flow_label (k : Flow_key.t) =
  Printf.sprintf "%d:%d>%d:%d" k.src_ip k.src_port k.dst_ip k.dst_port

(* Inverse of [flow_label]; also accepts the order-insensitive CLI
   spelling "a:p-b:q" used by [trace_query explain --flow] and
   [--trace-filter]. *)
let flow_of_spec spec =
  let split2 c s =
    match String.index_opt s c with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  let endpoint s =
    match split2 ':' s with
    | Some (ip, port) -> (
      match (int_of_string_opt (String.trim ip), int_of_string_opt (String.trim port)) with
      | Some ip, Some port when ip >= 0 && port >= 0 -> Some (ip, port)
      | _ -> None)
    | None -> None
  in
  let pair sep =
    match split2 sep spec with
    | Some (a, b) -> (
      match (endpoint a, endpoint b) with
      | Some (src_ip, src_port), Some (dst_ip, dst_port) ->
        Some (Flow_key.make ~src_ip ~dst_ip ~src_port ~dst_port)
      | _ -> None)
    | None -> None
  in
  match pair '>' with
  | Some key -> Ok key
  | None -> (
    match pair '-' with
    | Some key -> Ok key
    | None ->
      Error
        (Printf.sprintf "bad flow %S (expected SRC_IP:SRC_PORT-DST_IP:DST_PORT)" spec))

(* The "ev" field of the JSON encoding; also the vocabulary of
   [kind=...] trace filters. *)
let kind_of_event = function
  | Created _ -> "created"
  | Enqueue _ -> "enqueue"
  | Dequeue _ -> "dequeue"
  | Drop _ -> "drop"
  | Ce_mark _ -> "ce_mark"
  | Impaired _ -> "impaired"
  | Vswitch_drop _ -> "vswitch_drop"
  | Delivered _ -> "delivered"
  | Pack_attach _ -> "pack_attach"
  | Rwnd_rewrite _ -> "rwnd_rewrite"
  | Alpha_update _ -> "alpha_update"
  | Policer_drop _ -> "policer_drop"
  | Dupack _ -> "dupack"
  | Rto_fire _ -> "rto"
  | Int_hop _ -> "int_hop"
  | Int_strip _ -> "int_strip"
  | Attrib_transition _ -> "attrib"

let flow_of_event = function
  | Created { flow; _ }
  | Pack_attach { flow; _ }
  | Rwnd_rewrite { flow; _ }
  | Alpha_update { flow; _ }
  | Policer_drop { flow; _ }
  | Dupack { flow; _ }
  | Rto_fire { flow; _ }
  | Int_hop { flow; _ }
  | Int_strip { flow; _ }
  | Attrib_transition { flow; _ } -> Some flow
  | Enqueue _ | Dequeue _ | Drop _ | Ce_mark _ | Impaired _ | Vswitch_drop _ | Delivered _ ->
    None

let pkt_of_event = function
  | Created { pkt; _ }
  | Enqueue { pkt; _ }
  | Dequeue { pkt; _ }
  | Drop { pkt; _ }
  | Ce_mark { pkt; _ }
  | Impaired { pkt; _ }
  | Vswitch_drop { pkt; _ }
  | Delivered { pkt; _ }
  | Pack_attach { pkt; _ }
  | Rwnd_rewrite { pkt; _ }
  | Policer_drop { pkt; _ }
  | Int_hop { pkt; _ }
  | Int_strip { pkt; _ } -> Some pkt
  | Alpha_update _ | Dupack _ | Rto_fire _ | Attrib_transition _ -> None

let k_syn_ack = intern "syn_ack"
let k_syn = intern "syn"
let k_rst = intern "rst"
let k_fin = intern "fin"
let k_data = intern "data"
let k_fack = intern "fack"
let k_ack = intern "ack"

let pkt_kind (p : Packet.t) =
  if p.syn && p.has_ack then k_syn_ack
  else if p.syn then k_syn
  else if p.rst then k_rst
  else if p.fin then k_fin
  else if p.payload > 0 then k_data
  else if (not p.has_ack) && Packet.pack_total p >= 0 then k_fack
  else k_ack

let host_nodes : (int, name) Hashtbl.t = Hashtbl.create 64

let host_node ip =
  match Hashtbl.find host_nodes ip with
  | name -> name
  | exception Not_found ->
    let name = intern (Printf.sprintf "host%d" ip) in
    Hashtbl.add host_nodes ip name;
    name

(* Keyed by [Int_meta] id, validated by the physical identity of the
   registered name string: [Int_meta.reset] and re-registration change
   the string, so a stale slot is re-interned, never misreported. *)
let hop_strings = Array.make 256 ""
let hop_names = Array.make 256 0

let hop_name id =
  let s = Dcpkt.Int_meta.name id in
  let i = id land 0xFF in
  if hop_strings.(i) == s then hop_names.(i)
  else begin
    let n = intern s in
    hop_strings.(i) <- s;
    hop_names.(i) <- n;
    n
  end

let event_to_json ~now event =
  let base kind rest = Json.Obj (("t", Json.Int now) :: ("ev", Json.String kind) :: rest) in
  let base' rest = base (kind_of_event event) rest in
  let queue_fields node port pkt size qbytes =
    [
      ("node", Json.String node);
      ("port", Json.Int port);
      ("pkt", Json.Int pkt);
      ("size", Json.Int size);
      ("qbytes", Json.Int qbytes);
    ]
  in
  match event with
  | Created { node; pkt; flow; size; kind } ->
    base'
      [
        ("node", Json.String node);
        ("pkt", Json.Int pkt);
        ("flow", Json.String (flow_label flow));
        ("size", Json.Int size);
        ("kind", Json.String kind);
      ]
  | Enqueue { node; port; pkt; size; qbytes } -> base' (queue_fields node port pkt size qbytes)
  | Dequeue { node; port; pkt; size; qbytes } -> base' (queue_fields node port pkt size qbytes)
  | Drop { node; port; pkt; size; reason } ->
    base'
      [
        ("node", Json.String node);
        ("port", Json.Int port);
        ("pkt", Json.Int pkt);
        ("size", Json.Int size);
        ("reason", Json.String (reason_label reason));
      ]
  | Ce_mark { node; port; pkt; qbytes } ->
    base'
      [
        ("node", Json.String node);
        ("port", Json.Int port);
        ("pkt", Json.Int pkt);
        ("qbytes", Json.Int qbytes);
      ]
  | Impaired { link; pkt; action } ->
    base'
      (("link", Json.String link)
      :: ("pkt", Json.Int pkt)
      :: ("action", Json.String (action_label action))
      ::
      (match action with
      | Imp_duplicated { copy } -> [ ("copy", Json.Int copy) ]
      | Imp_lost | Imp_corrupted | Imp_pack_stripped | Imp_reordered -> []))
  | Vswitch_drop { node; pkt; egress } ->
    base'
      [
        ("node", Json.String node);
        ("pkt", Json.Int pkt);
        ("dir", Json.String (if egress then "egress" else "ingress"));
      ]
  | Delivered { node; pkt } -> base' [ ("node", Json.String node); ("pkt", Json.Int pkt) ]
  | Pack_attach { flow; pkt; total; marked } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("pkt", Json.Int pkt);
        ("total", Json.Int total);
        ("marked", Json.Int marked);
      ]
  | Rwnd_rewrite { flow; pkt; window; field } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("pkt", Json.Int pkt);
        ("window", Json.Int window);
        ("field", Json.Int field);
      ]
  | Alpha_update { flow; alpha; fraction } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("alpha", Json.Float alpha);
        ("fraction", Json.Float fraction);
      ]
  | Policer_drop { flow; pkt; seq; window } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("pkt", Json.Int pkt);
        ("seq", Json.Int seq);
        ("window", Json.Int window);
      ]
  | Dupack { flow; ack; count } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("ack", Json.Int ack);
        ("count", Json.Int count);
      ]
  | Rto_fire { flow; inferred; count } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("inferred", Json.Bool inferred);
        ("count", Json.Int count);
      ]
  | Int_hop { flow; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("pkt", Json.Int pkt);
        ("depth", Json.Int depth);
        ("hop", Json.String hop);
        ("port", Json.Int port);
        ("ingress", Json.Int ingress);
        ("egress", Json.Int egress);
        ("qbytes", Json.Int qbytes);
        ("svc_bps", Json.Int svc_bps);
      ]
  | Int_strip { node; flow; pkt; hops; exceeded } ->
    base'
      [
        ("node", Json.String node);
        ("flow", Json.String (flow_label flow));
        ("pkt", Json.Int pkt);
        ("hops", Json.Int hops);
        ("exceeded", Json.Bool exceeded);
      ]
  | Attrib_transition { flow; from_state; to_state; spent } ->
    base'
      [
        ("flow", Json.String (flow_label flow));
        ("from", Json.String from_state);
        ("to", Json.String to_state);
        ("spent", Json.Int spent);
      ]

(* ------------------------------------------------------------------ *)
(* JSON decoding (the inverse of [event_to_json], for trace_query)     *)

let event_of_json json =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let int name =
    let* v = field name in
    match v with Json.Int i -> Ok i | _ -> Error (Printf.sprintf "field %S: not an int" name)
  in
  let str name =
    let* v = field name in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "field %S: not a string" name)
  in
  let num name =
    let* v = field name in
    match v with
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "field %S: not a number" name)
  in
  let bool name =
    let* v = field name in
    match v with
    | Json.Bool b -> Ok b
    | _ -> Error (Printf.sprintf "field %S: not a bool" name)
  in
  let flow name =
    let* s = str name in
    flow_of_spec s
  in
  let* now = int "t" in
  let* ev = str "ev" in
  let* event =
    match ev with
    | "created" ->
      let* node = str "node" in
      let* pkt = int "pkt" in
      let* flow = flow "flow" in
      let* size = int "size" in
      let* kind = str "kind" in
      Ok (Created { node; pkt; flow; size; kind })
    | "enqueue" | "dequeue" ->
      let* node = str "node" in
      let* port = int "port" in
      let* pkt = int "pkt" in
      let* size = int "size" in
      let* qbytes = int "qbytes" in
      Ok
        (if ev = "enqueue" then Enqueue { node; port; pkt; size; qbytes }
         else Dequeue { node; port; pkt; size; qbytes })
    | "drop" ->
      let* node = str "node" in
      let* port = int "port" in
      let* pkt = int "pkt" in
      let* size = int "size" in
      let* label = str "reason" in
      let* reason =
        match reason_of_label label with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "unknown drop reason %S" label)
      in
      Ok (Drop { node; port; pkt; size; reason })
    | "ce_mark" ->
      let* node = str "node" in
      let* port = int "port" in
      let* pkt = int "pkt" in
      let* qbytes = int "qbytes" in
      Ok (Ce_mark { node; port; pkt; qbytes })
    | "impaired" ->
      let* link = str "link" in
      let* pkt = int "pkt" in
      let* label = str "action" in
      let* action =
        match label with
        | "lost" -> Ok Imp_lost
        | "corrupted" -> Ok Imp_corrupted
        | "pack_stripped" -> Ok Imp_pack_stripped
        | "reordered" -> Ok Imp_reordered
        | "duplicated" ->
          let* copy = int "copy" in
          Ok (Imp_duplicated { copy })
        | _ -> Error (Printf.sprintf "unknown impair action %S" label)
      in
      Ok (Impaired { link; pkt; action })
    | "vswitch_drop" ->
      let* node = str "node" in
      let* pkt = int "pkt" in
      let* dir = str "dir" in
      Ok (Vswitch_drop { node; pkt; egress = dir = "egress" })
    | "delivered" ->
      let* node = str "node" in
      let* pkt = int "pkt" in
      Ok (Delivered { node; pkt })
    | "pack_attach" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* total = int "total" in
      let* marked = int "marked" in
      Ok (Pack_attach { flow; pkt; total; marked })
    | "rwnd_rewrite" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* window = int "window" in
      let* field = int "field" in
      Ok (Rwnd_rewrite { flow; pkt; window; field })
    | "alpha_update" ->
      let* flow = flow "flow" in
      let* alpha = num "alpha" in
      let* fraction = num "fraction" in
      Ok (Alpha_update { flow; alpha; fraction })
    | "policer_drop" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* seq = int "seq" in
      let* window = int "window" in
      Ok (Policer_drop { flow; pkt; seq; window })
    | "dupack" ->
      let* flow = flow "flow" in
      let* ack = int "ack" in
      let* count = int "count" in
      Ok (Dupack { flow; ack; count })
    | "rto" ->
      let* flow = flow "flow" in
      let* inferred = bool "inferred" in
      let* count = int "count" in
      Ok (Rto_fire { flow; inferred; count })
    | "int_hop" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* depth = int "depth" in
      let* hop = str "hop" in
      let* port = int "port" in
      let* ingress = int "ingress" in
      let* egress = int "egress" in
      let* qbytes = int "qbytes" in
      let* svc_bps = int "svc_bps" in
      Ok (Int_hop { flow; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps })
    | "int_strip" ->
      let* node = str "node" in
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* hops = int "hops" in
      let* exceeded = bool "exceeded" in
      Ok (Int_strip { node; flow; pkt; hops; exceeded })
    | "attrib" ->
      let* flow = flow "flow" in
      let* from_state = str "from" in
      let* to_state = str "to" in
      let* spent = int "spent" in
      Ok (Attrib_transition { flow; from_state; to_state; spent })
    | _ -> Error (Printf.sprintf "unknown event kind %S" ev)
  in
  Ok (now, event)

(* ------------------------------------------------------------------ *)
(* Recording: one encoder per kind                                     *)

let t_created = 0
let t_enqueue = 1
let t_dequeue = 2
let t_drop = 3
let t_ce_mark = 4
let t_impaired = 5
let t_vswitch_drop = 6
let t_delivered = 7
let t_pack_attach = 8
let t_rwnd_rewrite = 9
let t_alpha_update = 10
let t_policer_drop = 11
let t_dupack = 12
let t_rto_fire = 13
let t_int_hop = 14
let t_int_strip = 15
let t_attrib = 16

let header tag ~c ~a ~b = tag lor ((c land 0xFF) lsl 5) lor (a lsl 13) lor (b lsl 38)

(* [next < capacity], so the slot is in bounds. *)
let[@inline] put r ~now h p0 p1 p2 p3 p4 p5 =
  let buf = r.buf and o = r.next * width in
  Array.unsafe_set buf o now;
  Array.unsafe_set buf (o + 1) h;
  Array.unsafe_set buf (o + 2) p0;
  Array.unsafe_set buf (o + 3) p1;
  Array.unsafe_set buf (o + 4) p2;
  Array.unsafe_set buf (o + 5) p3;
  Array.unsafe_set buf (o + 6) p4;
  Array.unsafe_set buf (o + 7) p5;
  r.next <- (if r.next + 1 = r.capacity then 0 else r.next + 1);
  r.total <- r.total + 1

let reasons = [| No_route; Buffer_full; Over_threshold; Wred; No_endpoint |]

let reason_index = function
  | No_route -> 0
  | Buffer_full -> 1
  | Over_threshold -> 2
  | Wred -> 3
  | No_endpoint -> 4

let action_index = function
  | Imp_lost -> 0
  | Imp_corrupted -> 1
  | Imp_duplicated _ -> 2
  | Imp_pack_stripped -> 3
  | Imp_reordered -> 4

(* A float's 64 bits in two 32-bit halves: an OCaml int holds 63. *)
let hi f = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 32)
let lo f = Int64.to_int (Int64.bits_of_float f) land 0xFFFF_FFFF

let float_of_halves hi lo =
  Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let w_created r ~now ~node ~kind ~pkt ~flow ~size =
  put r ~now (header t_created ~c:0 ~a:node ~b:kind) pkt (flow_id flow) size 0 0 0

let w_queue r ~now tag ~node ~port ~pkt ~size ~qbytes =
  put r ~now (header tag ~c:0 ~a:node ~b:0) pkt port size qbytes 0 0

let w_drop r ~now ~node ~port ~pkt ~size ~reason =
  put r ~now (header t_drop ~c:(reason_index reason) ~a:node ~b:0) pkt port size 0 0 0

let w_ce_mark r ~now ~node ~port ~pkt ~qbytes =
  put r ~now (header t_ce_mark ~c:0 ~a:node ~b:0) pkt port qbytes 0 0 0

let w_impaired r ~now ~link ~pkt ~action =
  let copy =
    match action with
    | Imp_duplicated { copy } -> copy
    | Imp_lost | Imp_corrupted | Imp_pack_stripped | Imp_reordered -> 0
  in
  put r ~now (header t_impaired ~c:(action_index action) ~a:link ~b:0) pkt copy 0 0 0 0

let w_vswitch_drop r ~now ~node ~pkt ~egress =
  put r ~now (header t_vswitch_drop ~c:(Bool.to_int egress) ~a:node ~b:0) pkt 0 0 0 0 0

let w_delivered r ~now ~node ~pkt = put r ~now (header t_delivered ~c:0 ~a:node ~b:0) pkt 0 0 0 0 0

(* The flow-keyed kinds with three int fields. *)
let w_flow3 r ~now tag ~flow x y z = put r ~now (header tag ~c:0 ~a:(flow_id flow) ~b:0) x y z 0 0 0

let w_alpha_update r ~now ~flow ~alpha ~fraction =
  put r ~now
    (header t_alpha_update ~c:0 ~a:(flow_id flow) ~b:0)
    (hi alpha) (lo alpha) (hi fraction) (lo fraction) 0 0

let w_rto_fire r ~now ~flow ~inferred ~count =
  put r ~now (header t_rto_fire ~c:(Bool.to_int inferred) ~a:(flow_id flow) ~b:0) count 0 0 0 0 0

let w_int_hop r ~now ~flow ~pkt ~depth ~hop ~port ~ingress ~egress ~qbytes ~svc_bps =
  put r ~now
    (header t_int_hop ~c:depth ~a:(flow_id flow) ~b:hop)
    pkt port ingress egress qbytes svc_bps

let w_int_strip r ~now ~node ~flow ~pkt ~hops ~exceeded =
  put r ~now
    (header t_int_strip ~c:(Bool.to_int exceeded) ~a:(flow_id flow) ~b:node)
    pkt hops 0 0 0 0

let w_attrib r ~now ~flow ~from_state ~to_state ~spent =
  put r ~now (header t_attrib ~c:0 ~a:(flow_id flow) ~b:from_state) to_state spent 0 0 0 0

(* The generic path: an event value, its strings interned here. *)
let record r ~now = function
  | Created { node; pkt; flow; size; kind } ->
    w_created r ~now ~node:(intern node) ~kind:(intern kind) ~pkt ~flow ~size
  | Enqueue { node; port; pkt; size; qbytes } ->
    w_queue r ~now t_enqueue ~node:(intern node) ~port ~pkt ~size ~qbytes
  | Dequeue { node; port; pkt; size; qbytes } ->
    w_queue r ~now t_dequeue ~node:(intern node) ~port ~pkt ~size ~qbytes
  | Drop { node; port; pkt; size; reason } ->
    w_drop r ~now ~node:(intern node) ~port ~pkt ~size ~reason
  | Ce_mark { node; port; pkt; qbytes } -> w_ce_mark r ~now ~node:(intern node) ~port ~pkt ~qbytes
  | Impaired { link; pkt; action } -> w_impaired r ~now ~link:(intern link) ~pkt ~action
  | Vswitch_drop { node; pkt; egress } -> w_vswitch_drop r ~now ~node:(intern node) ~pkt ~egress
  | Delivered { node; pkt } -> w_delivered r ~now ~node:(intern node) ~pkt
  | Pack_attach { flow; pkt; total; marked } -> w_flow3 r ~now t_pack_attach ~flow pkt total marked
  | Rwnd_rewrite { flow; pkt; window; field } ->
    w_flow3 r ~now t_rwnd_rewrite ~flow pkt window field
  | Alpha_update { flow; alpha; fraction } -> w_alpha_update r ~now ~flow ~alpha ~fraction
  | Policer_drop { flow; pkt; seq; window } -> w_flow3 r ~now t_policer_drop ~flow pkt seq window
  | Dupack { flow; ack; count } -> w_flow3 r ~now t_dupack ~flow ack count 0
  | Rto_fire { flow; inferred; count } -> w_rto_fire r ~now ~flow ~inferred ~count
  | Int_hop { flow; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps } ->
    w_int_hop r ~now ~flow ~pkt ~depth ~hop:(intern hop) ~port ~ingress ~egress ~qbytes ~svc_bps
  | Int_strip { node; flow; pkt; hops; exceeded } ->
    w_int_strip r ~now ~node:(intern node) ~flow ~pkt ~hops ~exceeded
  | Attrib_transition { flow; from_state; to_state; spent } ->
    w_attrib r ~now ~flow ~from_state:(intern from_state) ~to_state:(intern to_state) ~spent

let decode buf o =
  let h = buf.(o + 1) in
  let p i = buf.(o + 2 + i) in
  let c = (h lsr 5) land 0xFF and a = (h lsr 13) land (max_ids - 1) and b = h lsr 38 in
  let tag = h land 0x1F in
  (* Only the flow-keyed kinds hold a flow id in [a]. *)
  let flow () = flows.items.(a) in
  let event =
    if tag = t_created then
      Created { node = label a; kind = label b; pkt = p 0; flow = flows.items.(p 1); size = p 2 }
    else if tag = t_enqueue then
      Enqueue { node = label a; pkt = p 0; port = p 1; size = p 2; qbytes = p 3 }
    else if tag = t_dequeue then
      Dequeue { node = label a; pkt = p 0; port = p 1; size = p 2; qbytes = p 3 }
    else if tag = t_drop then
      Drop { node = label a; pkt = p 0; port = p 1; size = p 2; reason = reasons.(c) }
    else if tag = t_ce_mark then Ce_mark { node = label a; pkt = p 0; port = p 1; qbytes = p 2 }
    else if tag = t_impaired then
      Impaired
        {
          link = label a;
          pkt = p 0;
          action =
            (match c with
            | 0 -> Imp_lost
            | 1 -> Imp_corrupted
            | 2 -> Imp_duplicated { copy = p 1 }
            | 3 -> Imp_pack_stripped
            | _ -> Imp_reordered);
        }
    else if tag = t_vswitch_drop then Vswitch_drop { node = label a; pkt = p 0; egress = c = 1 }
    else if tag = t_delivered then Delivered { node = label a; pkt = p 0 }
    else if tag = t_pack_attach then Pack_attach { flow = flow (); pkt = p 0; total = p 1; marked = p 2 }
    else if tag = t_rwnd_rewrite then Rwnd_rewrite { flow = flow (); pkt = p 0; window = p 1; field = p 2 }
    else if tag = t_alpha_update then
      Alpha_update
        { flow = flow (); alpha = float_of_halves (p 0) (p 1); fraction = float_of_halves (p 2) (p 3) }
    else if tag = t_policer_drop then Policer_drop { flow = flow (); pkt = p 0; seq = p 1; window = p 2 }
    else if tag = t_dupack then Dupack { flow = flow (); ack = p 0; count = p 1 }
    else if tag = t_rto_fire then Rto_fire { flow = flow (); inferred = c = 1; count = p 0 }
    else if tag = t_int_hop then
      Int_hop
        {
          flow = flow ();
          pkt = p 0;
          depth = c;
          hop = label b;
          port = p 1;
          ingress = p 2;
          egress = p 3;
          qbytes = p 4;
          svc_bps = p 5;
        }
    else if tag = t_int_strip then
      Int_strip { node = label b; flow = flow (); pkt = p 0; hops = p 1; exceeded = c = 1 }
    else Attrib_transition { flow = flow (); from_state = label b; to_state = label (p 0); spent = p 1 }
  in
  (buf.(o), event)

let rec emit_unprofiled t ~now event =
  match t with
  | Null -> ()
  | Ring r -> record r ~now event
  | Write write -> write (Json.to_string (event_to_json ~now event))
  | Tee (a, b) ->
    emit_unprofiled a ~now event;
    emit_unprofiled b ~now event
  | Filter (keep, inner) -> if keep now event then emit_unprofiled inner ~now event

let emit t ~now event =
  (* The span wraps only the outermost call: Tee/Filter recursion stays in
     one trace.sink frame. *)
  match t with
  | Null -> ()
  | _ when !Profcore.on ->
    let tok = Profcore.enter Profcore.Site.trace_sink in
    emit_unprofiled t ~now event;
    Profcore.leave tok
  | _ -> emit_unprofiled t ~now event

(* ------------------------------------------------------------------ *)
(* Per-kind emitters                                                   *)

(* Each emitter writes a lone ring directly and builds the [event] only
   for the sinks that need one (JSONL, tee, filter), through [emit]. *)
let span () = if !Profcore.on then Profcore.enter Profcore.Site.trace_sink else -1
let close tok = if tok >= 0 then Profcore.leave tok

let created t ~now ~node ~kind (p : Packet.t) =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_created r ~now ~node ~kind ~pkt:p.id ~flow:p.key ~size:(Packet.wire_size p);
    close s
  | Write _ | Tee _ | Filter _ ->
    emit t ~now
      (Created
         { node = label node; pkt = p.id; flow = p.key; size = Packet.wire_size p; kind = label kind })

let enqueue t ~now ~node ~port ~pkt ~size ~qbytes =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_queue r ~now t_enqueue ~node ~port ~pkt ~size ~qbytes;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Enqueue { node = label node; port; pkt; size; qbytes })

let dequeue t ~now ~node ~port ~pkt ~size ~qbytes =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_queue r ~now t_dequeue ~node ~port ~pkt ~size ~qbytes;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Dequeue { node = label node; port; pkt; size; qbytes })

let drop t ~now ~node ~port ~pkt ~size ~reason =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_drop r ~now ~node ~port ~pkt ~size ~reason;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Drop { node = label node; port; pkt; size; reason })

let ce_mark t ~now ~node ~port ~pkt ~qbytes =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_ce_mark r ~now ~node ~port ~pkt ~qbytes;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Ce_mark { node = label node; port; pkt; qbytes })

let impaired t ~now ~link ~pkt ~action =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_impaired r ~now ~link ~pkt ~action;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Impaired { link = label link; pkt; action })

let vswitch_drop t ~now ~node ~pkt ~egress =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_vswitch_drop r ~now ~node ~pkt ~egress;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Vswitch_drop { node = label node; pkt; egress })

let delivered t ~now ~node ~pkt =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_delivered r ~now ~node ~pkt;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Delivered { node = label node; pkt })

let pack_attach t ~now ~flow ~pkt ~total ~marked =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_flow3 r ~now t_pack_attach ~flow pkt total marked;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Pack_attach { flow; pkt; total; marked })

let rwnd_rewrite t ~now ~flow ~pkt ~window ~field =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_flow3 r ~now t_rwnd_rewrite ~flow pkt window field;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Rwnd_rewrite { flow; pkt; window; field })

let alpha_update t ~now ~flow ~alpha ~fraction =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_alpha_update r ~now ~flow ~alpha ~fraction;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Alpha_update { flow; alpha; fraction })

let policer_drop t ~now ~flow ~pkt ~seq ~window =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_flow3 r ~now t_policer_drop ~flow pkt seq window;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Policer_drop { flow; pkt; seq; window })

let dupack t ~now ~flow ~ack ~count =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_flow3 r ~now t_dupack ~flow ack count 0;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Dupack { flow; ack; count })

let rto_fire t ~now ~flow ~inferred ~count =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_rto_fire r ~now ~flow ~inferred ~count;
    close s
  | Write _ | Tee _ | Filter _ -> emit t ~now (Rto_fire { flow; inferred; count })

let int_hop t ~now ~flow ~pkt ~depth ~hop ~port ~ingress ~egress ~qbytes ~svc_bps =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_int_hop r ~now ~flow ~pkt ~depth ~hop ~port ~ingress ~egress ~qbytes ~svc_bps;
    close s
  | Write _ | Tee _ | Filter _ ->
    emit t ~now
      (Int_hop { flow; pkt; depth; hop = label hop; port; ingress; egress; qbytes; svc_bps })

let int_strip t ~now ~node ~flow ~pkt ~hops ~exceeded =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_int_strip r ~now ~node ~flow ~pkt ~hops ~exceeded;
    close s
  | Write _ | Tee _ | Filter _ ->
    emit t ~now (Int_strip { node = label node; flow; pkt; hops; exceeded })

let attrib_transition t ~now ~flow ~from_state ~to_state ~spent =
  match t with
  | Null -> ()
  | Ring r ->
    let s = span () in
    w_attrib r ~now ~flow ~from_state ~to_state ~spent;
    close s
  | Write _ | Tee _ | Filter _ ->
    emit t ~now
      (Attrib_transition
         { flow; from_state = label from_state; to_state = label to_state; spent })

(* ------------------------------------------------------------------ *)
(* Reading a ring back                                                 *)

(* The last [n] recorded events, oldest first. *)
let ring_tail r n =
  let n = Stdlib.max 0 (Stdlib.min n (Stdlib.min r.total r.capacity)) in
  let first = r.next - n + if r.next >= n then 0 else r.capacity in
  List.init n (fun i -> decode r.buf ((first + i) mod r.capacity * width))

let rec events = function
  | Null | Write _ -> []
  | Ring r -> ring_tail r r.capacity
  | Tee (a, b) -> events a @ events b
  | Filter (_, inner) -> events inner

let tail t ~n =
  match t with
  | Ring r -> ring_tail r n
  | Null | Write _ | Tee _ | Filter _ ->
    let all = events t in
    let drop = List.length all - n in
    List.filteri (fun i _ -> i >= drop) all

let rec recorded = function
  | Null | Write _ -> 0
  | Ring r -> r.total
  | Tee (a, b) -> recorded a + recorded b
  | Filter (_, inner) -> recorded inner

(* ------------------------------------------------------------------ *)
(* Pre-sink filters (--trace-filter)                                   *)

let kind_filter ~kinds inner =
  filter inner ~keep:(fun _ event -> List.mem (kind_of_event event) kinds)

let flow_selector ~flows =
  let matches key =
    List.exists (fun f -> Flow_key.equal f key || Flow_key.equal (Flow_key.reverse f) key) flows
  in
  (* Packet-scoped events (enqueue, drop, ...) carry no 4-tuple; the
     Created event does, so membership learned there follows the packet id
     through the rest of its lifecycle — and through impairment-made
     duplicates.  The table only ever grows; packet ids are unique per
     run, so there is nothing to evict. *)
  let tracked = Hashtbl.create 256 in
  fun _ event ->
    match event with
    | Created { pkt; flow; _ } ->
      let hit = matches flow in
      if hit then Hashtbl.replace tracked pkt ();
      hit
    | Impaired { pkt; action = Imp_duplicated { copy }; _ } ->
      let hit = Hashtbl.mem tracked pkt in
      if hit then Hashtbl.replace tracked copy ();
      hit
    | _ -> (
      match flow_of_event event with
      | Some flow -> matches flow
      | None -> (
        match pkt_of_event event with Some pkt -> Hashtbl.mem tracked pkt | None -> false))

let flow_filter ~flows inner = filter inner ~keep:(flow_selector ~flows)

let filter_of_spec spec =
  let ( let* ) = Result.bind in
  let* flows, kinds =
    List.fold_left
      (fun acc part ->
        let* flows, kinds = acc in
        let part = String.trim part in
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" part)
        | Some i -> (
          let key = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          match key with
          | "flow" ->
            let* flow = flow_of_spec v in
            Ok (flow :: flows, kinds)
          | "kind" ->
            let parts =
              String.split_on_char '|' v |> List.map String.trim
              |> List.filter (fun s -> s <> "")
            in
            if parts = [] then Error "kind= needs at least one event kind"
            else Ok (flows, parts @ kinds)
          | _ -> Error (Printf.sprintf "unknown trace-filter key %S" key)))
      (Ok ([], []))
      (String.split_on_char ',' spec |> List.filter (fun s -> String.trim s <> ""))
  in
  if flows = [] && kinds = [] then Error "empty trace-filter spec"
  else
    (* The flow filter must sit outermost: it learns packet-id membership
       from Created events, which an inner kind filter may discard from
       the sink but must not hide from the tracker. *)
    Ok
      (fun sink ->
        let sink = if kinds = [] then sink else kind_filter ~kinds sink in
        if flows = [] then sink else flow_filter ~flows sink)

let pp_event fmt event =
  let flow = Flow_key.pp in
  match event with
  | Created { node; pkt; flow = f; size; kind } ->
    Format.fprintf fmt "created %s pkt=%d %a %s size=%d" node pkt flow f kind size
  | Enqueue { node; port; pkt; size; qbytes } ->
    Format.fprintf fmt "enqueue %s:%d pkt=%d size=%d q=%d" node port pkt size qbytes
  | Dequeue { node; port; pkt; size; qbytes } ->
    Format.fprintf fmt "dequeue %s:%d pkt=%d size=%d q=%d" node port pkt size qbytes
  | Drop { node; port; pkt; size; reason } ->
    Format.fprintf fmt "drop    %s:%d pkt=%d size=%d (%s)" node port pkt size
      (reason_label reason)
  | Ce_mark { node; port; pkt; qbytes } ->
    Format.fprintf fmt "ce-mark %s:%d pkt=%d q=%d" node port pkt qbytes
  | Impaired { link; pkt; action } ->
    Format.fprintf fmt "impair  %s pkt=%d %s%s" link pkt (action_label action)
      (match action with
      | Imp_duplicated { copy } -> Printf.sprintf " copy=%d" copy
      | Imp_lost | Imp_corrupted | Imp_pack_stripped | Imp_reordered -> "")
  | Vswitch_drop { node; pkt; egress } ->
    Format.fprintf fmt "vs-drop %s pkt=%d (%s)" node pkt (if egress then "egress" else "ingress")
  | Delivered { node; pkt } -> Format.fprintf fmt "deliver %s pkt=%d" node pkt
  | Pack_attach { flow = f; pkt; total; marked } ->
    Format.fprintf fmt "pack    %a pkt=%d total=%d marked=%d" flow f pkt total marked
  | Rwnd_rewrite { flow = f; pkt; window; field } ->
    Format.fprintf fmt "rwnd    %a pkt=%d -> %d bytes (field %d)" flow f pkt window field
  | Alpha_update { flow = f; alpha; fraction } ->
    Format.fprintf fmt "alpha   %a = %.3f (frac %.3f)" flow f alpha fraction
  | Policer_drop { flow = f; pkt; seq; window } ->
    Format.fprintf fmt "police  %a pkt=%d seq=%d beyond window %d" flow f pkt seq window
  | Dupack { flow = f; ack; count } ->
    Format.fprintf fmt "dupack  %a ack=%d #%d" flow f ack count
  | Rto_fire { flow = f; inferred; count } ->
    Format.fprintf fmt "rto     %a %s#%d" flow f (if inferred then "(inferred) " else "") count
  | Int_hop { flow = f; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps } ->
    Format.fprintf fmt "int-hop %a pkt=%d [%d] %s:%d sojourn=%dns q=%d svc=%.1fG" flow f pkt
      depth hop port (egress - ingress) qbytes
      (float_of_int svc_bps /. 1e9)
  | Int_strip { node; flow = f; pkt; hops; exceeded } ->
    Format.fprintf fmt "int     %s %a pkt=%d hops=%d%s" node flow f pkt hops
      (if exceeded then " (exceeded)" else "")
  | Attrib_transition { flow = f; from_state; to_state; spent } ->
    Format.fprintf fmt "attrib  %a %s -> %s (spent %dns)" flow f from_state to_state spent
