(* One stack is a flat int array: slot 0 holds the depth, hop [i] the
   [fields] slots from [1 + i * fields], in path order.  No pointers, so
   the GC never scans one and a pooled stack is never a young-into-old
   store. *)
type stack = int array

let max_hops = 3
let fields = 6
let f_hop_id = 0
let f_port = 1
let f_ingress = 2
let f_egress = 3
let f_qbytes = 4
let f_svc = 5

(* Shared by every packet that carries no stack; [push] never writes it. *)
let empty : stack = [| 0 |]

let depth (s : stack) = Array.unsafe_get s 0

let get (s : stack) i f =
  if i < 0 || i >= depth s then invalid_arg "Int_meta: hop index out of range";
  Array.unsafe_get s (1 + (i * fields) + f)

let hop_id s i = get s i f_hop_id
let port s i = get s i f_port
let ingress_ns s i = get s i f_ingress
let egress_ns s i = get s i f_egress
let qbytes s i = get s i f_qbytes
let svc_bps s i = get s i f_svc
let sojourn_ns s i = egress_ns s i - ingress_ns s i

(* The free list.  Stacks come back only from the strip point, so its
   high-water mark is the most stacks ever stripped-and-unreleased at
   once, not the number of packets. *)
let pool : stack array ref = ref [||]
let pooled = ref 0

let acquire () =
  if !pooled = 0 then Array.make (1 + (max_hops * fields)) 0
  else begin
    decr pooled;
    !pool.(!pooled)
  end

let release s =
  if s != empty then begin
    s.(0) <- 0;
    if !pooled = Array.length !pool then begin
      let grown = Array.make (Stdlib.max 16 (2 * !pooled)) empty in
      Array.blit !pool 0 grown 0 !pooled;
      pool := grown
    end;
    !pool.(!pooled) <- s;
    incr pooled
  end

let push s ~hop_id ~port ~ingress_ns ~egress_ns ~qbytes ~svc_bps =
  let d = depth s in
  if s == empty || d >= max_hops then invalid_arg "Int_meta.push: no room on the stack";
  let b = 1 + (d * fields) in
  s.(b + f_hop_id) <- hop_id;
  s.(b + f_port) <- port;
  s.(b + f_ingress) <- ingress_ns;
  s.(b + f_egress) <- egress_ns;
  s.(b + f_qbytes) <- qbytes;
  s.(b + f_svc) <- svc_bps;
  s.(0) <- d + 1

let complete_top s ~egress_ns =
  let d = depth s in
  if d > 0 then begin
    let i = 1 + ((d - 1) * fields) + f_egress in
    if s.(i) = 0 then s.(i) <- egress_ns
  end

let copy s =
  if depth s = 0 then empty
  else begin
    let c = acquire () in
    Array.blit s 0 c 0 (1 + (depth s * fields));
    c
  end

let the_enabled = ref false

let enabled () = !the_enabled

let set_enabled v = the_enabled := v

(* Name-keyed so re-building the same topology (every seeded run, every
   scheme in a figure) reuses ids instead of burning through the 8-bit
   space, keeping runs deterministic and captures comparable. *)
let ids : (string, int) Hashtbl.t = Hashtbl.create 16

let names : (int, string) Hashtbl.t = Hashtbl.create 16

let next_id = ref 0

let register ~name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = !next_id land 0xFF in
    incr next_id;
    Hashtbl.replace ids name id;
    if not (Hashtbl.mem names id) then Hashtbl.replace names id name;
    id

(* [find] with a handler, not [find_opt]: the trace resolves a name per
   stamped hop. *)
let name id =
  match Hashtbl.find names id with n -> n | exception Not_found -> Printf.sprintf "hop%d" id

(* Ids are 8-bit (see [register]) and ports nonnegative. *)
let hop_key s i = (port s i lsl 8) lor hop_id s i

let hop_label s i = Printf.sprintf "%s:%d" (name (hop_id s i)) (port s i)

let reset () =
  Hashtbl.reset ids;
  Hashtbl.reset names;
  next_id := 0;
  the_enabled := false

let option_kind = 254

let hop_wire_bytes = 10

let shim_wire_bytes ~hops = 3 + (hop_wire_bytes * hops)

let qbytes_unit = 256

let svc_unit = 10_000_000

let wire_sojourn_ns s i = min 0xFFFF_FFFF (max 0 (sojourn_ns s i))
let wire_qbytes s i = min 0xFFFF (qbytes s i / qbytes_unit)
let wire_svc s i = min 0xFFFF (svc_bps s i / svc_unit)
