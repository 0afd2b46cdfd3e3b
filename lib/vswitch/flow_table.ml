module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key

type 'a entry = {
  value : 'a;
  rkey : Flow_key.t; (* the key reversed, computed once at insertion *)
  mutable last_active : Time_ns.t;
  mutable closed : bool;
}

type 'a t = {
  engine : Engine.t;
  idle_timeout : Time_ns.t;
  gc_interval : Time_ns.t;
  table : 'a entry Flow_key.Table.t;
  (* The same entries keyed by [rkey]: a reply packet finds its flow
     without building a reversed key per packet. *)
  rev : 'a entry Flow_key.Table.t;
  mutable gc_timer : Engine.timer;
  mutable lookups : int;
  mutable insertions : int;
  mutable gc_removals : int;
}

let sweep t =
  let now = Engine.now t.engine in
  let stale =
    Flow_key.Table.fold
      (fun key entry acc ->
        if entry.closed || Time_ns.diff now entry.last_active > t.idle_timeout then key :: acc
        else acc)
      t.table []
  in
  List.iter
    (fun key ->
      Flow_key.Table.remove t.rev (Flow_key.Table.find t.table key).rkey;
      Flow_key.Table.remove t.table key;
      t.gc_removals <- t.gc_removals + 1)
    stale

let create engine ?(gc_interval = Time_ns.sec 1.0) ?(idle_timeout = Time_ns.sec 5.0) () =
  let t =
    {
      engine;
      idle_timeout;
      gc_interval;
      table = Flow_key.Table.create 256;
      rev = Flow_key.Table.create 256;
      gc_timer = Engine.timer ignore;
      lookups = 0;
      insertions = 0;
      gc_removals = 0;
    }
  in
  t.gc_timer <-
    Engine.timer (fun () ->
        sweep t;
        Engine.arm engine t.gc_timer ~delay:gc_interval);
  Engine.arm engine t.gc_timer ~delay:gc_interval;
  t

(* The lookups use [find] with a handler rather than [find_opt]: no
   [Some] per packet. *)
let lookup t tbl key ~none =
  t.lookups <- t.lookups + 1;
  match Flow_key.Table.find tbl key with
  | exception Not_found -> none
  | entry ->
    entry.last_active <- Engine.now t.engine;
    entry.value

let find_or t key ~none = lookup t t.table key ~none
let find_reverse_or t key ~none = lookup t t.rev key ~none

let find t key =
  t.lookups <- t.lookups + 1;
  match Flow_key.Table.find_opt t.table key with
  | None -> None
  | Some entry ->
    entry.last_active <- Engine.now t.engine;
    Some entry.value

let find_or_create t key ~make =
  match find t key with
  | Some v -> v
  | None ->
    let entry =
      {
        value = make ();
        rkey = Flow_key.reverse key;
        last_active = Engine.now t.engine;
        closed = false;
      }
    in
    Flow_key.Table.replace t.table key entry;
    Flow_key.Table.replace t.rev entry.rkey entry;
    t.insertions <- t.insertions + 1;
    entry.value

let mark_closed t key =
  match Flow_key.Table.find_opt t.table key with
  | Some entry -> entry.closed <- true
  | None -> ()

let remove t key =
  match Flow_key.Table.find_opt t.table key with
  | Some entry ->
    Flow_key.Table.remove t.rev entry.rkey;
    Flow_key.Table.remove t.table key
  | None -> ()

let length t = Flow_key.Table.length t.table

let iter t ~f = Flow_key.Table.iter (fun key entry -> f key entry.value) t.table

let lookups t = t.lookups
let insertions t = t.insertions
let gc_removals t = t.gc_removals

let stop_gc t = Engine.cancel t.gc_timer
