(* Engine = virtual clock + event queue + a pool of flat event records.

   Events are mutable records recycled through a per-engine free list: the
   queue backends hand back the record itself (never a [Some]/tuple), its
   [at] field carries the timestamp, and dispatch reads the payload into
   locals and returns the record to the pool *before* invoking the
   callback — so the callback's own scheduling reuses it immediately.  A
   callback that raises leaks its one record to the GC; the pool stays
   consistent.

   Three event kinds share the record: closures ([schedule]), cancellable
   timers ([arm]: liveness and a generation number ride in the separate,
   reusable handle, and each queued instance records the generation it was
   armed at, so neither a recycled record nor a superseded instance can
   fire a timer that was cancelled or re-armed since), and static-site
   handlers ([schedule_static]: a pre-registered code pointer plus two
   universally-typed argument slots — the zero-allocation path for txq
   tx-complete, link delivery and friends). *)

type backend = Heap | Wheel

let backend_of_string = function
  | "heap" -> Some Heap
  | "wheel" -> Some Wheel
  | _ -> None

let backend_name = function Heap -> "heap" | Wheel -> "wheel"

let ambient_backend =
  ref
    (match Sys.getenv_opt "ACDC_SCHED" with
    | None | Some "" -> Wheel
    | Some s -> (
      match backend_of_string (String.lowercase_ascii s) with
      | Some b -> b
      | None -> invalid_arg (Printf.sprintf "ACDC_SCHED=%S: expected \"wheel\" or \"heap\"" s)))

let default_backend () = !ambient_backend
let set_default_backend b = ambient_backend := b

type timer = { mutable live : bool; mutable gen : int; action : unit -> unit }

let nop () = ()
let nop2 (_ : Obj.t) (_ : Obj.t) = ()
let dead_timer = { live = false; gen = 0; action = nop }

(* kind: 0 = closure, 1 = timer, 2 = static handler. *)
type event = {
  mutable at : Time_ns.t;
  mutable kind : int;
  mutable fn : unit -> unit;
  mutable tmr : timer;
  mutable tgen : int; (* [tmr.gen] when this instance was armed *)
  mutable h : Obj.t -> Obj.t -> unit;
  mutable a : Obj.t;
  mutable b : Obj.t;
  mutable free_next : event; (* free-list link; [nil_event] = end *)
}

let rec nil_event =
  {
    at = 0;
    kind = 0;
    fn = nop;
    tmr = dead_timer;
    tgen = 0;
    h = nop2;
    a = Obj.repr 0;
    b = Obj.repr 0;
    free_next = nil_event;
  }

type queue = Qh of event Event_heap.t | Qw of event Timing_wheel.t

type t = {
  mutable clock : Time_ns.t;
  queue : queue;
  mutable fired : int;
  mutable free : event;
  mutable free_count : int;
  mutable records : int; (* pooled records ever allocated *)
}

(* Events fired across every engine in the process: the denominator of the
   bench's events/sec figure, which spans many short-lived engines. *)
let all_fired = ref 0

let create ?backend () =
  let backend = match backend with Some b -> b | None -> !ambient_backend in
  let queue =
    match backend with
    | Heap -> Qh (Event_heap.create ())
    | Wheel -> Qw (Timing_wheel.create ())
  in
  { clock = Time_ns.zero; queue; fired = 0; free = nil_event; free_count = 0; records = 0 }

let backend t = match t.queue with Qh _ -> Heap | Qw _ -> Wheel

let now t = t.clock

(* The pool grows by doubling, not one record at a time.  A fresh record
   is young, and until a minor GC promotes it every push stores it into
   the long-lived queue — a remembered-set entry per use, and a busy pool
   reuses its newest records first.  A batch is promoted together at the
   next minor GC and costs nothing after that. *)
let refill t =
  let n = Stdlib.max 64 t.records in
  t.records <- t.records + n;
  for _ = 1 to n do
    t.free <-
      {
        at = 0;
        kind = 0;
        fn = nop;
        tmr = dead_timer;
        tgen = 0;
        h = nop2;
        a = Obj.repr 0;
        b = Obj.repr 0;
        free_next = t.free;
      }
  done;
  t.free_count <- t.free_count + n

let alloc t =
  if t.free == nil_event then refill t;
  let ev = t.free in
  t.free <- ev.free_next;
  t.free_count <- t.free_count - 1;
  ev.free_next <- nil_event;
  ev

(* Return a record to the pool.  [fire] has already cleared the payload
   fields its kind used (and only those: each cleared pointer field is a
   write barrier, paid once per event). *)
let recycle t ev =
  ev.free_next <- t.free;
  t.free <- ev;
  t.free_count <- t.free_count + 1

let push t ~at ev =
  ev.at <- at;
  match t.queue with
  | Qh q -> Event_heap.push q ~time:at ev
  | Qw q -> Timing_wheel.push q ~time:at ev

let check_future t at =
  if at < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule: time %a is before now %a" Time_ns.pp at Time_ns.pp
         t.clock)

let schedule t ~at f =
  check_future t at;
  let ev = alloc t in
  ev.kind <- 0;
  ev.fn <- f;
  push t ~at ev

let schedule_after t ~delay f = schedule t ~at:(Time_ns.add t.clock delay) f

type ('a, 'b) handler = Obj.t -> Obj.t -> unit

let handler (f : 'a -> 'b -> unit) : ('a, 'b) handler = Obj.magic f

let schedule_static (type a b) t ~at (h : (a, b) handler) (x : a) (y : b) =
  check_future t at;
  let ev = alloc t in
  ev.kind <- 2;
  ev.h <- h;
  ev.a <- Obj.repr x;
  ev.b <- Obj.repr y;
  push t ~at ev

let schedule_static_after t ~delay h x y =
  schedule_static t ~at:(Time_ns.add t.clock delay) h x y

let timer action = { live = false; gen = 0; action }

let arm t timer ~delay =
  timer.gen <- timer.gen + 1;
  timer.live <- true;
  let ev = alloc t in
  ev.kind <- 1;
  ev.tmr <- timer;
  ev.tgen <- timer.gen;
  push t ~at:(Time_ns.add t.clock delay) ev

let timer_after t ~delay action =
  let timer = timer action in
  arm t timer ~delay;
  timer

let cancel timer = timer.live <- false

let timer_pending timer = timer.live

(* Read the payload into locals and recycle *first*: the callback is then
   free to schedule into the record it just vacated. *)
let fire t ev =
  match ev.kind with
  | 0 ->
    let f = ev.fn in
    ev.fn <- nop;
    recycle t ev;
    f ()
  | 1 ->
    let tmr = ev.tmr and gen = ev.tgen in
    ev.tmr <- dead_timer;
    recycle t ev;
    if tmr.live && gen = tmr.gen then begin
      tmr.live <- false;
      tmr.action ()
    end
  | _ ->
    (* [h] is a static handler, live for the whole program: no need to
       clear it. *)
    let h = ev.h and a = ev.a and b = ev.b in
    ev.a <- Obj.repr 0;
    ev.b <- Obj.repr 0;
    recycle t ev;
    h a b

let dispatch t ev =
  t.clock <- ev.at;
  t.fired <- t.fired + 1;
  incr all_fired;
  if !Profcore.on then begin
    (* Dispatch is attributed per event kind; the try keeps the span
       stack balanced when a callback raises (tests do), unwinding any
       frames an aborted inner span left behind. *)
    let site =
      match ev.kind with
      | 1 -> Profcore.Site.engine_timer
      | _ -> Profcore.Site.engine_callback
    in
    let tok = Profcore.enter site in
    (try fire t ev
     with e ->
       Profcore.leave tok;
       raise e);
    Profcore.leave tok
  end
  else fire t ev

let step t =
  let ev =
    match t.queue with
    | Qh q -> Event_heap.pop_or q ~none:nil_event
    | Qw q -> Timing_wheel.pop_or q ~none:nil_event
  in
  if ev == nil_event then false
  else begin
    dispatch t ev;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    (* Boundary rule (see the .mli): an event at exactly [limit] fires —
       extraction is bounded by [time <= limit] — and the clock finishes
       at [limit] exactly, whether or not the queue drained early. *)
    let continue = ref true in
    while !continue do
      let ev =
        match t.queue with
        | Qh q -> Event_heap.pop_until_or q ~limit ~none:nil_event
        | Qw q -> Timing_wheel.pop_until_or q ~limit ~none:nil_event
      in
      if ev == nil_event then begin
        t.clock <- Time_ns.max t.clock limit;
        continue := false
      end
      else dispatch t ev
    done

let pending_events t =
  match t.queue with Qh q -> Event_heap.length q | Qw q -> Timing_wheel.length q

let free_events t = t.free_count

let events_processed t = t.fired

let total_events_processed () = !all_fired
