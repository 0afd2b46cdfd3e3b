(** Array-backed binary min-heap of timestamped events: the reference
    ordering the timing wheel and the engine are tested against.

    Events firing at the same instant are delivered in insertion order
    (FIFO): the heap orders first by time, then by a monotonically
    increasing sequence number. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:Eventsim.Time_ns.t -> 'a -> unit

val peek_time : 'a t -> Eventsim.Time_ns.t option
(** Timestamp of the earliest event, without removing it. *)

val pop : 'a t -> (Eventsim.Time_ns.t * 'a) option
(** Remove and return the earliest event. *)

val pop_until : 'a t -> limit:Eventsim.Time_ns.t -> (Eventsim.Time_ns.t * 'a) option
(** [pop] only if the earliest event's time is [<= limit]; otherwise
    [None] and the event stays queued. *)

val clear : 'a t -> unit
