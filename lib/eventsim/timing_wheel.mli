(** Hierarchical timing wheel: the simulator's event queue.

    Seven fixed-slot wheels of 32 slots each cover a horizon of [32^7] ns
    (~34 virtual seconds);
    wheel [l] has slot width [32^l] ns, so the innermost wheel resolves
    single nanoseconds and each outer wheel is 32x coarser.  Events beyond
    the horizon sit in an unsorted overflow list and are migrated into the
    wheels once the clock catches up.  Per-level occupancy bitmaps make
    "next nonempty slot" a count-trailing-zeros, so push and pop are O(1)
    amortized regardless of population, where a binary heap pays O(log n)
    compares and an entry allocation per push.

    Determinism contract, identical to a binary min-heap ordered by
    (time, insertion sequence): extraction order is time first, then
    insertion sequence (FIFO within an instant).  The differential harness
    in [test/test_eventsim.ml] drives the wheel and a reference heap with
    identical randomized scripts.

    Cells are pooled: popping returns a cell to an internal free list and
    pushing reuses it, so a steady-state simulation allocates nothing per
    event.  [pop_or]/[pop_until_or] expose the allocation-free extraction
    path (no [Some] / tuple per pop) used by {!Engine}.

    Unlike the heap, extraction is monotonic: [push] requires [time] to be
    no earlier than the last popped time (the wheel's position).  The
    engine guarantees this — scheduling in the past is rejected one layer
    up. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-populates the cell pool. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:Time_ns.t -> 'a -> unit
(** Raises [Invalid_argument] if [time] is before the wheel's position
    (the time of the last extraction). *)

val peek_time : 'a t -> Time_ns.t option
(** Timestamp of the earliest event, without removing it (and without
    advancing the wheel). *)

val pop : 'a t -> (Time_ns.t * 'a) option
(** Remove and return the earliest event. *)

val pop_or : 'a t -> none:'a -> 'a
(** Allocation-free [pop]: returns [none] when empty.  The caller
    recovers the timestamp from the event itself (the engine stamps its
    pooled event records with their due time). *)

val pop_until : 'a t -> limit:Time_ns.t -> (Time_ns.t * 'a) option
(** [pop] only if the earliest event's time is [<= limit]; otherwise
    [None] and the event stays queued. *)

val pop_until_or : 'a t -> limit:Time_ns.t -> none:'a -> 'a
(** Allocation-free [pop_until]. *)

val clear : 'a t -> unit
(** Empty the wheel (cells are reclaimed to the pool) and rewind its
    position to zero. *)

val free_cells : 'a t -> int
(** Size of the internal cell pool — how many previously used cells are
    parked awaiting reuse.  Exposed for the reclamation stress tests. *)

val overflow_length : 'a t -> int
(** Events currently parked beyond the wheel horizon. *)
