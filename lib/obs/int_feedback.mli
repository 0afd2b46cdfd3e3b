(** Subscription channel feeding stripped INT stacks to congestion
    control.

    AC/DC's premise is edge-only state; modern laws like PowerTCP need
    fabric-interior state — per-hop queue depth and service rate sampled
    on the data path.  The fabric's hosts call {!dispatch} with every
    stack they strip; an enforced CC law (or an experiment) registers a
    {!callback} for its flow and receives the per-hop samples
    synchronously, on the virtual clock, in path order.

    The registry belongs to the run: {!Runtime.with_run} starts each run
    with no subscriptions and puts the enclosing run's back on exit. *)

type callback = now:Eventsim.Time_ns.t -> flow:Dcpkt.Flow_key.t -> Dcpkt.Int_meta.stack -> unit
(** Invoked at strip time (packet delivery at the receiving vSwitch).
    ACK-borne telemetry of a flow arrives under the reversed 4-tuple;
    subscribe with either direction — matching ignores orientation.

    The stack is the packet's own and goes back to the pool when the
    strip point returns: read it with the {!Dcpkt.Int_meta} accessors
    during the call and keep no reference to it. *)

type subscription = private { id : int; flow : Dcpkt.Flow_key.t option; callback : callback }

val subscribe : ?flow:Dcpkt.Flow_key.t -> callback -> int
(** Register a callback, returning a handle for {!unsubscribe}.  With
    [flow], only stacks of that flow (either direction) are delivered;
    without, every stack is. *)

val unsubscribe : int -> unit

val subscriber_count : unit -> int

val dispatch : now:Eventsim.Time_ns.t -> flow:Dcpkt.Flow_key.t -> Dcpkt.Int_meta.stack -> unit
(** Deliver one stripped stack to all matching subscribers, in
    subscription order.  O(1) when nobody subscribed. *)

val reset : unit -> unit
(** Drop all subscriptions. *)

type saved

val detach : unit -> saved
(** The current subscriptions, leaving none ({!Runtime.with_run}'s entry). *)

val restore : saved -> unit
(** Put back what {!detach} returned, dropping any subscription made
    since. *)
