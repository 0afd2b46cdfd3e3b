(** In-band network telemetry (INT) metadata.

    Switches push one hop per traversed switch onto a packet's [int_stack]
    (see {!Packet.t}): ingress/egress timestamps, the queue depth the
    packet found at enqueue, and the port's estimated service rate.  The
    receiving vSwitch strips the stack and feeds it to the observability
    sinks and to [Obs.Int_feedback], giving enforced CC laws the
    fabric-interior view PowerTCP-style window laws need.

    The model keeps full-precision nanosecond timestamps; the wire
    encoding (a TCP option, see {!option_kind}) carries the quantized
    sojourn/queue/rate fields only.  Quantization is idempotent, so a
    decoded hop re-encodes byte-identically. *)

(** {2 The hop stack}

    A stack is a flat, int-only buffer of at most {!max_hops} hops, read
    in path order (hop 0 is the first switch).  Packets without telemetry
    all share {!empty}.  The first stamp takes a stack from a free list
    ({!acquire}); the receiving host's strip point hands it back
    ({!release}) once every consumer has read it.  A dropped packet's
    stack is simply collected, and {!Packet.copy} gives a duplicate its
    own.  So a stack is valid while its packet carries it: consumers
    handed one at strip time ([Obs.Int_sink.absorb],
    [Obs.Attrib.absorb_hops], [Obs.Int_feedback] callbacks) read it
    during the call and keep nothing. *)

type stack

val empty : stack
(** The shared depth-0 stack.  Never pushed onto. *)

val max_hops : int
(** 3: the most hops the 40-byte TCP option space can carry. *)

val depth : stack -> int

(** Field accessors for hop [i], [0 <= i < depth]; raise
    [Invalid_argument] otherwise. *)

val hop_id : stack -> int -> int
(** Switch identity from {!register}, 8 bits on the wire. *)

val port : stack -> int -> int
(** Egress port index on that switch, 8 bits on the wire. *)

val ingress_ns : stack -> int -> int
(** Virtual-clock time the hop admitted the packet. *)

val egress_ns : stack -> int -> int
(** Serialization-complete time; 0 while still queued.  Written once, in
    place, by the queue that serializes the packet. *)

val qbytes : stack -> int -> int
(** Egress-queue depth found at enqueue, bytes. *)

val svc_bps : stack -> int -> int
(** Per-port service-rate estimate, bits/sec. *)

val sojourn_ns : stack -> int -> int
(** [egress_ns - ingress_ns]: queueing plus serialization time at the hop. *)

val hop_key : stack -> int -> int
(** The hop's (switch, port) pair as one int — a per-packet table key for
    aggregating by hop without formatting {!hop_label}. *)

val hop_label : stack -> int -> string
(** ["<switch name>:<port>"], the hop's name in reports and channels. *)

(** {2 Ownership}

    Used by {!Packet}; nothing else needs them. *)

val acquire : unit -> stack
(** A depth-0 stack from the free list, or a fresh one when it is empty. *)

val release : stack -> unit
(** Return a stack to the free list.  The caller must hold the only
    reference; releasing {!empty} is a no-op. *)

val push :
  stack ->
  hop_id:int ->
  port:int ->
  ingress_ns:int ->
  egress_ns:int ->
  qbytes:int ->
  svc_bps:int ->
  unit
(** Append a hop.  Raises [Invalid_argument] on {!empty} or a full stack. *)

val complete_top : stack -> egress_ns:int -> unit
(** Set the newest hop's egress time if it is still open (0). *)

val copy : stack -> stack
(** An independent stack with the same hops ({!empty} for depth 0). *)

(** {2 Global enable}

    Stamping costs bytes on every packet, so it is off by default; the
    [--int] flag on the experiment driver and the INT figures flip it. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {2 Hop identity}

    Switches register by name at creation and stamp the returned id.
    Registration is name-keyed and idempotent, so re-creating the same
    topology yields the same ids and seeded runs stay deterministic. *)

val register : name:string -> int
(** The id for [name], assigning the next free one (wrapping at 256) on
    first sight. *)

val name : int -> string
(** The registered name for an id, or ["hop<id>"] if unknown (e.g. a hop
    decoded from a foreign capture). *)

val reset : unit -> unit
(** Forget all registrations and re-enable from a clean slate (test
    isolation). *)

(** {2 Wire encoding}

    The stack rides in a TCP option: kind {!option_kind}, length, one
    count byte (bit 7 = the "hop count exceeded" flag, low bits = hop
    count), then {!hop_wire_bytes} per hop — hop id (1), port (1),
    sojourn ns (4, saturating), queue bytes in {!qbytes_unit} units (2,
    saturating), service rate in {!svc_unit} bits/sec units (2,
    saturating).  TCP options are capped at 40 bytes, so a switch that
    finds no room sets the exceeded flag instead of stamping — standard
    INT semantics for running out of metadata space.  A decoded hop has
    ingress 0 and its sojourn as egress, so re-encoding it is the
    identity. *)

val option_kind : int
(** 254: the second RFC 4727 experimental TCP option kind (PACK uses
    253). *)

val hop_wire_bytes : int

val shim_wire_bytes : hops:int -> int
(** Bytes the INT option occupies for a stack of [hops] entries
    (kind + length + count byte + per-hop payload). *)

val qbytes_unit : int
(** 256: queue depth is carried in 256-byte units. *)

val svc_unit : int
(** 10_000_000: service rate is carried in 10 Mbit/s units. *)

val wire_sojourn_ns : stack -> int -> int
(** Hop [i]'s sojourn saturated to the 32-bit wire field. *)

val wire_qbytes : stack -> int -> int
(** Hop [i]'s queue depth in {!qbytes_unit}s, saturated to 16 bits. *)

val wire_svc : stack -> int -> int
(** Hop [i]'s service rate in {!svc_unit}s, saturated to 16 bits. *)
