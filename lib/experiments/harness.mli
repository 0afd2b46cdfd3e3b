(** Shared experiment plumbing: the three schemes of §5 ("CUBIC",
    "DCTCP", "AC/DC"), flow construction, throughput measurement and
    paper-style output formatting. *)

type scheme = {
  label : string;
  fabric_ecn : bool;  (** WRED/ECN configured on the switches *)
  host_cc : Tcp.Cc.factory;
  host_ecn : bool;  (** the tenant stack itself uses ECN *)
  acdc : bool;  (** AC/DC installed in every vSwitch *)
}

val cubic : scheme
(** Baseline: host CUBIC + standard OVS, switch ECN off. *)

val dctcp : scheme
(** Target: host DCTCP + standard OVS, switch ECN on. *)

val acdc : ?host_cc:Tcp.Cc.factory -> ?host_ecn:bool -> unit -> scheme
(** Our scheme: the given host stack (default CUBIC) under AC/DC, switch
    ECN on. *)

val params_for : scheme -> Fabric.Params.t -> Fabric.Params.t
val acdc_select : scheme -> Fabric.Params.t -> Fabric.Topology.acdc_select
val host_config : scheme -> Fabric.Params.t -> Tcp.Endpoint.config

val dumbbell : scheme -> ?params:Fabric.Params.t -> pairs:int -> unit -> Fabric.Topology.t
val star : scheme -> ?params:Fabric.Params.t -> hosts:int -> unit -> Fabric.Topology.t

val long_lived_pairs : Fabric.Topology.t -> scheme -> pairs:int -> Fabric.Conn.t list
(** One saturating flow per sender/receiver pair of a dumbbell. *)

val measure_goodput :
  Fabric.Topology.t ->
  Fabric.Conn.t list ->
  warmup:Eventsim.Time_ns.t ->
  duration:Eventsim.Time_ns.t ->
  float list
(** Run the simulation through [warmup + duration] and return each flow's
    goodput in Gb/s over the measurement window. *)

(** {2 Time-series plumbing}

    Experiments that sample signals over virtual time share one
    {!Obs.Timeseries.t} per run, bound to the topology's engine. *)

val new_timeseries : ?default_budget:int -> Fabric.Topology.t -> Obs.Timeseries.t

val finish_timeseries : Obs.Timeseries.t -> unit
(** Stop all probes (so the event queue can drain on the next run) and
    export CSVs if the current run has a time-series directory.
    Call once the run is over, before tearing the topology down. *)

val report_of_run :
  id:string ->
  ?scheme:scheme ->
  ?config:(string * Obs.Json.t) list ->
  ?goodputs:float list ->
  ?timeseries:Obs.Timeseries.t ->
  unit ->
  Obs.Report.t
(** Assemble a {!Obs.Report} from a finished run: scheme label and extra
    [config] pairs, flow count plus [aggregate_goodput_gbps] from
    [goodputs], the run's time-series embedded, and the current run's
    sections ({!Obs.Runtime.add_sections}).  Callers add run-specific
    scalars and percentile summaries on the result before writing it. *)

(** {2 Output helpers} *)

val pp_gbps_list : Format.formatter -> float list -> unit
val print_header : string -> string -> unit
(** [print_header id title] prints the experiment banner. *)

val print_cdf : label:string -> Dcstats.Samples.t -> unit
(** Print a ~20-point CDF (value percentiles) in gnuplot-ready columns. *)

val print_row : string -> ('a, Format.formatter, unit) format -> 'a
(** [print_row label fmt ...] prints an aligned data row. *)

val pctl : Dcstats.Samples.t -> float -> float
(** Percentile that returns [nan] on an empty sample set instead of
    raising. *)

(** {2 Per-run reports}

    A command-line tool runs each experiment with [timed_run], nested in
    its own {!Obs.Runtime.with_run} bracket, and gets back one report per
    experiment. *)

val timed_run :
  ?config:Obs.Runtime.config -> id:string -> (unit -> Obs.Report.t) -> Obs.Report.t
(** [timed_run ~id f] runs [f] in a nested run bracket with the INT
    feedback registry cleared — [config] defaults to the enclosing run's
    sinks ({!Obs.Runtime.current}), with fresh accumulators — and returns
    the report [f] builds (normally with {!report_of_run}) plus the
    [events] the simulator fired during [f] and their [events_per_sec]
    rate.  Prints ["[<id> finished in <s>s]"]. *)
