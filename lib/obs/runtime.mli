(** The ambient observability context: the current run's sinks.

    Simulator components pick up the metrics registry, tracer and pcap
    sink from here at construction time; hosts read the INT sink and the
    attribution instance per packet.  Entry points — the experiment CLI, the
    bench, tests — configure a run with {!with_run}, which owns every
    sink's lifetime:

    {[
      Obs.Runtime.with_run
        { Obs.Runtime.off with trace = File "run.jsonl"; attrib = true }
        (fun () ->
          (* ... build topology, run, Obs.Runtime.add_sections report ... *))
      (* run.jsonl is flushed and closed; the enclosing sinks are back *)
    ]}

    Outside any bracket the context is {!off}: tracing and capture go to
    {!Trace.null} / {!Pcap.null} and the hot paths pay one branch per
    event.  {!set_tracer} and the sinks' own [set_enabled] flags act on
    the current context directly (the benchmark harness drives the
    top-level context that way). *)

type 'a sink =
  | Sink of 'a  (** a caller-owned sink ({!Trace.null} / {!Pcap.null} for off) *)
  | File of string  (** opened (truncating) on entry, flushed and closed on exit *)

type profile =
  | Unprofiled
  | Profiled of string option
      (** collect spans; with [Some path], write flamegraph-compatible
          folded stacks there when the run returns — unless a run nested
          in it, which inherits the path through {!current}, already did:
          the file then holds the last nested run's spans *)

type config = {
  trace : Trace.t sink;  (** JSONL events for a [File] *)
  pcap : Pcap.t sink;  (** format of a [File] follows {!Pcap.format_of_path} *)
  profile : profile;
  timeseries : string option;  (** directory {!export_timeseries} writes CSVs into *)
  int : bool;  (** switches stamp in-band telemetry ({!Dcpkt.Int_meta.set_enabled}) *)
  attrib : bool;  (** causal FCT attribution ({!Attrib.set_enabled}) *)
}

val off : config
(** Every sink off. *)

val current : unit -> config
(** The current run's sinks, as [Sink] values: a run nested with
    [{ (current ()) with ... }] shares its enclosing run's tracer, capture,
    profiler and folded-stacks path, and opens no file. *)

val with_run : config -> (unit -> 'a) -> 'a
(** [with_run config f] runs [f] with [config]'s sinks installed.  On
    entry it resets the metrics registry, the INT sink, the attribution
    instance and the profiler's accumulators, so the run's report sections
    describe it alone, and sets the enclosing run's {!Int_feedback}
    subscriptions aside.  On exit, also by exception, it closes the files it
    opened and restores the enclosing context, subscriptions included;
    the accumulators keep the
    run's numbers until the next run starts.  Nests to any depth.  Raises
    [Sys_error] if a [File] cannot be opened. *)

val add_sections : Report.t -> unit
(** Snapshot the current run into [report]: the metrics registry, plus
    the profile section and its cost baselines, the INT section and the
    FCT attribution section, each only when the run touched it.  This is
    the one place that decides which sections a run's report carries. *)

val metrics : unit -> Metrics.t
val tracer : unit -> Trace.t

val set_tracer : Trace.t -> unit
(** Replace the current run's tracer (for example to wrap it in a
    {!Trace.filter_of_spec} filter); the enclosing run's tracer comes back
    when the bracket exits. *)

val pcap : unit -> Pcap.t

val export_timeseries : Timeseries.t -> unit
(** {!Timeseries.write_csv_dir} into the current run's time-series
    directory, or a no-op when it has none — so instrumented experiments
    call it unconditionally. *)

val int_sink : unit -> Int_sink.t
(** Receives every INT stack the fabric's hosts strip. *)

val attrib : unit -> Attrib.t
(** Fed by the send-decision points of the TCP endpoint, the AC/DC sender
    and the fabric hosts while enabled; disabled it costs the hot paths
    one load and one branch. *)
