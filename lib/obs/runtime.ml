type 'a sink = Sink of 'a | File of string

type profile = Unprofiled | Profiled of string option

type config = {
  trace : Trace.t sink;
  pcap : Pcap.t sink;
  profile : profile;
  timeseries : string option;
  int : bool;
  attrib : bool;
}

let off =
  {
    trace = Sink Trace.null;
    pcap = Sink Pcap.null;
    profile = Unprofiled;
    timeseries = None;
    int = false;
    attrib = false;
  }

let the_metrics = Metrics.create ()
let the_tracer = ref Trace.null
let the_pcap = ref Pcap.null
let the_folded = ref None
let the_timeseries = ref None
let the_int_sink = Int_sink.create ()
let the_attrib = Attrib.create ()

let metrics () = the_metrics
let tracer () = !the_tracer
let set_tracer t = the_tracer := t
let pcap () = !the_pcap
let int_sink () = the_int_sink
let attrib () = the_attrib

let current () =
  {
    trace = Sink !the_tracer;
    pcap = Sink !the_pcap;
    profile = (if Prof.enabled () then Profiled !the_folded else Unprofiled);
    timeseries = !the_timeseries;
    int = Dcpkt.Int_meta.enabled ();
    attrib = Attrib.enabled the_attrib;
  }

(* [config]'s trace and pcap fields are ignored: [with_run] passes them
   resolved, with any file opened. *)
let install ~tracer ~pcap config =
  the_tracer := tracer;
  the_pcap := pcap;
  (* Toggling resets the span stack, so leave an unchanged flag alone. *)
  let profiling = config.profile <> Unprofiled in
  if Prof.enabled () <> profiling then Prof.set_enabled profiling;
  the_folded := (match config.profile with Profiled p -> p | Unprofiled -> None);
  the_timeseries := config.timeseries;
  Dcpkt.Int_meta.set_enabled config.int;
  Attrib.set_enabled the_attrib config.attrib

(* Bumped by every folded-stacks write, so a run can tell whether a run
   nested in it already wrote the file it names. *)
let folded_writes = ref 0

let with_run config f =
  let writes_before = !folded_writes in
  let enclosing = current () and tracer_was = !the_tracer and pcap_was = !the_pcap in
  let feedback_was = Int_feedback.detach () in
  let opened = ref [] in
  let open_file opener path =
    let oc = opener path in
    opened := oc :: !opened;
    oc
  in
  Fun.protect
    ~finally:(fun () ->
      install ~tracer:tracer_was ~pcap:pcap_was enclosing;
      Int_feedback.restore feedback_was;
      List.iter close_out !opened)
    (fun () ->
      let tracer =
        match config.trace with
        | Sink t -> t
        | File path -> Trace.jsonl_channel (open_file open_out path)
      in
      let pcap =
        match config.pcap with
        | Sink p -> p
        | File path ->
          let oc = open_file open_out_bin path in
          Pcap.create ~format:(Pcap.format_of_path path) ~write:(output_string oc)
      in
      Metrics.reset_all the_metrics;
      Int_sink.reset the_int_sink;
      Attrib.reset the_attrib;
      Prof.reset ();
      install ~tracer ~pcap config;
      let result = f () in
      (match config.profile with
      | Profiled (Some path) when Prof.touched () && !folded_writes = writes_before ->
        Prof.write_folded ~path;
        incr folded_writes
      | Profiled _ | Unprofiled -> ());
      result)

let add_sections report =
  Report.set_metrics report the_metrics;
  if Prof.touched () then begin
    Report.set_profile report (Prof.to_json ());
    List.iter (fun (key, v) -> Report.add_scalar report key v) (Prof.baselines ())
  end;
  if Int_sink.touched the_int_sink then Report.set_int report (Int_sink.to_json the_int_sink);
  if Attrib.touched the_attrib then Report.set_fct_attrib report (Attrib.to_json the_attrib)

let export_timeseries ts =
  match !the_timeseries with
  | None -> ()
  | Some dir -> Timeseries.write_csv_dir ts ~dir
