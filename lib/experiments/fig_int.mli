(** ext-int-hops: per-hop latency attribution from in-band telemetry.

    Runs the parking-lot topology with INT stamping enabled, subscribes
    to the stripped stacks of the longest flow through
    {!Obs.Int_feedback} (the channel an in-fabric congestion law would
    use) and breaks that flow's latency down by switch hop. *)

module Int_hops : sig
  type hop_row = {
    label : string;
    samples : int;
    p50_us : float;
    p99_us : float;
    max_us : float;
    share : float;
    max_qbytes : int;
    mean_svc_gbps : float;
  }

  type result = {
    scheme : string;
    senders : int;
    watched : Dcpkt.Flow_key.t;
    stacks : int;
    tputs : float list;
    hops : hop_row list;
  }

  val run : ?duration:float -> ?senders:int -> unit -> result
  val print : result -> unit
end
