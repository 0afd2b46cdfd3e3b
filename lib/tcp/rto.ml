module Time_ns = Eventsim.Time_ns

(* The estimator floats sit in their own all-float record, which OCaml
   stores flat: a sample updates them without boxing a float or storing a
   fresh pointer into the long-lived [t]. *)
type est = { mutable srtt : float; (* ns *) mutable rttvar : float }

type t = {
  min_rto : Time_ns.t;
  max_rto : Time_ns.t;
  est : est;
  mutable have_sample : bool;
  mutable backoff_factor : int;
  mutable samples : int;
  mutable backoffs : int;
}

let create ?(min_rto = Time_ns.ms 10) ?(max_rto = Time_ns.sec 4.0) () =
  {
    min_rto;
    max_rto;
    est = { srtt = 0.0; rttvar = 0.0 };
    have_sample = false;
    backoff_factor = 1;
    samples = 0;
    backoffs = 0;
  }

let observe t sample =
  t.samples <- t.samples + 1;
  let r = float_of_int sample in
  let e = t.est in
  if t.have_sample then begin
    (* RFC 6298 gains: beta = 1/4, alpha = 1/8. *)
    e.rttvar <- (0.75 *. e.rttvar) +. (0.25 *. Float.abs (e.srtt -. r));
    e.srtt <- (0.875 *. e.srtt) +. (0.125 *. r)
  end
  else begin
    e.srtt <- r;
    e.rttvar <- r /. 2.0;
    t.have_sample <- true
  end

let timeout t =
  let base =
    if t.have_sample then int_of_float (t.est.srtt +. Float.max 1.0 (4.0 *. t.est.rttvar))
    else Time_ns.sec 1.0 (* RFC 6298 initial RTO; the paper's settings cut in fast *)
  in
  Time_ns.min t.max_rto (Time_ns.max t.min_rto base * t.backoff_factor)

let backoff t =
  t.backoffs <- t.backoffs + 1;
  if t.backoff_factor < 64 then t.backoff_factor <- t.backoff_factor * 2

let reset_backoff t = t.backoff_factor <- 1

let srtt t = if t.have_sample then Some (int_of_float t.est.srtt) else None

let samples t = t.samples

let backoffs t = t.backoffs
