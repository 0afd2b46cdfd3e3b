module Flow_key = Dcpkt.Flow_key
module Int_meta = Dcpkt.Int_meta

type callback = now:Eventsim.Time_ns.t -> flow:Flow_key.t -> Int_meta.stack -> unit

type subscription = { id : int; flow : Flow_key.t option; callback : callback }

(* A handful of subscribers (one per enforced flow at most), appended
   rarely and scanned per strip: an assoc list is plenty, and dispatch
   order is subscription order — deterministic. *)
let subs : subscription list ref = ref []

let next_id = ref 0

let subscribe ?flow callback =
  incr next_id;
  let id = !next_id in
  subs := !subs @ [ { id; flow; callback } ];
  id

let unsubscribe id = subs := List.filter (fun s -> s.id <> id) !subs

let subscriber_count () = List.length !subs

let reset () =
  subs := [];
  next_id := 0

type saved = subscription list * int

let detach () =
  let saved = (!subs, !next_id) in
  reset ();
  saved

let restore (s, n) =
  subs := s;
  next_id := n

let matches sub ~flow =
  match sub.flow with
  | None -> true
  | Some f -> Flow_key.equal f flow || Flow_key.equal (Flow_key.reverse f) flow

let dispatch ~now ~flow hops =
  match !subs with
  | [] -> ()
  | subs -> List.iter (fun s -> if matches s ~flow then s.callback ~now ~flow hops) subs
