type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : float array option; (* cache, invalidated on add *)
}

let create () = { data = [||]; size = 0; sorted = None }

let[@inline] add t x =
  if t.size = Array.length t.data then begin
    let cap = if t.size = 0 then 64 else 2 * t.size in
    let fresh = Array.make cap 0.0 in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- None

(* [add] is inlined here, so the conversion stays unboxed: callers in
   other modules avoid boxing a float argument per sample. *)
let add_int t n = add t (float_of_int n)

let count t = t.size
let is_empty t = t.size = 0

let to_sorted_array t =
  match t.sorted with
  | Some arr -> arr
  | None ->
    let arr = Array.sub t.data 0 t.size in
    Array.sort Float.compare arr;
    t.sorted <- Some arr;
    arr

let percentile t p =
  if t.size = 0 then invalid_arg "Samples.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Samples.percentile: rank out of range";
  let arr = to_sorted_array t in
  let n = Array.length arr in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then arr.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
  end

let median t = percentile t 50.0

let mean t =
  if t.size = 0 then nan
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.data.(i)
    done;
    !sum /. float_of_int t.size
  end

let min t =
  let arr = to_sorted_array t in
  if Array.length arr = 0 then invalid_arg "Samples.min: empty";
  arr.(0)

let max t =
  let arr = to_sorted_array t in
  if Array.length arr = 0 then invalid_arg "Samples.max: empty";
  arr.(Array.length arr - 1)

let cdf ?(points = 100) t =
  if t.size = 0 then []
  else begin
    let arr = to_sorted_array t in
    let n = Array.length arr in
    let quantile i =
      let frac = float_of_int i /. float_of_int points in
      let idx = Stdlib.min (n - 1) (int_of_float (frac *. float_of_int (n - 1) +. 0.5)) in
      (arr.(idx), frac)
    in
    List.init (points + 1) quantile
  end

let iter t ~f =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done
