module Time_ns = Eventsim.Time_ns

type 'a entry = { time : Time_ns.t; seq : int; value : 'a }

type 'a t = {
  mutable entries : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* [entries] is lazily grown on first push; index 0 is the root. *)
let create () = { entries = [||]; size = 0; next_seq = 0 }

let is_empty h = h.size = 0
let length h = h.size

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h entry =
  let new_cap = if Array.length h.entries = 0 then 256 else 2 * Array.length h.entries in
  let fresh = Array.make new_cap entry in
  Array.blit h.entries 0 fresh 0 h.size;
  h.entries <- fresh

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier h.entries.(i) h.entries.(parent) then begin
      let tmp = h.entries.(i) in
      h.entries.(i) <- h.entries.(parent);
      h.entries.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && earlier h.entries.(left) h.entries.(!smallest) then smallest := left;
  if right < h.size && earlier h.entries.(right) h.entries.(!smallest) then smallest := right;
  if !smallest <> i then begin
    let tmp = h.entries.(i) in
    h.entries.(i) <- h.entries.(!smallest);
    h.entries.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~time value =
  let entry = { time; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if h.size = Array.length h.entries then grow h entry;
  h.entries.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek_time h = if h.size = 0 then None else Some h.entries.(0).time

let pop h =
  if h.size = 0 then None
  else begin
    let root = h.entries.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.entries.(0) <- h.entries.(h.size);
      sift_down h 0
    end;
    Some (root.time, root.value)
  end

let pop_until h ~limit =
  if h.size > 0 && h.entries.(0).time <= limit then pop h else None

let clear h = h.size <- 0
