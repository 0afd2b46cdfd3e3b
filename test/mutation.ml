(* Byte-level mutations for the decoder-robustness properties: bit flips,
   truncation and trailing junk, applied in sequence to a valid input. *)

type t =
  | Flip of int * int (* byte offset (mod length), bit *)
  | Truncate of int
  | Junk of string

let apply s = function
  | Flip (pos, bit) when s <> "" ->
    let b = Bytes.of_string s in
    let i = pos mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  | Flip _ -> s
  | Truncate n -> String.sub s 0 (n mod (String.length s + 1))
  | Junk junk -> s ^ junk

let apply_all s mutations = List.fold_left apply s mutations

let to_string = function
  | Flip (pos, bit) -> Printf.sprintf "Flip (%d, %d)" pos bit
  | Truncate n -> Printf.sprintf "Truncate %d" n
  | Junk junk -> Printf.sprintf "Junk %S" junk

let arbitrary =
  let offset = QCheck.Gen.int_bound (1 lsl 30) in
  let one =
    QCheck.Gen.(
      oneof
        [
          map2 (fun pos bit -> Flip (pos, bit)) offset (int_bound 7);
          map (fun n -> Truncate n) offset;
          map (fun junk -> Junk junk) (string_size ~gen:char (1 -- 8));
        ])
  in
  QCheck.make
    ~print:(fun ms -> String.concat "; " (List.map to_string ms))
    QCheck.Gen.(list_size (1 -- 4) one)
