type timeseries_ref = Embedded of Timeseries.t | Referenced of string * Timeseries.t

type t = {
  schema : string;
  id : string;
  mutable config : (string * Json.t) list; (* reverse order *)
  mutable scalars : (string * Json.t) list;
  mutable percentiles : (string * Json.t) list;
  mutable metrics : Json.t option;
  mutable profile : Json.t option;
  mutable int_section : Json.t option;
  mutable fct_attrib : Json.t option;
  mutable timeseries : timeseries_ref list;
}

let create ?(schema = "acdc-report/1") ~id () =
  {
    schema;
    id;
    config = [];
    scalars = [];
    percentiles = [];
    metrics = None;
    profile = None;
    int_section = None;
    fct_attrib = None;
    timeseries = [];
  }

let add_config t key v = t.config <- (key, v) :: t.config
let add_scalar t key v = t.scalars <- (key, Json.Float v) :: t.scalars
let add_int t key v = t.scalars <- (key, Json.Int v) :: t.scalars

let summary_fields ~unit_label ~count rest =
  ("count", Json.Int count)
  :: (if unit_label = "" then rest else ("unit", Json.String unit_label) :: rest)

let add_samples t ~name ?(unit_label = "") samples =
  let count = Dcstats.Samples.count samples in
  let body =
    if count = 0 then []
    else
      let p q = (Printf.sprintf "p%g" q, Json.Float (Dcstats.Samples.percentile samples q)) in
      [
        ("mean", Json.Float (Dcstats.Samples.mean samples));
        ("min", Json.Float (Dcstats.Samples.min samples));
        p 50.0;
        p 95.0;
        p 99.0;
        p 99.9;
        ("max", Json.Float (Dcstats.Samples.max samples));
      ]
  in
  t.percentiles <- (name, Json.Obj (summary_fields ~unit_label ~count body)) :: t.percentiles

let add_histogram t ~name ?(unit_label = "") hist =
  let count = Dcstats.Histogram.count hist in
  let body =
    if count = 0 then []
    else
      let p q =
        (Printf.sprintf "p%g" (q *. 100.0), Json.Float (Dcstats.Histogram.quantile hist q))
      in
      [
        ("mean", Json.Float (Dcstats.Histogram.mean hist));
        p 0.5;
        p 0.95;
        p 0.99;
        p 0.999;
        ("underflow", Json.Int (Dcstats.Histogram.underflow hist));
        ("overflow", Json.Int (Dcstats.Histogram.overflow hist));
      ]
  in
  t.percentiles <- (name, Json.Obj (summary_fields ~unit_label ~count body)) :: t.percentiles

let set_metrics t registry = t.metrics <- Some (Metrics.to_json registry)

let set_profile t p = t.profile <- Some p

let set_int t j = t.int_section <- Some j

let set_fct_attrib t j = t.fct_attrib <- Some j

let embed_timeseries t ts = t.timeseries <- Embedded ts :: t.timeseries

let reference_timeseries t ~dir ts = t.timeseries <- Referenced (dir, ts) :: t.timeseries

let timeseries_json = function
  | Embedded ts -> Json.Obj [ ("embedded", Timeseries.to_json ts) ]
  | Referenced (dir, ts) ->
    Json.Obj
      [
        ("dir", Json.String dir);
        ( "files",
          Json.List
            (List.map
               (fun ch ->
                 Json.Obj
                   [
                     ("channel", Json.String (Timeseries.name ch));
                     ( "file",
                       Json.String (Timeseries.sanitize_name (Timeseries.name ch) ^ ".csv") );
                     ("points", Json.Int (Timeseries.length ch));
                   ])
               (Timeseries.channels ts)) );
      ]

let to_json t =
  let fields =
    [
      ("schema", Json.String t.schema);
      ("id", Json.String t.id);
      ("config", Json.Obj (List.rev t.config));
      ("scalars", Json.Obj (List.rev t.scalars));
      ("percentiles", Json.Obj (List.rev t.percentiles));
      ("metrics", Option.value t.metrics ~default:Json.Null);
      ("timeseries", Json.List (List.rev_map timeseries_json t.timeseries));
    ]
  in
  (* [profile], [int] and [fct_attrib] are optional and appended after
     the fixed sections so runs without them stay byte-identical to the
     earlier schema. *)
  let fields =
    match t.profile with None -> fields | Some p -> fields @ [ ("profile", p) ]
  in
  let fields =
    match t.int_section with None -> fields | Some j -> fields @ [ ("int", j) ]
  in
  Json.Obj
    (match t.fct_attrib with
    | None -> fields
    | Some j -> fields @ [ ("fct_attrib", j) ])

let write_json json ~path =
  let oc = open_out path in
  Json.to_channel oc json;
  close_out oc

let write t ~path = write_json (to_json t) ~path

(* ------------------------------------------------------------------ *)
(* Corpus reading and merging — the farm's view of many reports.       *)

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Json.of_string contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok json -> (
      match Json.member "schema" json with
      | Some (Json.String _) -> Ok json
      | Some _ -> Error (Printf.sprintf "%s: non-string \"schema\" field" path)
      | None -> Error (Printf.sprintf "%s: missing \"schema\" field" path)))

let merge_corpus ?(schema = "acdc-corpus/1") ?(extra = []) entries =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  let entry (id, body) =
    let fields =
      match body with
      | Json.Obj fields -> List.filter (fun (k, _) -> k <> "id") fields
      | other -> [ ("body", other) ]
    in
    Json.Obj (("id", Json.String id) :: fields)
  in
  Json.Obj
    ((("schema", Json.String schema) :: extra)
    @ [ ("scenarios", Json.List (List.map entry sorted)) ])

let write_runs reports ~path =
  write_json ~path
    (match reports with
    | [ t ] -> to_json t
    | ts -> merge_corpus (List.map (fun t -> (t.id, to_json t)) ts))
