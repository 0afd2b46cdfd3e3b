(** Name -> experiment runner, for the CLI, the bench harness and the
    experiment farm.

    Each runner executes the experiment at its default (scaled-down)
    parameters and prints the paper-shaped rows/series to stdout.

    Ids are the stable scenario identity the farm's content-addressed
    cache keys hang off: registration is collision-checked, and every
    entry carries a canonical JSON [config] describing the registry-level
    parameter overrides it applies (e.g. MTU variants of one figure). *)

type entry = { id : string; title : string; config : Obs.Json.t; run : unit -> unit }

val register : ?config:Obs.Json.t -> id:string -> title:string -> (unit -> unit) -> unit
(** Add an experiment.  Raises [Invalid_argument] if [id] is already
    registered — duplicate ids would silently shadow each other in lookups
    and alias distinct scenarios to one farm cache entry.  [config]
    defaults to the empty object. *)

val all : unit -> entry list
(** Registration order. *)

val find : string -> entry option
val ids : unit -> string list

val check : ?extra:string list -> string list -> (unit, string) result
(** Validate a command line's ids before anything runs: [Error] names,
    in order, every id that is neither registered nor in [extra] (a
    tool's own scenarios). *)
