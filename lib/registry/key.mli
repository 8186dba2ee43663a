(** Canonical kernel-request keys.

    A registry entry is addressed by the content hash of the canonical
    rendering of the request that produced it: array length [n], scratch
    count [m], ISA variant, search engine, heuristic, cut, and length
    bound. Two requests that would run the identical search share one
    entry; anything that changes the search result changes the address.

    This module is also the single home of the string ↔ variant
    conversions for engines, heuristics, and cuts — the CLI's Cmdliner
    enums and the batch-job JSON parser both read from {!engine_assoc} /
    {!heuristic_assoc}, so the two front ends cannot drift apart. *)

type engine = Astar | Level | Parallel
(** [Level] and [Parallel] both run the level-synchronous engine;
    [Parallel] expands each level on worker domains ({!Search.run_parallel}).
    Both produce identical kernels for a fixed option set, but they are
    distinct key fields so a certified-minimal request never aliases a
    fast-path entry. *)

type t = private {
  n : int;
  m : int;
  isa : string;  (** ["cmov"]; reserved for the min/max variant. *)
  engine : engine;
  heuristic : Search.heuristic;
  cut : Search.cut;
  max_len : int option;
}

val make :
  ?m:int ->
  ?isa:string ->
  ?engine:engine ->
  ?heuristic:Search.heuristic ->
  ?cut:Search.cut ->
  ?max_len:int ->
  int ->
  t
(** [make n] with the defaults of the paper's best configuration
    ({!Search.best}): [m = 1], ["cmov"], [Astar], [Perm_count],
    [Mult 1.0], no bound. Raises [Invalid_argument] on out-of-range
    [n]/[m] (via {!Isa.Config.make}), an unknown ISA string, or a
    [Mult] factor that is not a finite number [> 0]. *)

val equal : t -> t -> bool

val canonical : t -> string
(** Stable one-line rendering, e.g.
    ["v1;isa=cmov;n=3;m=1;engine=astar;heuristic=perm;cut=mult:1.000;len=-"].
    This string is what gets hashed; its format is part of the on-disk
    format and only changes together with the leading version tag. *)

val hash : t -> string
(** Hex digest of {!canonical} — the entry's directory name. *)

val config : t -> Isa.Config.t
val options : t -> Search.options
(** Search options for this request: {!Search.best} specialized to the
    key's engine/heuristic/cut/bound, with the CLI's reconstruction cap. *)

val describe : t -> string
(** Human-readable summary for [registry list]. *)

(** {2 String conversions (shared by CLI and batch parser)} *)

val engine_assoc : (string * engine) list
val engine_to_string : engine -> string
val engine_of_string : string -> (engine, string) result
val heuristic_assoc : (string * Search.heuristic) list
val heuristic_to_string : Search.heuristic -> string
val heuristic_of_string : string -> (Search.heuristic, string) result
val cut_to_string : Search.cut -> string
val cut_of_string : string -> (Search.cut, string) result
val cut_of_factor : float -> Search.cut
(** The CLI's [--cut K] convention: [K <= 0] disables the cut. {!make}
    refuses the [Mult] of a NaN or infinite [K]. *)

(** {2 JSON (metadata records and batch jobs)} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Accepts the {!to_json} form and the batch-job form: an object with a
    required ["n"] and optional ["m"], ["isa"], ["engine"], ["heuristic"],
    ["cut"] (string form or number factor), ["max_len"]. *)
