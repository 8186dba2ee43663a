(** Search observability: counters, timeline, per-level breakdown, and a
    machine-readable JSON snapshot.

    Every engine populates one {!stats} per run (exposed as
    [Search.result.stats]). {!to_json} builds the snapshot as a {!Json.t};
    callers graft their own blocks on through [extra] and render once. *)

include module type of struct
  include Types
end

val to_json : ?label:string -> ?extra:(string * Json.t) list -> stats -> Json.t
(** A stats snapshot as a JSON object:
    [{"label": ..., "counters": {...}, "timeline": [...], "levels": [...]}].
    The [label] field is omitted when not given. Each [(name, value)] in
    [extra] is appended as an additional top-level field (this is how the
    registry, analysis and optimizer blocks flow into the snapshot). Float
    fields ([elapsed_s], timeline [t]) round-trip bit-identically through
    {!Json.to_string} and {!Json.parse}. *)
