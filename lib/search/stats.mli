(** Search observability: counters, timeline, per-level breakdown, and a
    machine-readable JSON snapshot.

    Every engine populates one {!t} per run (exposed as
    [Search.result.stats]). {!to_json} builds the snapshot as a {!Json.t};
    callers graft their own blocks on through [extra] and render once. *)

type trace_point = {
  t : float;  (** Seconds since the search started. *)
  open_states : int;
  solutions_found : int;
}

type level_stat = {
  depth : int;  (** Depth of the expanded nodes. *)
  nodes_expanded : int;  (** States of this depth processed. *)
  succs_generated : int;
      (** Successors built from them (final states included). *)
  succs_kept : int;
      (** Non-final successors that survived every vetting stage. *)
  finals_found : int;  (** Final successors (they bypass vetting). *)
  succs_deduped : int;  (** Successors dropped as already seen. *)
  cut_pruned : int;
  viability_pruned : int;
  bound_pruned : int;
  open_after : int;
      (** Level engines: surviving distinct states entering depth
          [depth + 1]. A*: states pushed onto the heap at depth
          [depth + 1] (cumulative pushes, not a net count). *)
}
(** Prune/expansion breakdown for one search depth. The vetting buckets
    are mutually exclusive and exhaustive:
    [succs_generated = succs_kept + finals_found + cut_pruned +
    viability_pruned + bound_pruned] holds at every depth, for every
    engine. *)

type t = {
  expanded : int;  (** States popped / processed. *)
  generated : int;  (** Successor states built. *)
  deduped : int;  (** Successors dropped as already seen. *)
  pruned_cut : int;
  pruned_viability : int;
  pruned_bound : int;
  max_open : int;
  elapsed : float;
  timeline : trace_point list;  (** Oldest first. *)
  levels : level_stat list;  (** Shallowest first. *)
}

val to_json : ?label:string -> ?extra:(string * Json.t) list -> t -> Json.t
(** A stats snapshot as a JSON object:
    [{"label": ..., "counters": {...}, "timeline": [...], "levels": [...]}].
    The [label] field is omitted when not given. Each [(name, value)] in
    [extra] is appended as an additional top-level field (this is how the
    registry, analysis and optimizer blocks flow into the snapshot). Float
    fields ([elapsed_s], timeline [t]) round-trip bit-identically through
    {!Json.to_string} and {!Json.parse}. *)
