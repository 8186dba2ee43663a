(* The search's configuration and statistics, declared once. [Expand],
   [Stats] and [Search] include this module, so [Search.Level_sync],
   [Search.Expand.options] and [Search.Stats.to_json]'s argument are all
   these types. *)

type heuristic =
  | No_heuristic  (** [h = 0]: plain Dijkstra ordering. *)
  | Perm_count
      (** Number of distinct value-register projections minus one — the
          paper's best-performing guidance (Section 3.1). Not admissible. *)
  | Assign_count
      (** Number of distinct full assignments minus one. Not admissible. *)
  | Dist_bound
      (** [max] over assignments of the precomputed single-assignment
          distance (Section 3.1). Admissible, so A* stays optimal. *)

type cut =
  | No_cut
  | Mult of float
      (** [Mult k]: discard a state at level [l] whose distinct-permutation
          count exceeds [k *] the minimum over the surviving states at level
          [l - 1] (Section 3.5). [Mult 1.0] is the most aggressive setting;
          [Mult 2.0] keeps every optimal [n = 3] solution. *)
  | Add of int
      (** [Add d]: additive variant — discard when the count exceeds the
          previous level's minimum plus [d] (the "+2" row of the ablation
          table). *)

type action_filter =
  | All_actions
  | Optimal_guided
      (** Only instructions that begin an optimal sorting sequence for at
          least one assignment in the state (Section 3.2). Not
          optimality-preserving. *)

type engine = Astar | Level_sync

type options = {
  engine : engine;
  heuristic : heuristic;
  cut : cut;
  action_filter : action_filter;
  erasure_check : bool;  (** Prune states that erased a value (Sec. 3.3). *)
  dist_viability : bool;
      (** Prune states whose distance lower bound exceeds the remaining
          budget (requires a length bound to bite; always prunes dead
          assignments). *)
  max_len : int option;  (** Initial length bound, if known. *)
  max_solutions : int;
      (** Cap on reconstructed programs in [All_optimal] mode (the exact
          count is always reported; only reconstruction is capped). *)
  trace_every : int option;
      (** Sample the timeline (Figure 1) every this many expansions. *)
  state_budget : int option;
      (** Cap on live search states: the entries of the dedup table
          (PAPER.md §6 reports multi-GB state sets at [n = 5]). Exceeding
          it raises [Resource_exhausted]; [None] never does. *)
}
(** Every engine deduplicates states across the whole search
    (Section 3.6). *)

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

type stats = {
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
