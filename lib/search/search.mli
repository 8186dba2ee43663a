module Heap : module type of Heap
(** Re-export: the A* open list, one FIFO bucket per priority. *)

module Expand : module type of Expand
(** Re-export: the shared instrumented expansion core all engines run on.
    One [Expand.expand] call applies the action filter, generates
    successors, and vets them against the erasure check, distance
    viability, the length bound, and the perm-count cut — so the three
    engines cannot disagree on what counts as a successor or a prune. *)

module Stats : module type of Stats
(** Re-export: search statistics types and the JSON snapshot builder
    ({!Stats.to_json}). *)

(** Enumerative synthesis of sorting kernels (the paper's core contribution,
    Section 3).

    The search explores the graph whose vertices are canonical synthesis
    states ({!Sstate.t}) and whose edges are ISA instructions. Two engines
    are provided:

    - {!Level_sync} processes states level by level (Dijkstra on the unit-
      cost graph). The first level containing a final state is the optimal
      program length; the engine can enumerate {e all} optimal solutions and
      prove non-existence up to a length bound, which is how the paper
      establishes its new tight lower bound of 20 for [n = 4]. Given
      [~domains], the same engine expands each level on multiple worker
      domains.
    - {!Astar} is best-first on [f = g + h] and is the fast path for finding
      one (or a few) kernels.

    The engines see a machine only as a root state and a successor
    function, so one dispatch runs them over every instruction set:
    {!run_mode} over the cmov machine, {!run_isa} over the min/max and
    hybrid machines.

    All engines share the paper's pruning arsenal through the {!Expand}
    core: state deduplication (Section 3.6), compare-operand symmetry
    (Section 3.2), erasure and distance-budget viability (Section 3.3), the
    optimal-action filter (Section 3.2), and the non-optimality-preserving
    perm-count cut (Section 3.5). *)

include module type of struct
  include Types
end

exception Timeout
(** Raised by the engines when a [?deadline] passes mid-search (checked once
    per expanded node, so the raise is prompt even on large levels). Partial
    statistics are discarded; callers that need bounded runs — the registry's
    batch scheduler in particular — catch this and count the attempt. The
    [search.deadline] fault site can force the raise at a chosen expansion
    count. *)

exception Resource_exhausted of { live : int; budget : int option }
(** Raised (from the {!Expand} core's shared budget chokepoint, checked
    once per expanded node like the deadline) when the live-state count
    exceeds [options.state_budget], or when the [search.alloc_budget]
    fault site fires — in which case [budget] is [None] when no budget
    was configured (reports say "no budget" instead of a sentinel). The
    typed signal the scheduler's degradation ladder catches to retry with
    a more aggressive cut. *)

type mode =
  | Find_first  (** Stop at the first final state. *)
  | All_optimal
      (** Explore every level up to the optimal length and enumerate all
          surviving solutions. *)
  | Prove_none of int
      (** [Prove_none l]: exhaust all levels up to and including [l]; used
          to certify that no kernel of length [<= l] exists. *)

val default : options
(** [Astar], no heuristic, no cut, all actions, both viability checks,
    no bound. *)

val best : options
(** The paper's best configuration (III): A* with the perm-count heuristic,
    optimal-action filter, distance viability, and [Mult 1.0] cut. *)

type 'i outcome = {
  programs : 'i array list;
      (** Solutions, shortest first. Singleton in [Find_first] mode; up to
          [max_solutions] in [All_optimal] mode; empty if none exists within
          the bound. *)
  optimal_length : int option;
      (** Length of the found solutions. In [Level_sync] mode this is
          certified minimal; in [Astar] mode it is minimal when the
          heuristic is admissible. *)
  solution_count : int;
      (** Total number of distinct solution programs surviving the pruning
          configuration, computed as the number of paths through the
          deduplicated state DAG from the root to a final state (parallel
          edges counted), even beyond [max_solutions]. Every engine —
          sequential level-synchronous, parallel level-synchronous, and A*
          (where a find-first run reports the path count of the single
          final node found) — reports this same path-count semantics;
          [distinct_final_states] is the separate, coarser count of distinct
          final {e states}. *)
  distinct_final_states : int;
  stats : stats;
}
(** What a search returns, for programs over instructions ['i]. *)

type result = Isa.Instr.t outcome
(** A search over the cmov machine. *)

val run : ?opts:options -> ?deadline:float -> Isa.Config.t -> result
(** Synthesize sorting kernels for [cfg]. In [Find_first] mode, returns as
    soon as a correct kernel is found. [deadline] is an absolute instant on
    the {e monotonic} clock ({!Fault.Clock.now} — compute it as
    [Fault.Clock.now () +. seconds], never from [Unix.gettimeofday], which
    can step backwards under clock skew); the engine raises {!Timeout} when
    it passes. *)

val run_mode :
  ?opts:options ->
  ?deadline:float ->
  ?domains:int ->
  mode:mode ->
  Isa.Config.t ->
  result
(** {!run} in any {!mode}. [Find_first] runs the engine [opts] names;
    [All_optimal] and [Prove_none] always run [Level_sync], which they
    need for exact level order.

    With [domains], every mode runs [Level_sync] (whatever [engine]
    says), drained by a pool of [domains - 1] worker domains plus the
    calling domain (the paper's parallel Dijkstra; Section 3.1 notes the
    approach "is parallelizable as we can process all programs of a
    certain length in parallel"); without it, the same loop runs with no
    workers. The pool is spawned once per search. Each level's frontier
    is published in node-order chunks of [1 + 256 * workers] nodes; every
    domain claims the chunk's next unclaimed node off a shared atomic
    cursor and expands it through the same {!Expand} core as A*, into
    that node's own result and stat delta. Once the chunk has drained,
    the calling domain merges it node by node in index order — the
    deadline and budget checks, deduplication, path accounting and the
    node's delta — and stops at once when a [Find_first] final is
    found, leaving the rest of the chunk unmerged. So results and
    statistics (programs, [optimal_length], [solution_count], every
    counter and per-level row) are the same for every [domains], and
    the same as a [Level_sync] run without it, in every mode. *)

val run_isa :
  ?opts:options ->
  ?deadline:float ->
  ?domains:int ->
  mode:mode ->
  Isa.Config.t ->
  'i Expand.code_isa ->
  'i outcome
(** {!run_mode} over another machine (the min/max and hybrid ISAs),
    expanding with {!Expand.expand_codes}; [cfg] gives the register
    file. The dispatch is the same — A* or the level loop.
    Only what needs the cmov distance table is dropped: a [Dist_bound]
    heuristic becomes [No_heuristic], and [action_filter] and
    [dist_viability] are ignored. Every other option, the result and the
    statistics mean what they mean for {!run_mode}. *)

type footprint = {
  states : int;  (** Entries of the dedup table as the search ends. *)
  code_bytes : int;
      (** The states' code storage: the bump chunks they sit in, the
          space committed for states the engine then dropped included. *)
  record_bytes : int;  (** The [Sstate.t] records. *)
  node_bytes : int;
      (** Search nodes and parent links reachable from the frontier, the
          open list and the solutions, beyond the states themselves. *)
  cell_bytes : int;  (** The dedup table's bucket array and cells. *)
}
(** What a search holds as it ends, in bytes, by [Obj.reachable_words]:
    the memory cost of the representation, per part. *)

val run_weighed :
  ?opts:options -> mode:mode -> Isa.Config.t -> result * footprint
(** {!run_mode} (sequential) that also weighs what the engine holds just
    before it returns. The walk costs time and memory of its own, so the
    benchmark runs it apart from its timed repeats. *)

val synthesize : ?opts:options -> int -> Isa.Program.t option
(** [synthesize n] finds one sorting kernel for arrays of length [n] with
    the default scratch-register count, using {!best} options unless
    overridden. The result is verified on all [n!] permutations before being
    returned. *)
