(** The shared, instrumented expansion core.

    Every search engine — A* and level-synchronous Dijkstra, on one
    domain or many — explores the same graph with the same pruning arsenal.
    This module is the single implementation of one expansion step: given a
    state at depth [g - 1], apply the action filter, generate successors,
    and vet each against the erasure check, the distance-viability bound,
    the length bound, and the perm-count cut. Engines differ only in
    {e which} state they expand next and how they merge survivors into
    their open set; what counts as a successor, and what gets pruned, is
    decided here and nowhere else.

    Successor generation runs through a per-domain {!Sstate.Arena}: each
    candidate is probed in arena scratch (applied, then counted, checked
    for finality and viability and bounded in one order-free pass) and
    only survivors are canonicalized. A survivor the engine already knows
    is dropped there too, so only new states are committed to the heap;
    pruned successors allocate nothing. Answers already known are not
    recomputed: the action filter tests precomputed mask bits in place, a
    [cmp] successor (only its flags differ from the parent) is vetted
    with the parent's facts before any code is mapped (a survivor is
    staged by {!Sstate.Arena.stage_cmp}, which maps, dedups and hashes
    its codes and computes no fact), a [mov] or cmov
    successor that would be pruned for erasing a value or by the cut is
    settled from two summaries of the parent (the registers that hold a
    value's only copy, {!Sstate.Arena.sole_holders}, and the count with
    the destination masked) without being mapped, and the remaining probes stop counting once the count
    passes the cut threshold.

    All pruning decisions are recorded in a {!delta} — a small mutable
    counter record private to the caller. A* passes one long-lived delta
    per depth; the level loop expands each node into a delta slot of its
    own and merges it when it consumes the node, so the prune counters
    are exact under parallel execution too. [expand]
    touches no shared mutable state: [env] is read-only and the arena is
    the caller's own, which is what makes the core safe to call from
    multiple domains at once. *)

include module type of struct
  include Types
end

exception Resource_exhausted of { live : int; budget : int option }
(** The typed "out of memory budget" signal: the number of live search
    states exceeded [options.state_budget], or the [search.alloc_budget]
    fault site fired — in which case [budget] is whatever was configured,
    [None] when no budget was set (no sentinel values leak into reports).
    Raised from {!check_budget} — the shared chokepoint all engines call
    once per expanded node — so every engine reports exhaustion the same
    way. Callers that can degrade (the scheduler's ladder) catch this and
    retry with a more aggressive cut; nothing else should swallow it. *)

val check_budget : options -> live:int -> unit
(** [check_budget opts ~live] raises {!Resource_exhausted} when [live]
    (the engine's count of live states: the entries of its dedup table)
    exceeds the configured budget. Zero-cost when no budget is set and no
    fault plan is installed. *)

type delta = {
  mutable generated : int;  (** Successor states built (finals included). *)
  mutable kept : int;
      (** Non-final successors that survived every vetting stage. *)
  mutable finals : int;
      (** Final (sorted-everywhere) successors within the length bound. *)
  mutable pruned_cut : int;
  mutable pruned_viability : int;
  mutable pruned_bound : int;
}
(** Per-call expansion statistics. The vetting stages are mutually
    exclusive — each generated successor lands in exactly one bucket — so
    [generated = kept + finals + pruned_cut + pruned_viability +
    pruned_bound] holds for every delta (and, summed, per level and per
    run). Never shared between domains: each worker owns its delta and the
    owner merges with {!merge_delta}. *)

val zero_delta : unit -> delta

val clear_delta : delta -> unit
(** [clear_delta d] zeroes every counter of [d], for reuse. *)

val merge_delta : into:delta -> delta -> unit
(** [merge_delta ~into d] adds every counter of [d] into [into]. *)

type env = {
  cfg : Isa.Config.t;
  opts : options;
  instrs : Isa.Instr.t array;
  dist : Distance.t option;
  bound : int;  (** Current length bound; [max_int] when unbounded. *)
  filter : (int * int) array;
      (** The action filter, per instruction of [instrs]: its
          {!Distance.action_bit}, or [(-1, 0)] (always tried) when the
          options try every action. *)
}
(** Read-only expansion context, shareable across domains. *)

val make_env : ?bound:int -> Isa.Config.t -> options -> env
(** Build an environment: instantiates the instruction set and, when the
    options need it, the (process-wide cached) distance table. *)

type 'i succ =
  | Final of { instr : 'i; state : Sstate.t }
      (** A sorted-everywhere successor (its count is [1]). *)
  | Open of { instr : 'i; state : Sstate.t; pc : int }
      (** A vetted non-final successor; [pc] is its distinct-permutation
          count. *)
  | Known
      (** A vetted non-final successor that the caller's [known] predicate
          recognized, dropped before commit. It stands where the successor
          would, so the engine counts it as a duplicate at the point where
          it would have counted one. *)

val cut_threshold : options -> min_pc:int -> int
(** Threshold on the distinct-permutation count for states generated from a
    level whose minimum count is [min_pc]; [max_int] means no cut. [Mult k]
    rounds [k * min_pc] to the nearest integer (never truncates) and is
    clamped to at least [min_pc], so ties with the intended threshold are
    kept. *)

val expand :
  ?known:(Sstate.t -> bool) ->
  env ->
  Sstate.Arena.arena ->
  delta ->
  g':int ->
  threshold:int ->
  Sstate.t ->
  Isa.Instr.t succ list
(** [expand env arena delta ~g' ~threshold state] generates and vets every
    successor of [state] at depth [g']. Final states within the length
    bound are always kept (the bound is the only check they meet; one
    past it counts as [pruned_bound]); non-final successors survive
    only if they pass the erasure check, distance viability, the length
    bound, and the cut [threshold]. Counters for generated, kept, final
    and pruned successors accumulate in [delta]. Successors are returned
    in instruction order, so the result is deterministic for a fixed
    [env]. The arena must be private to the calling domain; [env]'s
    distance table, if any, is attached to it, and the survivors that
    come back as {!Final} or {!Open} are committed into it and remain
    valid indefinitely.

    Every [mov] or cmov successor that is mapped goes through
    {!Sstate.Arena.probe}, which raises [Invalid_argument] on a code the
    attached table calls unreachable. A successor settled from the parent
    (a [mov] or cmov pruned for erasure or by the cut) and a [cmp]
    successor (whose facts are the parent's) are never checked, and need
    no check: the table's reachable codes are closed
    under every instruction, so the successors of a state whose codes
    are reachable (every state an engine builds from its root) have
    reachable codes too.

    [known] is the engine's dedup pre-filter: a surviving non-final
    successor for which it answers [true] becomes {!Known} and is never
    committed. It receives a transient {!Sstate.Arena.probe_view} (or the
    parent itself) and must only look it up, never store it. It must
    answer [true] only for states the engine would drop as duplicates
    whatever else this expansion yields; duplicates within one expansion
    or one level are still the engine's to catch. *)

(** {1 Other instruction sets}

    The min/max and hybrid machines keep one packed code per input
    permutation too, in their own layouts, described by a {!code_isa}.
    Their states must never reach the cmov-specific {!Sstate} caches
    ([Sstate.distinct_perms] and friends) or an {!Sstate.Arena}. *)

type 'i code_isa = {
  instrs : 'i array;  (** Every instruction, in expansion order. *)
  input : int array -> int;
      (** The code of one input permutation of [1..n]. *)
  apply : 'i -> int -> int;  (** One code through one instruction. *)
  is_sorted : int -> bool;  (** The value registers hold [1..n] in order. *)
  viable : int -> bool;  (** No value of [1..n] has been erased. *)
  perm_key : int -> int;
      (** The value-register projection, counted by the perm-count cut. *)
}

val code_root : 'i code_isa -> Isa.Config.t -> Sstate.t * bool
(** The initial state (one code per input permutation), carrying its
    distinct-permutation count by [perm_key], and whether it is already
    final. *)

val expand_codes :
  ?known:(Sstate.t -> bool) ->
  env ->
  'i code_isa ->
  delta ->
  g':int ->
  threshold:int ->
  Sstate.t ->
  'i succ list
(** {!expand} for a {!code_isa}, without an arena or a distance table:
    every instruction is generated and vetted as there, so [delta] obeys
    the same identity. [known] has {!expand}'s contract. *)
