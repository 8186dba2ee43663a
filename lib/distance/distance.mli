(** Exact distance-to-sorted tables for single register assignments.

    Before the search starts, the paper (Section 3.1) precomputes, for every
    register assignment reachable from some input permutation, the length of
    the shortest instruction sequence that sorts {e that assignment alone}.
    Because a program that sorts all permutations in tandem must in
    particular sort each one, [max] over a state's assignments of this table
    is an admissible (optimality-preserving) A* heuristic, a viability bound
    ("can every assignment still be finished within the remaining budget?",
    Section 3.3), and an action oracle ("which instructions start an optimal
    completion for some assignment?", Section 3.2).

    The assignment space is tiny — at most [(n+1)^(n+m) * 3] packed codes —
    so the table is computed once per configuration by breadth-first rounds
    over the reachable codes. Codes that have lost one of the values [1..n]
    are marked dead before the rounds start (no instruction creates a
    value), so the rounds only visit the few viable ones. The same rounds
    record, for every code, a bitset of the data-moving instructions that
    take it one step closer to sorted ([ceil (data-moving instructions / 62)]
    words, one at [n = 4, m = 1]), which turns the action oracle into an OR
    of table entries ({!mask_word}).

    Invariant: a code's distance does not depend on its flag bits. A
    sorting sequence rewritten to plain [mov]s for the flags it meets sorts
    from any flags, so a [cmp], which rewrites only the flags, maps every
    reachable code to a reachable code at the same distance. The search
    relies on this to vet a [cmp] successor with its parent's bound
    ([Search.Expand.expand]); [test_distance] checks it over every
    reachable code for [n <= 5]. *)

type t

val compute : Isa.Config.t -> t
(** Build the table for a configuration. On a 2-core x86-64 container
    host (OCaml 5.1.1) this takes about 13 ms at [n = 4] and 0.28 s at
    [n = 5] ([m = 1], median of 9 and 5 runs). Memory is two [int] arrays of
    {!Machine.Assign.max_code} entries (1 MB each at [n = 4, m = 1]) plus
    the masks of the finitely-distant codes. *)

val compute_cached : Isa.Config.t -> t
(** Like {!compute} but memoized per configuration — repeated synthesis runs
    (e.g. in benchmarks) share one table. Safe to call from several domains
    at once: the first caller for a configuration computes under a lock and
    every caller receives the same (physically equal) table. *)

val infinity : int
(** Distance reported for assignments that can never be sorted (a value of
    [1..n] was erased). A large sentinel, safe to add small integers to. *)

val dist : t -> Machine.Assign.code -> int
(** [dist t c] is the minimal number of instructions sorting assignment [c],
    or {!infinity} if [c] is dead. Raises [Invalid_argument] if [c] was not
    reachable from any input permutation. *)

val state_lower_bound : t -> Sstate.t -> int
(** [max] of {!dist} over the state's assignments — the admissible heuristic
    for the remaining program length. {!infinity} if any assignment is
    dead. *)

val attach : t -> Sstate.Arena.arena -> unit
(** [attach t arena] lets [arena]'s probes read this table (read-only), so
    each probe computes {!state_lower_bound} of its successor as one table
    load per code; see {!Sstate.Arena.probe_lower_bound}. The arena must be
    built for [t]'s configuration. *)

val reachable_count : t -> int
(** Number of assignment codes reachable from the initial permutations. *)

val max_finite_dist : t -> int
(** The largest finite distance in the table — the sorting "radius" of the
    single-assignment space. *)

val no_viable_dead : t -> bool
(** [true] iff every reachable code that still holds all of [1..n] has a
    finite distance, recorded as the table is built. Then a state whose
    codes are all viable has a lower bound of at most {!max_finite_dist},
    which lets the search settle a move successor's cut without mapping
    it ([Search.Expand.expand]). It holds at every [m >= 1] (a scratch
    register lets any arrangement of the values be sorted) and fails at
    [m = 0] for [n >= 2], where no unsorted permutation can be sorted
    without losing a value. *)

val is_optimal_action : t -> Isa.Instr.t -> Machine.Assign.code -> bool
(** [is_optimal_action t i c] is true iff executing [i] moves [c] strictly
    closer to sorted, i.e. [i] begins some optimal sorting sequence for
    [c]. *)

val action_bit : t -> Isa.Instr.t -> int * int
(** [action_bit t i] is [(w, bit)], where [i]'s bit in the optimal-action
    masks is [bit] (a single set bit) in word [w] of {!mask_word}. A [cmp]
    gives [w = -1]: comparisons are always admitted (see
    {!optimal_actions}). [i] is an optimal action for some code of [s] iff
    [w < 0 || mask_word t s w land bit <> 0]. Compute it once per
    instruction; the test then costs one [land]. *)

val mask_word : t -> Sstate.t -> int -> int
(** [mask_word t s w] is word [w] of the OR of the optimal-action masks of
    [s]'s codes (dead and sorted codes contribute nothing). Allocates
    nothing. Raises [Invalid_argument] if a code of [s] is not reachable. *)

val optimal_actions : t -> Isa.Instr.t array -> Sstate.t -> bool array
(** [optimal_actions t instrs s] marks, for each instruction, whether it is
    an optimal action for at least one assignment in [s] — the paper's
    non-optimality-preserving action filter (Section 3.2). Comparisons are
    always marked: single-assignment optima never contain a [cmp] (values
    are known individually, so unconditional moves suffice), so the literal
    filter would eliminate all comparisons and no kernel could be found.
    A data-moving instruction is marked iff its bit is set in the OR of the
    precomputed masks of [s]'s codes ({!action_bit} against {!mask_word});
    [instrs] may be any selection of {!Isa.Instr.all} in any order. Raises
    [Invalid_argument] if a code of [s] is not reachable. The search tests
    the same bits in place, without building this array. *)
