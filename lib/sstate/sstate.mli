(** Synthesis states.

    A synthesis state tracks the effect of a partial program on {e every}
    input permutation of [1..n] simultaneously (paper, Section 3): one
    {!Machine.Assign.code} per permutation. States are kept in canonical
    form — assignment codes sorted ascending with duplicates removed — which
    realizes the paper's two symmetry reductions (Section 3.6): programs that
    behave identically on all inputs map to the same state, and input
    permutations whose assignments have converged are tracked once.

    Representation: a state's codes are fixed-width cells in a shared
    [Bytes] chunk (so the search can bump-allocate whole levels of states
    into large chunks, see {!Arena}): 3 bytes each when the state's
    largest code fits in 24 bits, as every code does in a configuration
    with at most 7 registers, else 4. The width follows
    from the codes, so equal states share it, and {!equal} compares raw
    bytes. The record is four words: the chunk, the offset, the hash, and
    one immediate word packing the length, the width and the caches for
    the facts every engine asks of every state — distinct-permutation
    count, finality, viability and the distance bound. {!hash} is
    precomputed; after first use {!distinct_perms} / {!is_final} /
    {!all_viable} are O(1), and on the {!Arena} path they arrive filled
    from the probe. Reading the codes ({!fold}, {!codes}) decodes the
    cells; the arena decodes a parent once per expansion and works on
    ints from there. *)

type t
(** Canonical: strictly increasing sequence of assignment codes, never
    empty. Structurally immutable; internal caches are benign-race safe
    (deterministic values, each fill one word-sized write; a fill lost to
    a racing one is computed again). *)

val initial : Isa.Config.t -> t
(** One assignment per permutation of [1..n], scratch zeroed, flags clear. *)

val of_codes : ?perms:int -> int array -> t
(** Canonicalize an arbitrary code vector (sort + dedup). The input array is
    not modified. [perms], when given, is stored as the state's
    {!distinct_perms}: a machine whose permutation key is not the cmov
    layout's ([Expand.expand_codes]) records its own count there, so the
    engines can read every state's count from the state. At most
    [2^19 - 1] distinct codes, each at least 0 and below [2^32] (every
    machine's codes are below [2^29]); [Invalid_argument] otherwise. *)

val codes : t -> int array
(** The canonical codes as a fresh array (a copy: mutating it does not
    affect the state). Hot paths should prefer {!fold}. *)

val size : t -> int
(** Number of distinct assignments in the state. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Fold over the canonical codes in ascending order, without allocating. *)

val apply : Isa.Config.t -> Isa.Instr.t -> t -> t
(** Execute one instruction on every assignment and re-canonicalize. The
    search's hot loop uses {!Arena.probe} / {!Arena.commit} instead. *)

val is_final : Isa.Config.t -> t -> bool
(** All assignments have their value registers sorted ([1..n] in order).
    Cached after the first query. *)

val distinct_perms : Isa.Config.t -> t -> int
(** Number of distinct value-register projections — the paper's main
    progress metric ("how much the array has been sorted", Section 3.1) and
    the quantity its cut heuristic thresholds (Section 3.5). Cached after
    the first query. *)

val distinct_assignments : t -> int
(** Number of distinct full assignments (equals {!size} because states are
    deduplicated). *)

val all_viable : Isa.Config.t -> t -> bool
(** No assignment has lost one of the values [1..n] (paper, Section 3.3).
    Cached after the first query. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** FNV-1a over the code sequence, as ints (the cell width does not enter
    it). Precomputed during canonicalization, so this is O(1) —
    dedup-table operations no longer rehash the codes. *)

val lb_cache : t -> int
(** Cached distance lower bound, [-1] when not yet computed. Maintained by
    [Distance.state_lower_bound]; meaningful only for the single machine
    configuration the state was built for. *)

val set_lb_cache : t -> int -> unit
(** Cache a bound. The cache holds bounds below [65535]; a larger one
    (the distance table's infinity) is not kept, and {!lb_cache} stays
    [-1]. *)

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by canonical states. *)

(** Per-domain scratch for the expansion hot loop.

    An arena owns (1) int scratch: the decoded parent, a probe buffer and
    a permutation-key stamp table, reused by every {!Arena.probe} so that
    generating-and-vetting a successor allocates nothing, and (2) the
    current bump chunk that {!Arena.commit} encodes surviving states into.
    The parent is decoded on the first call that reads it ({!Arena.probe},
    {!Arena.stage_cmp}, {!Arena.perms_without}, {!Arena.sole_holders})
    and kept until a call names another state, so one expansion decodes
    its parent once and every probe of it runs on ints. Only a survivor
    is encoded, once, into the chunk's free end: {!Arena.probe_view}
    encodes it there for the dedup lookup and {!Arena.commit} keeps it by
    bumping past it. Pruned successors — the overwhelming majority under
    the paper's cuts — never touch the heap, and neither do survivors the
    caller already knows (it looks them up through {!Arena.probe_view}
    before deciding to commit). Arenas are single-domain: the parallel
    engine gives each worker its own. Committed states remain valid for
    the arena's whole lifetime and beyond (chunks are retired to the GC,
    never recycled). *)
module Arena : sig
  type arena

  val create : Isa.Config.t -> arena

  val attach_distance : arena -> int array -> infinity:int -> unit
  (** [attach_distance a table ~infinity] makes every later probe also
      compute the distance lower bound ({!probe_lower_bound}). [table] is
      indexed by assignment code: a distance [>= 0], [-1] for a code that
      can never be sorted (reported as [infinity]), [-2] for a code not
      reachable from any input (the probe raises [Invalid_argument]). The
      arena reads the table and never writes it; it must be built for the
      arena's configuration. [Distance.attach] is the intended caller. *)

  type outcome =
    | Unchanged
        (** Every code mapped to itself: the successor {e is} the input
            state (same canonical form, caches included). Nothing was
            written to the arena. *)
    | Changed
        (** The successor differs; its codes and order-free facts are
            staged in the arena. Valid until the next [probe]. *)

  val probe : ?limit:int -> arena -> Isa.Instr.t -> t -> outcome
  (** Apply [instr] to every code of the state into arena scratch and, in
      one pass over the mapped codes as they come (unsorted, duplicates
      included), compute the distinct-permutation count, finality,
      viability and, with a table attached, the distance lower bound —
      without allocating. None of these depends on order or duplicates,
      so the probe does not canonicalize: sorting, dedup and the hash are
      deferred to the first {!probe_size}, {!probe_view} or {!commit}.

      [limit] (default [max_int]: none) is the caller's cut threshold.
      Once the count exceeds it and is at least 2, the probe stops
      counting and stops checking finality, order and whether anything
      changed; it still reads every code's distance (raising on an
      unreachable one) and viability. Such a probe returns [Changed]
      even when no code moved, {!probe_distinct_perms} is then some count
      above [limit] (not the exact one), finality is [false], and
      viability and the lower bound are exact: every fact vetting reads
      before the cut. Its successor is cut, so it cannot be sized, viewed
      or committed ([Invalid_argument]). A count at or below [limit]
      leaves the probe exactly as without one. *)

  val perms_without : arena -> t -> int -> int
  (** [perms_without a s d] is the number of distinct value-register
      projections of [s] with value register [d] left out (the count of
      [s]'s codes keyed by the other [n - 1] value registers), counted
      with the arena's stamp table, without allocating. An instruction
      that writes only register [d] leaves every successor code's
      projection without [d] as it was, so its successor has at least
      this many distinct permutations: the floor the search's cut reads
      before probing a move into [d]. The staged probe, if any, is left
      as it was. *)

  val sole_holders : arena -> t -> int
  (** [sole_holders a s] ORs {!Machine.Assign.sole_holders} over the codes
      of [s], three ways, packed into one int: bits 0-9 over every code,
      bits 10-19 over the codes whose flags read lt, bits 20-29 over
      those that read gt. Computed once per parent, without allocating:
      one byte load per code from a table indexed by the code's register
      fields, built once per [(n, m)] and shared by every arena. The
      table takes [2^(3 * nregs)] bytes (32 KB at n = 4, 256 KB at n = 5,
      2 MB at 7 registers); a configuration with 8 or 9 registers (n = 6
      with m >= 2, n = 5 with m = 3) has none and computes each code's
      holders instead. The staged probe, if any, is left as it was. *)

  val stage_cmp : arena -> Isa.Instr.t -> t -> outcome
  (** [stage_cmp a i s] stages the successor of [s] under the [cmp] [i]
      as {!probe} does, without computing any fact: a [cmp] rewrites only
      the flag bits, which none of the facts reads, so the successor's
      distinct-permutation count, finality, viability and (with a table
      attached) lower bound are [s]'s own — its caches, filled on first
      use; the bound from the table when [s] has none cached. The flag
      bits sit below every register field, so the mapped codes come out
      non-decreasing, with codes that differed only in flags now adjacent
      duplicates: one pass spots an unchanged result, drops the
      duplicates and computes the hash, and the staging is canonical at
      once. Returns [Unchanged] or [Changed] as {!probe} (without a limit)
      would, and the [probe_*] accessors, {!probe_size}, {!probe_view} and
      {!commit} then answer exactly as after that probe. Raises
      [Invalid_argument] if [i] is not a [cmp]. *)

  val probe_distinct_perms : arena -> int
  val probe_is_final : arena -> bool
  val probe_all_viable : arena -> bool

  val probe_lower_bound : arena -> int
  (** [max] of the attached table over the staged codes (as
      [Distance.state_lower_bound] of the successor), or [-1] when no
      table is attached. *)

  val probe_size : arena -> int
  (** Number of distinct codes of the staged successor. Canonicalizes. *)

  val probe_view : arena -> t
  (** The staged successor as a state whose cells sit in the chunk's free
      end, not yet committed — for a dedup-table lookup before deciding
      to commit. Canonicalizes and encodes. The view is transient: it is
      valid only until the next [probe] or [stage_cmp] and must never be
      stored (in a table, a node or a result); {!commit} is the way to
      keep the successor. *)

  val commit : arena -> t
  (** Materialize the staged successor into the arena's bump chunk,
      canonicalizing and encoding it first if no earlier call did (after
      {!probe_view}, it only keeps the cells the view encoded). Only call
      after [probe] returned [Changed]; call at most once per probe. *)
end
