(** Abstract interpretation over the permutation-set domain.

    The abstract value at a program point is the {e exact} set of register
    assignments ({!Machine.Assign.code}s) reachable at that point across all
    [n!] input permutations. Because a kernel is straight-line and each
    instruction is deterministic, the transfer function is just the image of
    the set under {!Machine.Assign.apply} — the collecting semantics with no
    widening, so there is no abstraction loss whatsoever.

    The sets feed {!semantic_noops} and the per-point counts of
    [synth analyze]. Sortedness is not decided here: the kernel sorts every
    permutation iff every assignment in the final row is sorted, but the
    system's one certifier is {!Machine.Exec.certify}. The test suite
    asserts on random programs that the final row agrees with it — both
    compute the image of the same [n!] initial states under the same
    single-instruction semantics ({!Machine.Exec.step} and
    {!Machine.Assign.apply} are tested equivalent). *)

val reachable : Isa.Config.t -> Isa.Program.t -> Machine.Assign.code array array
(** [reachable cfg p] has [length p + 1] rows; row [i] is the sorted,
    deduplicated set of assignments reachable at point [i] (before
    instruction [i]); row [length p] is the set of final machine states.
    Row sizes never exceed [n!]. *)

val set_sizes : Isa.Config.t -> Isa.Program.t -> int array
(** Per-point reachable-set cardinalities — [Array.map Array.length]
    of {!reachable}. *)

val semantic_noops : Isa.Config.t -> Isa.Program.t -> int list
(** Indices of instructions that change {e no} reachable assignment: for
    every code [c] reachable before the instruction, applying it yields [c]
    itself. Such an instruction is removable with bit-identical machine
    behavior on every input. Strictly stronger than dataflow deadness on
    its reachable inputs, and able to catch no-ops liveness cannot (e.g. a
    [cmovl] whose reaching [cmp] can never set [lt]). Ascending order. *)
