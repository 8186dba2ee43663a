(** Proof-carrying dead-code elimination.

    Deletes instructions that {!Lint.check} proves dead (its dead-write,
    dead-cmp and orphan-cmov findings; the first such finding at an index
    names the removal's rule) or the abstract interpreter proves to be
    semantic no-ops, iterating to a fixpoint. The two families alternate
    in separate passes with the analyses recomputed in between — a
    liveness-dead instruction may be exactly what justified another
    instruction's no-op proof, so deleting members of both sets computed
    on the same program would be unsound.

    The rewrite is {e proof-carrying}: {!run} hands the fixpoint to
    {!Machine.Exec.prove_rewrite} (equivalence on every one of the [n!]
    input permutations, then re-certification when the input sorts). If
    the proof fails the rewrite is refused and the original program
    returned untouched — the optimizer can decline to optimize, but can
    never miscompile. *)

type removal = { index : int; rule : Lint.rule }
(** One deleted instruction: [index] is its position in the {e original}
    program; [rule] is the proof that justified the deletion
    ({!Lint.Dead_write}, {!Lint.Dead_cmp}, {!Lint.Orphan_cmov}, or
    {!Lint.Semantic_noop}). *)

type result = {
  optimized : Isa.Program.t;
  removed : removal list;  (** Ascending by original index. *)
  passes : int;  (** Analysis passes run until the fixpoint. *)
  certified : bool;
      (** Did the optimized program pass {!Machine.Exec.certify}? (Equals
          the input's certification status: DCE preserves behavior.) *)
  refused : bool;
      (** True iff a shrink was found but failed re-verification and was
          thrown away. Always [false] unless the analyses are buggy; the
          field exists so tests can assert that. *)
}

val run : Isa.Config.t -> Isa.Program.t -> result
(** Optimize [p] to fixpoint. [optimized] is never longer than [p], and
    [Machine.Exec.run] agrees with [p] on the value registers for every
    input permutation. *)

val fixpoint : Isa.Config.t -> Isa.Program.t -> Isa.Program.t
(** The same fixpoint, {e unproven}: the optimizer's [dce] pass proposes
    it and leaves the proof to the pipeline's own gate, so each proposal
    is proven once. *)
