(** The rewrite passes.

    Each pass is a {e proposer}: a pure function from program to program
    that is believed — but never trusted — to preserve behavior. The
    {!Pipeline} driver proves every proposal with
    {!Machine.Exec.prove_rewrite} over all [n!] permutations before the
    rewrite is allowed to stand; a pass therefore only needs to be
    {e usually} right, and a bug in any pass manifests as a refused
    rewrite, never as a miscompile.

    Passes must keep every instruction {!Isa.Instr.valid} (notably the
    [dst < src] canonical order of [cmp]); when a rewrite would violate
    validity the pass keeps the original instruction instead. *)

type pass = {
  name : string;  (** Stable identifier used in reports and provenance. *)
  apply : Isa.Config.t -> Isa.Program.t -> Isa.Program.t;
}

val copy_propagate : pass
(** ["copy-propagate"] — forwards [mov] sources: a read of a register
    known to be a copy is redirected to the copied-from register
    (chasing chains), turning moves into dead code for {!dce} to collect.
    Conditional writes invalidate facts about their destination. *)

val redundant_cmp : pass
(** ["redundant-cmp"] — deletes a [cmp] whose operand pair equals the
    flags-defining [cmp] still in effect (same operands, neither written
    since): the flags it computes are already set. *)

val coalesce_cmov : pass
(** ["coalesce-cmov"] — two shapes: (a) of two same-condition conditional
    moves to the same destination under the same flags with no
    intervening read or write of that destination, the first is dropped
    (the second overwrites it exactly when it fired at all); (b) an
    adjacent [cmovl d s; cmovg d s] pair (either order) whose in-effect
    flags come from comparing [d] with [s] collapses to [mov d s] — the
    pair copies on [<] and on [>], and on equality the copy is the
    identity. *)

val canonicalize : pass
(** ["canonicalize"] — renames scratch registers to a canonical
    numbering (order of first definition), so that e.g. a kernel using
    [s2] before [s1] becomes textually identical to its [s1]-first twin.
    Value registers are the kernel's interface and are never renamed.
    Scratch registers all start with the same initial value, so any
    scratch permutation preserves behavior. *)

val dce : pass
(** ["dce"] — {!Analysis.Dce.fixpoint}: DCE's removals, proposed
    unproven so the pipeline's own rewrite proof checks them once. *)

val schedule : pass
(** ["schedule"] — dependence-DAG list scheduler. Builds the full
    dependence graph from {!Isa.Instr.uses} and {!Isa.Instr.defs}
    (read-after-write, write-after-read and write-after-write, over
    registers {e and} flags — unlike {!Perf.Cost.dependence_edges},
    which is RAW-only and must not be used for reordering), then
    re-orders by latency-weighted critical
    path under the in-order issue model of
    {!Perf.Cost.simulated_cycles}. The reorder is kept only when it
    strictly lowers the simulated cycle count. *)

val all : pass list
(** The pipeline order: [copy_propagate], [redundant_cmp],
    [coalesce_cmov], [dce], [canonicalize], [schedule]. Cleanups run
    before the scheduler so it sees the smallest program. *)

val find : string -> pass option
(** Look up a pass in {!all} by name. *)
