(** Rewrite certificates: the optimizer's trust boundary.

    Every pass in {!Pipeline} emits a certificate — the program before and
    after the rewrite, tagged with the pass name — and the rewrite is only
    applied once the certificate {e discharges}. Both proofs run through
    the system's one exact module, {!Machine.Exec}: first
    [equiv before after] (bit-identical value registers on every one of
    the [n!] input permutations), then [certify after] whenever [before]
    certifies — an independent second proof, mirroring {!Analysis.Dce}'s
    contract. A pass that fails either check is {e refused}: the optimizer
    can decline to optimize but can never miscompile.

    Note that the sound-for-networks 0-1 shortcut ({!Machine.Zeroone}) is
    deliberately {e not} used here: the paper's §2.3 witness shows a cmov
    kernel can sort all [2^n] binary inputs yet fail on a permutation, so
    rewrite certificates over arbitrary kernels must quantify over all
    [n!] permutations. The cheap check only becomes sound after a kernel
    has been {e extracted} to a pure comparator network ({!Extract}). *)

type t = {
  pass : string;  (** Name of the pass proposing the rewrite. *)
  before : Isa.Program.t;
  after : Isa.Program.t;
}

val discharge : Isa.Config.t -> t -> (unit, string) result
(** [Ok ()] iff [after] is {!Machine.Exec.equiv}alent to [before] {e and}
    passes {!Machine.Exec.certify} whenever [before] does. An equivalence
    failure names the pass and a concrete counterexample permutation. *)
