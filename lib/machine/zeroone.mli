(** The 0-1 lemma and its failure for cmov kernels (paper, Section 2.3).

    For sorting networks, correctness on all [2^n] binary inputs implies
    correctness on all inputs (the 0-1 principle). The paper points out
    that this shortcut does {e not} carry over to programs in the cmov ISA,
    where compare and conditional move are separate instructions — so the
    full [n!] permutation suite is required. This module makes that claim
    checkable: it tests kernels on binary inputs and exhibits concrete
    kernels that pass every binary input yet fail on a permutation. *)

val sorts_all_binary : Isa.Config.t -> Isa.Program.t -> bool
(** Run the kernel on all [2^n] 0/1 inputs and check each output is
    ascending and value-preserving. *)

val zero_one_gap :
  Isa.Config.t -> Isa.Program.t -> [ `Equivalent | `Gap of int array ]
(** [`Gap p] when the kernel sorts every binary input but fails on
    permutation [p] — a counterexample to applying the 0-1 lemma.
    [`Equivalent] when binary correctness and permutation correctness agree
    for this kernel (both hold or both fail). *)

val find_counterexample_kernel :
  Isa.Config.t -> (Isa.Program.t * int array) option
(** Search short programs for one witnessing the gap: correct on all [2^n]
    binary inputs, incorrect on some permutation. Returns the kernel and
    the failing permutation. The existence of such kernels is exactly why
    the paper must verify on all [n!] permutations. *)
