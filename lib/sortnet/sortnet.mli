(** Sorting networks.

    A sorting network is a fixed arrangement of compare-and-swap operations
    (paper, Section 2.1). Networks serve three roles in this reproduction:
    as the classical baseline the synthesized kernels are measured against,
    as warm-start programs for the stochastic superoptimizer, and as the
    source of the "sorting network" rows of the Section 5.3/5.4 tables.

    A network is a list of comparator pairs [(i, j)] with [i < j]; applying
    a comparator orders the values at positions [i] and [j] ascending. *)

type t = { n : int; comparators : (int * int) list }

val make : int -> (int * int) list -> t
(** Validates that all wires are in range and [i < j] for each comparator.
    Raises [Invalid_argument] otherwise. *)

val size : t -> int
(** Number of comparators. *)

val depth : t -> int
(** Number of parallel layers when comparators are greedily scheduled. *)

val optimal : int -> t
(** [optimal n] is a known size-optimal sorting network for [1 <= n <= 8]
    (sizes 0, 1, 3, 5, 9, 12, 16, 19 — Knuth, TAOCP Vol. 3). Raises
    [Invalid_argument] outside that range. *)

val bose_nelson : int -> t
(** The Bose-Nelson construction (recursive merge), valid for any [n >= 1].
    Size-optimal for [n <= 8]. *)

val batcher : int -> t
(** Batcher's odd-even mergesort network, valid for any [n >= 1]. *)

val insertion : int -> t
(** The insertion-sort network — quadratic size, used as a deliberately
    suboptimal warm start. *)

val apply : t -> int array -> int array
(** Run the network on a copy of the input array. *)

val sorts_all_binary : t -> bool
(** The 0-1 lemma check: a network sorts every input iff it sorts all [2^n]
    binary inputs. This is the cheap verification that does {e not} apply to
    cmov kernels (paper, Section 2.3), but does apply to networks. *)

val sorts_all_permutations : t -> bool
(** Exhaustive check on all [n!] permutations, through the one counted
    loop ({!Machine.Exec.first_unsorted}) — used to cross-validate the
    0-1 lemma in tests. *)

val to_kernel : Isa.Config.t -> t -> Isa.Program.t
(** Compile each comparator [(i, j)] to the standard 4-instruction cmov
    snippet (paper, Section 2.1):
    [mov s1 ri; cmp ri rj; cmovg ri rj; cmovg rj s1].
    Requires at least one scratch register. The resulting kernel has
    [4 * size] instructions. *)
