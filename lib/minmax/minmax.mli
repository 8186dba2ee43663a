module Vinstr : module type of Vinstr
(** Re-export: the vector instruction set. *)

module Vexec : module type of Vexec
(** Re-export: packed-code and reference execution. *)

(** Synthesis of min/max sorting kernels (paper, Section 5.4).

    The same enumerative approach as the cmov search, run by the same
    level-synchronous loop ({!Search.run_isa}): this module only says how
    a packed {!Vexec} code moves through one instruction and what sorted,
    viable and the perm-count projection mean for that layout. The search
    space is small enough (optimal lengths 8, 15, 26 for n = 3..5) that no
    distance table is needed. *)

val default : Search.options
(** {!Search.default} with the [Mult 1.0] cut and no bound. *)

val synthesize :
  ?opts:Search.options -> ?mode:Search.mode -> int -> Vinstr.t Search.outcome
(** [synthesize n] searches for minimal min/max kernels for width [n] with
    one scratch register, by default the first one found; with
    [~mode:All_optimal], every solution surviving the cut at the optimal
    length. Which optimal kernel comes first depends on the order the
    level loop walks a level in; the optimal length and an [All_optimal]
    run's solution count do not. *)

val network_kernel : int -> Vexec.program
(** The optimal sorting network compiled to 3-instruction compare-and-swaps
    ([movdqa t x_i; pmin x_i x_j; pmax x_j t]) — sizes 9, 15, 27 for
    n = 3..5. *)

val paper_sort3 : Vexec.program
(** The 8-instruction min/max kernel printed in Section 2.1 of the paper. *)

val to_sorter : ?name:string -> int -> Vexec.program -> Perf.Compile.sorter
(** Compile to a branch-free closure over [min]/[max] for benchmarking. *)
