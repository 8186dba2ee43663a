module Vinstr : module type of Vinstr
(** Re-export: the vector instruction set. *)

module Vexec : module type of Vexec
(** Re-export: packed-code and reference execution. *)

(** Synthesis of min/max sorting kernels (paper, Section 5.4).

    The same enumerative approach as the cmov search, run by the same
    engine dispatch ({!Search.run_isa}): A*, the level loop and the domain
    pool. This module only says how a packed {!Vexec} code moves through
    one instruction and what sorted, viable and the perm-count projection
    mean for that layout. There is no distance table for this machine:
    the search space is small enough (the level loop certifies 8, 15 and
    23 for n = 3..5, each minimal under the k=1 cut; 26 is the paper's
    figure at n = 5) that the perm-count heuristic and cut suffice. *)

val default : Search.options
(** {!Search.default} with the perm-count heuristic, the [Mult 1.0] cut
    and no bound: A*, as [synth --minmax] runs by default. *)

val isa : Isa.Config.t -> Vinstr.t Search.Expand.code_isa
(** The machine over [cfg]'s register file, for {!Search.run_isa}. *)

val synthesize :
  ?opts:Search.options -> ?mode:Search.mode -> int -> Vinstr.t Search.outcome
(** [synthesize n] searches for min/max kernels for width [n] with one
    scratch register, by default the first one A* finds; with
    [~mode:All_optimal], every solution surviving the cut at the optimal
    length. Which kernel comes first depends on the engine and on the
    order it walks states in. [Level_sync] certifies the length minimal;
    A*'s perm-count heuristic is not admissible, yet it finds the same
    3/8/15 at n = 2..4. At n = 5 it returns 27, where the level loop
    certifies 23, minimal under the k=1 cut (26 is the paper's
    figure). *)

val network_kernel : int -> Vexec.program
(** The optimal sorting network compiled to 3-instruction compare-and-swaps
    ([movdqa t x_i; pmin x_i x_j; pmax x_j t]) — sizes 9, 15, 27 for
    n = 3..5. *)

val paper_sort3 : Vexec.program
(** The 8-instruction min/max kernel printed in Section 2.1 of the paper. *)

val to_sorter : ?name:string -> int -> Vexec.program -> Perf.Compile.sorter
(** Compile to a branch-free closure over [min]/[max] for benchmarking. *)
