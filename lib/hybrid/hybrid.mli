(** Hybrid cmov + min/max kernels (paper, Section 5.4).

    The paper briefly investigates kernels mixing conditional moves (general
    purpose register file) with [pmin]/[pmax] (vector register file) and
    reports that the transfer instructions needed between the two files make
    hybrids uncompetitive. This module makes that claim reproducible: it
    models the {e combined} machine — both register files, both instruction
    sets, plus [movd]-style transfers — and runs the same engine dispatch
    over it ({!Search.run_isa}). Values start and must end in the
    general-purpose file, so any use of the vector units has to pay for
    round-trip transfers.

    Register indexing: [0 .. n+m-1] are the general-purpose registers
    (values then scratch, as in {!Isa.Config}); [n+m .. n+m+n+m-1] are the
    vector registers (values then scratch). *)

type instr =
  | Gp of Isa.Instr.t  (** mov/cmp/cmovl/cmovg on the GP file. *)
  | Vec of Minmax.Vinstr.t  (** movdqa/pmin/pmax on the vector file. *)
  | To_vec of int * int  (** [To_vec (x, r)]: vector reg [x] := GP reg [r]. *)
  | To_gp of int * int  (** [To_gp (r, x)]: GP reg [r] := vector reg [x]. *)

type program = instr array

val all_instrs : Isa.Config.t -> instr array
(** The combined instruction universe for width [n] with [m] scratch
    registers per file. *)

val run : Isa.Config.t -> program -> int array -> int array
(** Execute on arbitrary integers; returns the GP value registers. *)

val sorts_all_permutations : Isa.Config.t -> program -> bool
(** {!run} through the one counted n! loop,
    {!Machine.Exec.first_unsorted}. *)

val to_string : Isa.Config.t -> program -> string

val transfer_count : program -> int
(** Number of cross-file transfer instructions. *)

val isa : Isa.Config.t -> instr Search.Expand.code_isa
(** The combined machine over [cfg]'s register files, for
    {!Search.run_isa}. *)

val synthesize : ?cut:Search.cut -> ?max_len:int -> int -> instr Search.outcome
(** Find-first level-synchronous search over the combined machine
    ({!Search.run_isa}: dedup, erasure viability, perm-count cut [cut],
    default [Mult 1.0]; [max_len] defaults to 24). For [n = 2] this
    certifies the hybrid optimum, 4, equal to the pure cmov optimum: the
    optimum ignores the vector file, whose use costs transfers on top of
    the pure min/max optimum. [n = 3] is no certificate: on a 2-core
    x86-64 host it ran 522 s, expanded 2.4 million states and returned a
    17-instruction kernel, longer than the 11-instruction cmov optimum,
    because the [Mult 1.0] cut is not optimality-preserving there. *)
