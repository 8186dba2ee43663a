(** The CP formulation of sorting-kernel synthesis (paper, Section 4.2),
    for the cmov ISA and the min/max ISA alike (Section 5.4: "our CP
    approach generates a solution in 15.8 s" for the n = 3 min/max kernel;
    nothing for n = 4).

    Mirrors the MiniZinc model: per step, three decision variables
    [(op, dst, src)]; per input permutation and time step, value variables
    for every register plus the ISA's flag variables (two for cmov, none
    for min/max). Instruction semantics are functional propagators
    (forward simulation, as in the paper's ILP/CP transition constraints);
    goals and symmetry-breaking heuristics are posted as additional
    constraints:

    - heuristic (I): no two consecutive compares;
    - heuristic (II): compare operands in ascending register order;
    - optional skeleton hint: first instruction is a compare;
    - optional redundant "no value erased" propagator (the viability rule).

    Like the paper's CP study — where only one solver of seven could solve
    [n = 3] — this model is complete but relies on exhaustive backtracking,
    so [n = 2] solves instantly and [n = 3] needs a large node budget. *)

(** {1 ISAs} *)

type 'i isa = {
  ops : int;  (** Opcode codes are [0 .. ops - 1]. *)
  decode : int -> int -> int -> 'i;  (** [decode op dst src]. *)
  cmp_op : int option;
      (** The compare opcode the heuristics act on; [None]: they post
          nothing. *)
  flag_bits : int;  (** Flag variables per step, all 0 initially. *)
  writes_reg : int -> bool;  (** Does the opcode write [dst]? *)
  writes_flags : int -> bool;
  value : int -> int -> int -> (int -> bool) -> int;
      (** [value op a b flag]: the new [dst] of a register-writing opcode,
          from the old [dst] value [a], the [src] value [b] and the flag
          bits before the step. *)
  flag : int -> int -> int -> int -> bool;
      (** [flag op a b bit]: flag [bit] after a flag-writing opcode. *)
  run : Isa.Config.t -> 'i array -> int array -> int array;
      (** The ISA's reference interpreter: input to value registers. *)
}
(** What the model needs to know about a machine. *)

val cmov : Isa.Instr.t isa
(** Opcodes [mov], [cmp], [cmovl], [cmovg]; flags [lt], [gt]. *)

val minmax : Minmax.Vinstr.t isa
(** Opcodes [movdqa], [pmin], [pmax]; no flags and no compare. *)

(** {1 Synthesis} *)

type goal = Goal_exact | Goal_ascending_present

type options = {
  goal : goal;
  no_consecutive_cmp : bool;  (** (I) *)
  cmp_symmetry : bool;  (** (II) *)
  first_is_cmp : bool;
  erasure_pruning : bool;
}

val default : options
(** Both heuristics and erasure pruning on, [Goal_ascending_present]. The
    min/max runs of Section 5.4 use [Goal_exact]. *)

type 'i outcome = Found of 'i array | Exhausted | Node_limit

type 'i result = {
  outcome : 'i outcome;
  solutions : 'i array list;  (** All found, when enumerating. *)
  nodes : int;
  elapsed : float;
}

val synth :
  ?opts:options ->
  ?node_limit:int ->
  ?all_solutions:bool ->
  'i isa ->
  len:int ->
  int ->
  'i result
(** [synth isa ~len n] searches for programs of exactly [len] instructions
    sorting all permutations of [1..n]. With [all_solutions] the search
    exhausts the space and [solutions] lists every program found. Every
    reported program is verified on all permutations through
    {!Machine.Exec.first_unsorted}. *)

val find_min_length :
  ?opts:options ->
  ?node_limit:int ->
  ?max_len:int ->
  'i isa ->
  int ->
  (int * 'i result) list
(** Probe lengths [1, 2, ...] (as MiniZinc models are run per length). *)
