(** The CP formulation of sorting-kernel synthesis (paper, Section 4.2).

    Mirrors the MiniZinc model: per step, three decision variables
    [(op, dst, src)]; per input permutation and time step, value variables
    for every register plus two flag variables. Instruction semantics are
    functional propagators (forward simulation, as in the paper's ILP/CP
    transition constraints); goals and symmetry-breaking heuristics are
    posted as additional constraints:

    - heuristic (I): no two consecutive compares;
    - heuristic (II): compare operands in ascending register order;
    - optional skeleton hint: first instruction is a compare;
    - optional redundant "no value erased" propagator (the viability rule).

    Like the paper's CP study — where only one solver of seven could solve
    [n = 3] — this model is complete but relies on exhaustive backtracking,
    so [n = 2] solves instantly and [n = 3] needs a large node budget. *)

type goal = Goal_exact | Goal_ascending_present

type options = {
  goal : goal;
  no_consecutive_cmp : bool;  (** (I) *)
  cmp_symmetry : bool;  (** (II) *)
  first_is_cmp : bool;
  erasure_pruning : bool;
}

val default : options
(** Both heuristics and erasure pruning on, [Goal_ascending_present]. *)

type outcome = Found of Isa.Program.t | Exhausted | Node_limit

type result = {
  outcome : outcome;
  solutions : Isa.Program.t list;  (** All found, when enumerating. *)
  nodes : int;
  elapsed : float;
}

val synth :
  ?opts:options -> ?node_limit:int -> ?all_solutions:bool -> len:int -> int -> result
(** [synth ~len n] searches for programs of exactly [len] instructions
    sorting all permutations of [1..n]. With [all_solutions] the search
    exhausts the space and [solutions] lists every program found. Every
    reported program is verified on all permutations. *)

val find_min_length :
  ?opts:options -> ?node_limit:int -> ?max_len:int -> int -> (int * result) list
(** Probe lengths [1, 2, ...] (as MiniZinc models are run per length). *)
