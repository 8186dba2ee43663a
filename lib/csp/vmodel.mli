(** CP synthesis of min/max kernels (paper, Section 5.4: "our CP approach
    generates a solution in 15.8 s" for n = 3; nothing for n = 4).

    Decision variables per step: opcode in [{movdqa, pmin, pmax}] and two
    operand registers; state variables per input permutation. Transitions
    propagate functionally once a step's instruction is fixed, as in
    {!Model}, but without flags. *)

type outcome = Found of Minmax.Vexec.program | Exhausted | Node_limit

type result = {
  outcome : outcome;
  solutions : Minmax.Vexec.program list;
  nodes : int;
  elapsed : float;
}

val synth :
  ?node_limit:int -> ?all_solutions:bool -> len:int -> int -> result
(** Search for min/max kernels of exactly [len] instructions for width [n].
    Results are verified on all permutations before being reported. *)

val find_min_length :
  ?node_limit:int -> ?max_len:int -> int -> (int * result) list
