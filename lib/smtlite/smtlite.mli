(** Solver-based synthesis of sorting kernels (paper, Section 4.1), for
    the cmov ISA and the min/max ISA alike (Section 5.4: "our SMT approach
    takes 10 s" for the n = 3 min/max kernel; nothing for n = 4).

    The paper's SMT formulations are finite-domain: register values range
    over [0..n], flags are booleans, and the program is a fixed-length
    vector of instruction-choice variables. This module bit-blasts that
    formulation onto the in-repo CDCL solver ({!Sat}) — the same reduction
    an SMT solver performs internally on such goals:

    - state: one-hot value variables [reg(t, input, r) = v] per time step,
      plus the ISA's flag booleans ([lt]/[gt] for cmov, none for min/max);
    - instructions: a one-hot choice vector per step over the same
      instruction universe as the enumerative search;
    - transitions: implication clauses [choice -> semantics] with frame
      axioms for untouched registers and flags.

    Two strategies are provided, mirroring SMT-PERM and SMT-CEGIS: encode
    all [n!] input permutations up front, or grow the input set from
    counterexamples produced by the ISA's concrete executor through
    {!Machine.Exec.first_unsorted} (the verification oracle — sound here
    because kernels are constant-free, Section 2.3). *)

(** {1 ISAs} *)

type step = {
  choice : int;  (** The instruction's choice variable at this step. *)
  dom : int;  (** Register values range over [0 .. dom - 1]. *)
  now : int array array;  (** [now.(r).(v)]: register [r] holds [v] before. *)
  next : int array array;  (** The same one-hot variables after the step. *)
  flags : int array;  (** Flag bit [b] before the step. *)
  flags' : int array;  (** Flag bit [b] after the step. *)
}
(** The variables one instruction's clauses relate, at one step of one
    encoded input. *)

type 'i isa = {
  universe : Isa.Config.t -> 'i array;
      (** Every instruction a step may choose; a model decodes to these. *)
  flag_bits : int;  (** Flag booleans per step, all clear initially. *)
  writes : 'i -> int option;  (** The register the instruction writes. *)
  writes_flags : 'i -> bool;
  is_cmp : 'i -> bool;  (** What the compare heuristics act on. *)
  semantics : Sat.t -> step -> 'i -> unit;
      (** The instruction's own clauses, each guarded by [-choice]: the
          value of the register it writes and the flags it sets. The
          encoding adds the frame axioms for everything else. *)
  run : Isa.Config.t -> 'i array -> int array -> int array;
      (** The ISA's reference interpreter: input to value registers. *)
}
(** What the encoding needs to know about a machine. *)

val cmov : Isa.Instr.t isa
(** [mov], [cmp], [cmovl], [cmovg] with the [lt] and [gt] flags. *)

val minmax : Minmax.Vinstr.t isa
(** [movdqa], [pmin], [pmax]; no flags and no compare. *)

(** {1 Synthesis} *)

type goal =
  | Goal_exact  (** Output registers equal [1..n] ("= 123"). *)
  | Goal_ascending_present
      (** Output ascending and every value [1..n] present ("<=, #123") —
          equivalent for permutation inputs, different solver behaviour. *)

type heuristics = {
  no_consecutive_cmp : bool;  (** Heuristic (I) of Section 5.2. *)
  first_is_cmp : bool;  (** The "cmd[1] = Cmp" skeleton hint. *)
}
(** Both act on the ISA's compares: on min/max, (I) adds nothing and the
    hint leaves no kernel. *)

val no_heuristics : heuristics
val default_heuristics : heuristics
(** (I) enabled; the compare-symmetry heuristic (II) is always on because
    the shared instruction universe already canonicalizes comparisons. *)

type 'i outcome =
  | Found of 'i array
  | Unsat_length  (** No program of the given length exists. *)
  | Budget_exhausted

type 'i result = {
  outcome : 'i outcome;
  elapsed : float;
  sat_conflicts : int;
  cegis_iterations : int;
      (** Candidates checked against all [n!] inputs; 1 for SMT-PERM. *)
  encoded_inputs : int;  (** Permutations present in the final encoding. *)
}

val synth_perm :
  ?goal:goal ->
  ?heuristics:heuristics ->
  ?conflict_limit:int ->
  'i isa ->
  len:int ->
  int ->
  'i result
(** [synth_perm isa ~len n]: SMT-PERM — one query over all [n!]
    permutations for a program of exactly [len] instructions. Any returned
    program is verified on all permutations before being reported. *)

val synth_cegis :
  ?goal:goal ->
  ?heuristics:heuristics ->
  ?conflict_limit:int ->
  'i isa ->
  len:int ->
  int ->
  'i result
(** SMT-CEGIS — start from a single permutation, let the executor produce
    counterexamples, and re-solve incrementally until the candidate is
    correct on all inputs. Each candidate costs one
    {!Machine.Exec.certifications} tick. *)

val find_min_length :
  ?strategy:[ `Perm | `Cegis ] ->
  ?conflict_limit:int ->
  ?max_len:int ->
  'i isa ->
  int ->
  (int * 'i result) list
(** Probe lengths [1, 2, ...] until a kernel is found (or [max_len] is
    reached), returning the per-length results; the head of the reversed
    list ends with the successful length. Mirrors how minimality is
    established with a solver: length [l] SAT and [l-1] UNSAT. *)
