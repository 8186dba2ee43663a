(** The proof-carrying optimization pipeline.

    Runs the {!Passes.all} passes round-robin to a fixpoint. Every
    proposed rewrite is gated twice before it is allowed to replace the
    current program:

    - a {e cost gate} — the proposal may not be longer than the current
      program nor raise its {!Perf.Cost.simulated_cycles}; and
    - a {e rewrite proof} — {!Machine.Exec.prove_rewrite} must prove the
      proposal bit-identical on the value registers for all [n!]
      permutations, and re-certify it when the current program sorts.

    A proposal failing either gate is recorded as a refusal and the
    current program is kept, so the pipeline's output is always at least
    as good as its input and always behaves identically. The
    [opt.break_pass] fault site ({!Fault.Opt_break_pass}) sabotages
    proposals before certification; chaos tests use it to prove the
    refusal path actually fires. *)

type delta = {
  pass : string;
  round : int;  (** 1-based round the rewrite was applied in. *)
  instructions_before : int;
  instructions_after : int;
  cycles_before : int;  (** {!Perf.Cost.simulated_cycles}. *)
  cycles_after : int;
  critical_before : int;  (** {!Perf.Cost.analysis.critical_path}. *)
  critical_after : int;
}
(** One applied (certified) rewrite that changed the program. *)

type refusal = { pass : string; round : int; reason : string }
(** One rejected proposal; the program was left untouched. *)

type report = {
  optimized : Isa.Program.t;
  deltas : delta list;  (** Chronological: by round, then pass order. *)
  refusals : refusal list;  (** Chronological. *)
  rounds : int;  (** Rounds run, including the final no-change round. *)
  certified : bool;
      (** Does [optimized] certify as sorting under
          {!Machine.Exec.certify}? (Equals the input's status: the
          pipeline preserves behavior.) *)
}

val max_rounds : int
(** Fixpoint cap (8); deterministic passes converge much sooner. *)

val run : Isa.Config.t -> Isa.Program.t -> report
(** Optimize to fixpoint with {!Passes.all}.
    [optimized] is never longer or slower (simulated cycles) than the
    input and agrees with it on every input permutation. *)
