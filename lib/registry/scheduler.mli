(** Kernel requests, one at a time.

    Turns a {!Key.t} into a running search ({!run_key}), a search result
    into a stored entry ({!polish}), and a key into a finished job with
    deadline, bounded retry and backoff ({!run_one}). The batch and
    daemon executor ([lib/serve]'s [Server]) runs {!run_one} on its
    worker pool; workers never share search state, so a job's kernel
    depends only on its own key.

    {2 Failure model}

    {!run_one} never raises: every job ends in a typed {!job_result},
    with the failed attempts and backoff delays recorded in its
    [attempt_log]. A job that exhausts its state budget is first retried
    {e inside} the search dispatch by {!run_key}'s degradation ladder
    (progressively aggressive non-optimality-preserving cuts); a result
    produced past rung 0 is flagged [degraded] and is {e never} inserted
    into the optimal registry. Exhaustion at the final rung ends the job:
    it is not retried. *)

type status =
  | Synthesized  (** Search ran and the kernel certified. *)
  | Timed_out  (** Every attempt hit the per-job deadline. *)
  | Exhausted of { live : int; budget : int option }
      (** The live-state budget was exceeded even at the final rung of
          the degradation ladder (never retried). [budget] is [None] when
          no budget was configured: every attempt hit the
          [search.alloc_budget] fault site. *)
  | Failed of string
      (** No kernel, or certification failed (never retried), or every
          attempt raised. *)

type attempt = {
  n : int;  (** 1-based attempt number. *)
  failure : string;  (** Why this attempt did not produce a kernel. *)
  backoff : float;
      (** Seconds slept before the next attempt; [0.] on the final one. *)
}
(** One failed attempt, as recorded in a job's [attempt_log]. *)

type job_result = {
  key : Key.t;
  status : status;
  program : Isa.Program.t option;
  length : int option;
  attempts : int;  (** Search attempts. *)
  elapsed : float;  (** Seconds spent on this job (all attempts). *)
  search : Search.result option;
      (** Present iff a search completed; its head program is [program],
          the kernel to store (see {!polish}). *)
  degraded : bool;
      (** The kernel came from a non-optimality-preserving ladder rung;
          it is correct (still certified on all [n!] permutations) but
          not guaranteed shortest, and was not stored in the registry. *)
  rung : int;  (** Ladder rung that produced the result; [0] = base. *)
  attempt_log : attempt list;
      (** Failed attempts, oldest first; empty when the first attempt
          succeeded. *)
  provenance : Store.provenance option;
      (** {!polish}'s provenance: [Some] iff the optimizer changed the
          kernel. Stored with the entry. *)
}

type 'i run_outcome = {
  result : 'i Search.outcome;
  degraded : bool;
      (** The result came from a ladder rung above 0: correct but not
          optimality-guaranteed. Callers must not store it as optimal
          ({!Store.insert} refuses it independently). *)
  rung : int;
}
(** What {!run_key} returns: the search result plus how degraded the
    configuration that produced it was. *)

val max_rung : int
(** Highest rung of the degradation ladder (currently 3). *)

val run_key :
  ?deadline:float ->
  ?domains:int ->
  ?mode:Search.mode ->
  ?budget:int ->
  Key.t ->
  Isa.Instr.t run_outcome
(** Dispatch one request to the engine its key names: A*, sequential
    level-sync, or the level loop over a pool of [domains] domains
    (default 2, [Parallel] keys only). The single place that turns a key
    into a running search. {!run_one} calls it for every daemon, batch and
    [--cache] job; the only direct caller in the CLI is the default
    command's uncached path (and [--all] / [--prove-none], which the
    registry never serves).

    [budget] caps live search states ({!Search.options.state_budget}).
    When the search raises {!Search.Resource_exhausted}, [run_key] walks
    the {e degradation ladder}: rung 1 tightens the key's cut (e.g.
    [No_cut] → [Mult 2.0], halving an existing factor), rung 2 forces
    [Mult 1.0], rung 3 adds the optimal-action filter and the perm-count
    heuristic. Rungs whose options coincide with the previous rung are
    skipped; exhaustion at the final rung propagates. A [Prove_none]
    search runs rung 0 only: a harder-pruned rung could report that no
    kernel exists when one does, so its exhaustion propagates at once.
    [deadline] (an absolute {!Fault.Clock.now} instant) spans all rungs —
    degrading does not extend a job's time box. *)

val run_isa_key :
  ?deadline:float ->
  ?domains:int ->
  ?mode:Search.mode ->
  ?budget:int ->
  'i Search.Expand.code_isa ->
  Key.t ->
  'i run_outcome
(** {!run_key} over another machine ({!Search.run_isa}): the same engine
    dispatch, budget and ladder, for the key's register file. The key
    still names a cmov request; [synth --minmax] runs through this. *)

type polished = {
  kernel : Isa.Program.t;  (** The kernel to print and store. *)
  search : Search.result;
      (** The search result with [programs = kernel :: rest]. *)
  report : Opt.Pipeline.report option;
      (** The optimizer pipeline's report, when asked for. *)
  provenance : Store.provenance option;
      (** [Some] iff the optimizer's rewrite differs from the search's
          kernel: the MD5 of the original text and the applied passes. *)
}

val polish :
  optimize:bool -> Key.t -> Search.result -> (polished, string) result
(** The one rule that turns a search result into a stored entry.
    Certifies the head program (the one exact [n!] check, once); with
    [~optimize:true] runs {!Opt.Pipeline.run} on it (every rewrite
    certified, refused passes leave the kernel alone); returns what to
    print and what to hand to {!Store.insert}. [Error] when the result
    has no program or the head does not certify. {!run_one}, and so
    every daemon, batch and [--cache] job, reaches the store through
    this. The only direct caller in the CLI is the default command's
    uncached path, which prints the result and stores nothing. *)

val run_one :
  ?optimize:bool ->
  ?deadline:float ->
  timeout:float option ->
  retries:int ->
  backoff:float ->
  budget:int option ->
  Key.t ->
  job_result
(** One job run to completion in the calling domain: up to [1 + retries]
    attempts through {!run_key}'s degradation ladder (with [budget]),
    each against its own deadline of [timeout] seconds, capped at the
    job's absolute [deadline] (a {!Fault.Clock} instant) if given, then
    {!polish}.
    A {!polish} error (no kernel within the bound, or one that fails
    certification) is final: the search is deterministic, so a retry
    would end the same way. So is an exhaustion of a configured
    [budget], since the live-state count is deterministic too. A
    timed-out attempt, one that raised, or an exhaustion with no budget
    (only the [search.alloc_budget] fault site raises that) sleeps
    before the next:
    [backoff * 2^(attempt-1)] seconds, capped at 2, scaled by a
    deterministic jitter in [0.5, 1.5) derived from the key and attempt
    number — so identical jobs sleep identical schedules. A retry whose
    sleep would end at or after [deadline] is not made: the job ends
    with the failed attempt's status, and no attempt or sleep starts
    once the deadline has passed. Never raises;
    every failure funnels into the [status] and the [attempt_log]. The
    serve pool ([lib/serve]) runs this for every daemon request and
    every batch job. *)

val parse_jobs : string -> (Key.t list, string) result
(** Parse a jobs file: a JSON array of request objects (see
    {!Key.of_json}), e.g.
    [[{"n":3},{"n":4,"engine":"level","max_len":20}]]. *)

val status_string : status -> string
(** Lower-case wire tag: ["synthesized"], ["timed_out"],
    ["exhausted"], or ["failed"]. *)

val poison_status : status -> bool
(** Outcomes the serve-layer circuit breaker counts as poison evidence
    ([Exhausted]): a key that exhausts its budget will do so again next
    attempt. Timeouts and transient failures say more about load than
    about the key, so they do not count. A worker death is poison too,
    but it never reaches a {!job_result}: the serve pool reports it. *)
