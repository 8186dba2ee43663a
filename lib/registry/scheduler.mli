(** Batch synthesis scheduler.

    Takes a list of kernel requests, serves what it can from the registry,
    and runs the misses across [Domain] workers with a per-job deadline and
    bounded retry. Results come back in input order and are deterministic in
    the worker count: a job's search depends only on its own key, workers
    never share search state, and store insertion happens on the main domain
    in input order after the join — so a batch over [N] workers produces
    byte-identical kernels to running each job sequentially.

    {2 Failure model}

    {!run_batch} never raises: every job — including one whose worker
    domain died mid-flight — ends in a typed {!job_result}, with the
    failed attempts and backoff delays recorded in its [attempt_log].
    A job that exhausts its state budget is first retried {e inside} the
    search dispatch by {!run_key}'s degradation ladder (progressively
    aggressive non-optimality-preserving cuts); a result produced past
    rung 0 is flagged [degraded] and is {e never} inserted into the
    optimal registry. *)

type status =
  | Cached  (** Served from the registry (verified on load). *)
  | Synthesized  (** Search ran and the kernel certified. *)
  | Timed_out  (** Every attempt hit the per-job deadline. *)
  | Exhausted of { live : int; budget : int option }
      (** Every attempt exceeded the live-state budget even at the final
          rung of the degradation ladder. [budget] is [None] when no
          budget was configured (the exhaustion came from the
          [search.alloc_budget] fault site). *)
  | Crashed
      (** The worker domain running this job died (an escaped exception
          or the [scheduler.worker_crash] fault site). Only this job is
          lost; the rest of the batch completes. *)
  | Failed of string  (** No kernel, or certification failed. *)

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
  attempts : int;  (** Search attempts; [0] for cache hits. *)
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
          succeeded or the job was served from cache. *)
  opt_passes : string list;
      (** Certified optimizer passes applied after synthesis (in
          application order, {!Opt.Pipeline} delta names), when the batch
          ran with [~optimize:true]; empty otherwise. *)
  provenance : Store.provenance option;
      (** {!polish}'s provenance: [Some] iff the optimizer changed the
          kernel. Stored with the entry. *)
}

type batch = {
  results : job_result list;  (** Input order. *)
  counters : Store.counters;
      (** Hits/misses/quarantines from the lookup pass, inserts from the
          merge pass, and torn-directory rollbacks from the open-time
          {!Store.recover} scan. *)
}

type run_outcome = {
  result : Search.result;
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
  run_outcome
(** Dispatch one request to the engine its key names: A*, sequential
    level-sync, or {!Search.run_parallel} over [domains] workers (default
    2, [Parallel] keys only). The single place that turns a key into a
    running search — the CLI's default command uses it too.

    [budget] caps live search states ({!Search.options.state_budget}).
    When the search raises {!Search.Resource_exhausted}, [run_key] walks
    the {e degradation ladder}: rung 1 tightens the key's cut (e.g.
    [No_cut] → [Mult 2.0], halving an existing factor), rung 2 forces
    [Mult 1.0], rung 3 adds the optimal-action filter and the perm-count
    heuristic. Rungs whose options coincide with the previous rung are
    skipped; exhaustion at the final rung propagates. [deadline] (an
    absolute {!Fault.Clock.now} instant) spans all rungs — degrading does
    not extend a job's time box. *)

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
    {!run_batch} and the daemon, reach the store through this; so does
    the CLI's default command. *)

val run_one :
  ?optimize:bool ->
  timeout:float option ->
  retries:int ->
  backoff:float ->
  budget:int option ->
  Key.t ->
  job_result
(** One job run to completion in the calling domain: up to [1 + retries]
    attempts through {!run_key}'s degradation ladder, each against its
    own deadline of [timeout] seconds, exponential backoff between
    attempts, then {!polish} — exactly what a batch worker does per
    job. Never raises; every
    failure funnels into the [status] and the [attempt_log]. The
    resident serving pool ([lib/serve]) reuses this so daemon requests
    get the same ladder, backoff, and deadline plumbing as batches. *)

val parse_jobs : string -> (Key.t list, string) result
(** Parse a jobs file: a JSON array of request objects (see
    {!Key.of_json}), e.g.
    [[{"n":3},{"n":4,"engine":"level","max_len":20}]]. *)

val run_batch :
  ?root:string ->
  ?workers:int ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?budget:int ->
  ?optimize:bool ->
  Key.t list ->
  batch
(** [run_batch keys] with [root] set runs {!Store.recover} (crash
    recovery), then consults and populates the registry; without it every
    job synthesizes. [workers] (default 2) domains drain the miss queue.
    [timeout] is per {e attempt} in seconds; a timed-out, exhausted, or
    failed attempt is retried up to [retries] (default 1) more times,
    sleeping an exponential backoff first: [backoff * 2^(attempt-1)]
    seconds (default base 0.05, capped at 2), scaled by a deterministic
    jitter in [0.5, 1.5) derived from the key and attempt number — so
    identical batches sleep identical schedules. [budget] is handed to
    every job's {!run_key}. Workers never touch the store or the counters
    — both are updated on the main domain only. Never raises; a crashed
    worker yields a [Crashed] result for the job it held and the batch
    still returns a result per job, in input order.

    With [~optimize:true] every freshly synthesized kernel goes through
    {!polish}'s optimizer step inside the worker; the stored program is
    the optimized one, with the applied pass list in [opt_passes] and
    the original's digest recorded as {!Store.provenance}. Cache hits are
    served as stored. *)

val status_string : status -> string
(** Lower-case JSON tag: ["cached"], ["synthesized"], ["timed_out"],
    ["exhausted"], ["crashed"], or ["failed"]. *)

val poison_status : status -> bool
(** Outcomes the serve-layer circuit breaker counts as poison evidence
    ([Crashed] and [Exhausted]): a key that crashes workers or exhausts
    its budget will do so again next attempt. Timeouts and transient
    failures say more about load than about the key, so they do not
    count. *)

val batch_json : batch -> Json.t
(** Machine-readable batch summary:
    [{"jobs":[...],"registry":{"hits":...}}]. Each job carries [degraded],
    [rung], and its [attempt_log]; the registry object is
    {!Store.counters_json}. *)
