(** Deterministic, seeded fault injection.

    The synthesis pipeline is only trustworthy as a service if its failure
    paths are exercised as routinely as its happy paths. This module gives
    every fragile operation in the system an {e instrumented chokepoint}: a
    named {!site} whose hits are counted, and which a {!plan} — a seed plus
    a [site -> trigger] map — can make "fail" on a chosen hit, on every
    hit, or with a seeded pseudo-random probability. The whole mechanism is
    a single mutable-cell load when no plan is installed, so production
    runs pay nothing.

    Chokepoints decide {e what} failing means locally: the registry leaves
    a torn temp directory or writes corrupted bytes, the serve pool kills
    a job's worker, the search raises its typed resource-exhaustion or
    timeout exception. This module only answers "does the installed plan
    fire here, now?" ({!fire}) and provides the generic {!Injected} crash
    exception for sites that simulate dying mid-operation.

    Firing is deterministic: it depends only on the plan's seed, the site,
    and the site's hit count — never on wall-clock time or address-space
    layout — so every chaos test replays exactly. *)

(** {1 Sites} *)

(** The instrumented chokepoints. One constructor per fragile operation;
    the name in comments is the spelling used in plan files. *)
type site =
  | Registry_write_kernel
      (** [registry.write_kernel] — torn page: the entry's [kernel.txt] is
          written truncated. The write "succeeds"; corruption is silent. *)
  | Registry_write_meta
      (** [registry.write_meta] — as above for [meta.json]. *)
  | Registry_rename
      (** [registry.rename] — crash after writing the temp dir but before
          the publishing rename: the torn temp dir stays on disk. *)
  | Registry_fsync
      (** [registry.fsync] — crash at the fsync barrier, temp dir stays. *)
  | Scheduler_job_exception
      (** [scheduler.job_exception] — a spurious exception mid-job, inside
          the per-attempt funnel (exercises retry + backoff). *)
  | Search_alloc_budget
      (** [search.alloc_budget] — the live-state budget check reports
          exhaustion regardless of the actual count. *)
  | Search_deadline
      (** [search.deadline] — the deadline check fires early; with an
          [Nth k] trigger this is "the deadline passes at expansion k". *)
  | Opt_break_pass
      (** [opt.break_pass] — the kernel optimizer's rewrite proposal is
          sabotaged (a semantics-changing mutation) before certification,
          so the certifier must refuse it. Exercises the proof-carrying
          contract: a broken pass can never silently miscompile. *)
  | Serve_torn_connection
      (** [serve.torn_connection] — the synthesis daemon's connection is
          torn mid-response: half the response bytes are written, then the
          socket is closed abruptly. The client sees a protocol error; the
          server's store and memory cache must stay intact. *)
  | Serve_slow_client
      (** [serve.slow_client] — a stall is injected while the daemon talks
          to one client, exercising that other connections keep
          progressing (thread-per-connection isolation). *)
  | Serve_worker_death
      (** [serve.worker_death] — a resident pool worker dies after
          claiming a request and before completing it. Only that request
          fails; the pool keeps serving. *)
  | Serve_overload
      (** [serve.overload] — the daemon's admission gate rejects the
          request as if the worker queue were full: a typed
          ["overloaded"] shed response, no worker touched. *)
  | Serve_queue_stall
      (** [serve.queue_stall] — a long queue wait, simulated by warping
          {!Clock} forward at the moment a worker claims the job; with a
          propagated deadline the claim then sheds the request as
          expired-in-queue. *)
  | Serve_snapshot_torn
      (** [serve.snapshot_torn] — the drain-time warm-set snapshot is
          written truncated, as a crash mid-write would leave it; the
          restart must fall back to a cold start, never serve from it. *)
  | Serve_drain_hang
      (** [serve.drain_hang] — in-flight work that never finishes during
          drain: the drain grace period elapses instantly on the warped
          clock, so drain must abandon the stragglers and still write
          the snapshot. *)

val all_sites : site list
val site_name : site -> string
val site_of_name : string -> (site, string) result

(** {1 Triggers and plans} *)

type trigger =
  | Never
  | Always
  | Nth of int  (** Fire on exactly the k-th hit of the site (1-based). *)
  | Every of int  (** Fire on every k-th hit. *)
  | Prob of float
      (** Fire with this probability, from the plan's seeded generator:
          deterministic in (seed, site, hit count). *)

type plan = {
  seed : int;
  warp : float;
      (** Clock skew (seconds) applied via {!Clock.warp} at install time;
          negative values simulate the wall clock jumping backwards. *)
  rules : (site * trigger) list;  (** Sites not listed never fire. *)
}

val plan_of_string : string -> (plan, string) result
(** Parse a plan spec: clauses separated by [';'] or newlines, each
    [seed=N], [clock.warp=SECONDS], or [SITE=TRIGGER] where TRIGGER is
    [always], [never], [nth:K], [every:K], or [prob:P]. Blank clauses and
    [#]-comments are ignored. Example:
    ["seed=42;registry.rename=nth:1;search.alloc_budget=prob:0.25"]. *)

val plan_to_string : plan -> string
(** Canonical one-line spec; [plan_of_string] round-trips it. *)

val load_file : string -> (plan, string) result
(** Read and parse a plan file. *)

val setup : ?file:string -> unit -> (unit, string) result
(** Install the plan from [file] when given (the CLI's [--fault-plan]);
    otherwise from [$SORTSYNTH_FAULT_PLAN], which is an inline spec when
    it contains ['='] and a file path otherwise. No source: no plan is
    installed and injection stays disabled. *)

(** {1 Runtime} *)

exception Injected of site
(** The generic "the process crashed here" simulation, raised by
    chokepoints whose failure mode is dying mid-operation. Sites with a
    richer local failure (silent corruption, typed search exceptions)
    raise their own; see {!site}. *)

val install : plan -> unit
(** Arm the plan (resetting all hit counts) and apply its clock warp. *)

val disarm : unit -> unit
(** Remove the installed plan; {!fire} returns to constant [false].
    Clock warps are {e not} undone — the monotonic clock never rewinds. *)

val active : unit -> plan option

val fire : site -> bool
(** Record one hit of [site] and report whether the installed plan
    triggers on it. Safe to call from any domain (hit counts are atomic);
    with no plan installed this is one load of an immutable option. *)

val hits : site -> int
(** Hits recorded for [site] since the current plan was installed. *)

(** {1 Monotonic clock} *)

(** The clock all deadline math must use. [Unix.gettimeofday] is the
    wall clock: NTP steps and VM suspends can move it {e backwards},
    which turns "deadline in 2 s" into "deadline already passed" (or
    never-passes). This shim never goes backwards: it is the maximum of
    every reading it has produced, over the wall clock plus the
    accumulated {!warp} offset. The injector warps it to simulate skew;
    the monotonicity guarantee is exactly what the warp tests assert. *)
module Clock : sig
  val now : unit -> float
  (** Monotonic seconds. Only differences and stored deadlines derived
      from {!now} are meaningful; the absolute value happens to start
      near the Unix epoch but nothing may rely on that. *)

  val warp : float -> unit
  (** Shift the underlying reading by [dt] seconds (cumulative). A
      negative [dt] simulates the wall clock stepping back: {!now} then
      plateaus at its high-water mark instead of rewinding. *)

  val sleep_for : float -> unit
  (** Wait until {!now} has advanced by [d] seconds. Unlike a raw
      [Unix.sleepf d], the wait re-reads the warped clock every 50 ms of
      real time, so a test that calls {!warp} to jump time forward
      unblocks the sleeper almost immediately — backoff and drain loops
      built on this stay drivable from warp-based tests. Non-positive
      [d] returns at once. *)
end
