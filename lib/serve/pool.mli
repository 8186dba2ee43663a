(** Persistent [Domain] worker pool with bounded admission.

    The daemon's CPU-bound half: searches run on a fixed set of domains
    spawned once at startup, while connection threads (cheap, blocking
    I/O) submit closures and sleep until their result is filled in. This
    reuses the scheduler's execution discipline — the closure a server
    submits is {!Registry.Scheduler.run_one}, so every request and batch
    job walks the same degradation ladder, backoff schedule, and
    per-attempt deadline.

    Workers never touch the store; persistence stays on the submitting
    thread.

    Overload safety is enforced at the two moments a job changes hands:
    submission fails fast against a full queue ({!Queue_full}), and a
    claim re-checks the job's absolute deadline on the warped
    {!Fault.Clock} ({!Expired_in_queue} — the closure never runs).
    {!drain} sheds the unclaimed backlog ({!Drained}) and refuses new
    submissions while running jobs finish. *)

exception Worker_died
(** The [serve.worker_death] fault site fired as a worker claimed the
    job: the request fails, the death is counted, and the worker keeps
    serving — the pool never shrinks. *)

exception Pool_stopped
(** Submitted after {!shutdown}. *)

exception Queue_full
(** Submission refused: [max_queue] jobs are already waiting. The
    caller should shed the request with an "overloaded" response. *)

exception Expired_in_queue
(** The job's deadline passed while it sat in the queue; a worker
    claimed it, checked the clock, and shed it without running the
    closure. *)

exception Drained
(** The pool is draining: queued jobs are completed with this, and new
    submissions are refused with it. *)

val queue_stall_warp : float
(** How far the [serve.queue_stall] fault site warps {!Fault.Clock}
    forward at claim time — a deterministic stand-in for a long queue
    wait. *)

type t

val create : ?max_queue:int -> workers:int -> unit -> t
(** Spawn [max 1 workers] domains that live until {!shutdown}. At most
    [max_queue] submitted jobs may wait unclaimed (default unbounded);
    note every job passes through the queue, so [max_queue = 0] refuses
    all work. *)

val run : ?deadline:float -> t -> (unit -> 'a) -> ('a, exn) result
(** Submit a closure and block until a worker has run it (or admission
    shed it — see the exceptions above). [deadline] is absolute on the
    warped {!Fault.Clock}. Exceptions the closure raises come back as
    [Error] — they never kill the worker. *)

val size : t -> int
val worker_deaths : t -> int

val queued : t -> int
(** Jobs currently waiting unclaimed. *)

val queue_hwm : t -> int
(** High-water mark of {!queued} over the pool's lifetime. *)

val drain : t -> unit
(** Shed the unclaimed backlog with {!Drained} (completed immediately,
    on the calling thread — no worker involvement) and refuse new
    submissions; running jobs finish normally. *)

val shutdown : t -> unit
(** Stop accepting jobs, drain the queue, join every worker. Idempotent. *)
