(* Persistent Domain worker pool for the synthesis daemon (and for a
   local batch, which is the daemon without a socket).

   Domains are spawned once, at create, and live as long as the server:
   domain spawn is milliseconds, too dear per request. Workers block on a
   condition variable, claim closures off a queue, and never touch the
   store: jobs return values through a per-job cell, and all persistence
   happens on the submitting connection thread.

   Overload safety lives here, at the two moments a job changes hands:

   - Submission is *bounded*: at most [max_queue] jobs may wait unclaimed.
     A submit against a full queue fails immediately with [Queue_full] —
     the caller sheds the request instead of parking forever.
   - Claim re-checks the *deadline*: a job whose absolute deadline (on the
     warped [Fault.Clock]) passed while it sat in the queue completes with
     [Expired_in_queue] without the closure ever running, so workers never
     burn cycles on work nobody is waiting for.
   - [drain] flips the pool into draining mode: queued-but-unclaimed jobs
     are completed with [Drained] on the draining thread (no worker
     involvement, so the shed is immediate even when every worker is
     busy), new submissions are refused, and running jobs finish.

   The serve.worker_death fault site is honoured at the moment a worker
   picks a job up: the job completes exceptionally with Worker_died, the
   death is counted, and the worker keeps serving — one request fails,
   the pool does not shrink. The serve.queue_stall site fires at the same
   moment and warps the clock forward, deterministically simulating a
   long queue wait so deadline expiry is testable without sleeping. *)

exception Worker_died
exception Pool_stopped
exception Queue_full
exception Expired_in_queue
exception Drained

(* How far serve.queue_stall warps the clock at claim time — comfortably
   past any deadline a test would propagate. *)
let queue_stall_warp = 60.

(* [run] is what the worker executes on claim; [abort] completes the
   job's cell exceptionally without running the closure — used by
   [drain] to shed the backlog in O(queue) without waiting for a free
   worker. *)
type job = { run : unit -> unit; abort : exn -> unit }

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable stop : bool;
  (* Atomic, not mutex-guarded: read at claim time on worker domains
     without taking t.mutex. *)
  draining : bool Atomic.t;
  mutable handles : unit Domain.t list;
  mutable queue_hwm : int;
  workers : int;
  max_queue : int;
  deaths : int Atomic.t;
}

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stopping *)
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      job.run ();
      loop ()
    end
  in
  loop ()

let create ?(max_queue = max_int) ~workers () =
  let workers = max 1 workers in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stop = false;
      draining = Atomic.make false;
      handles = [];
      queue_hwm = 0;
      workers;
      max_queue = max 0 max_queue;
      deaths = Atomic.make 0;
    }
  in
  t.handles <- List.init workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.workers
let worker_deaths t = Atomic.get t.deaths

let queued t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let queue_hwm t =
  Mutex.lock t.mutex;
  let n = t.queue_hwm in
  Mutex.unlock t.mutex;
  n

let run ?deadline t f =
  let m = Mutex.create () in
  let c = Condition.create () in
  let cell = ref None in
  let complete outcome =
    Mutex.lock m;
    cell := Some outcome;
    Condition.signal c;
    Mutex.unlock m
  in
  let job_run () =
    (* Claim time: the queue wait is over; this is where stalls surface
       and where an expired deadline sheds the job before it costs a
       worker anything. *)
    if Fault.fire Fault.Serve_queue_stall then Fault.Clock.warp queue_stall_warp;
    let outcome =
      if Atomic.get t.draining then Error Drained
      else
        match deadline with
        | Some d when Fault.Clock.now () > d -> Error Expired_in_queue
        | _ ->
            if Fault.fire Fault.Serve_worker_death then begin
              Atomic.incr t.deaths;
              Error Worker_died
            end
            else (match f () with v -> Ok v | exception e -> Error e)
    in
    complete outcome
  in
  let job = { run = job_run; abort = (fun e -> complete (Error e)) } in
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    Error Pool_stopped
  end
  else if Atomic.get t.draining then begin
    Mutex.unlock t.mutex;
    Error Drained
  end
  else if Queue.length t.queue >= t.max_queue then begin
    Mutex.unlock t.mutex;
    Error Queue_full
  end
  else begin
    Queue.push job t.queue;
    if Queue.length t.queue > t.queue_hwm then t.queue_hwm <- Queue.length t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex;
    Mutex.lock m;
    while !cell = None do
      Condition.wait c m
    done;
    let outcome = Option.get !cell in
    Mutex.unlock m;
    outcome
  end

(* Shed the unclaimed backlog and refuse new work; running jobs finish.
   Completing the backlog here, on the draining thread, means waiters
   unblock immediately even when every worker is mid-search. *)
let drain t =
  Atomic.set t.draining true;
  Mutex.lock t.mutex;
  let backlog = Queue.fold (fun acc j -> j :: acc) [] t.queue in
  Queue.clear t.queue;
  Mutex.unlock t.mutex;
  List.iter (fun j -> j.abort Drained) backlog

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.handles;
    t.handles <- []
  end
  else Mutex.unlock t.mutex
