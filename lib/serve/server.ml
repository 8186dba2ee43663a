(* The synthesis daemon: request handling, coalescing, admission
   control, and the socket accept loop.

   Threading model: connection I/O runs on cheap [Thread]s (blocking
   reads release the runtime lock, so hundreds can sleep on sockets),
   CPU-bound searches run on the persistent [Pool] of domains, and every
   store access — lookup, insert, recover — is serialized under one
   mutex on the submitting thread, so workers never touch the disk and
   a worker death cannot tear a store write. The LRU has its own lock;
   lock order is always flights → store → lru, never the reverse (the
   breaker has its own lock and never takes any other, so it may be
   called from inside the flights critical section).

   Overload model, in admission order:

     connection ──▶ [conn budget] ──▶ request ──▶ [deadline still live?]
        ──▶ [breaker closed?] ──▶ [queue slot free?] ──▶ worker

   Every gate sheds with a *typed* response — "overloaded" or
   "circuit_open" with a retry_after hint — never by queueing forever or
   dropping the connection silently. SIGTERM/SIGINT flip the daemon into
   draining mode: stop accepting, shed the queued backlog, let running
   work finish against a drain deadline on the warped clock, then
   persist the LRU warm set (keys only) so a restart re-admits — and
   re-certifies — the same working set. *)

module Key = Registry.Key
module Store = Registry.Store
module Scheduler = Registry.Scheduler
module Json = Registry.Json

type config = {
  socket_path : string;
  root : string;
  capacity : int;
  workers : int;
  max_conns : int;  (* concurrent connections before connection-level shed *)
  max_queue : int;  (* unclaimed pool jobs before request-level shed *)
  breaker_threshold : int;  (* consecutive poison outcomes before a key trips *)
  breaker_cooldown : float;  (* seconds open before a half-open probe *)
  drain_grace : float;  (* seconds drain waits for in-flight work *)
}

(* One in-flight synthesis: later identical requests park on the
   condition variable and share the leader's result. *)
type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable outcome : Protocol.served option;
}

(* The [serve.shed] counters, in snapshot order. *)
let shed_counters =
  [| "queue_full"; "deadline_expired"; "circuit_open"; "conn_budget"; "draining" |]

let conn_budget_slot = 3

type t = {
  cfg : config;
  lru : Lru.t;
  pool : Pool.t;
  breaker : Breaker.t;
  store_counters : Store.counters;
  store_mutex : Mutex.t;
  flights : (string, flight) Hashtbl.t;
  flight_mutex : Mutex.t;
  requests : int Atomic.t;
  coalesced : int Atomic.t;
  searches : int Atomic.t;
  inflight : int Atomic.t;
  recover_runs : int Atomic.t;
  torn_connections : int Atomic.t;
  connections : int Atomic.t;
  active_conns : int Atomic.t;
  sheds : int Atomic.t array;  (* indexed like [shed_counters] *)
  snapshot_restored : int Atomic.t;
  snapshot_written : int Atomic.t;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  drained : bool Atomic.t;  (* drain ran to completion exactly once *)
  started : float;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* store_mutex must be held. *)
let recover_locked t =
  ignore (Store.recover ~counters:t.store_counters ~root:t.cfg.root ());
  Atomic.incr t.recover_runs

(* The one disk probe. A hit is admitted to the LRU — the load just
   re-certified it, so admission is the certificate; a quarantine moved
   the broken entry aside, so evict the key and sweep for siblings. *)
let probe_disk t key =
  let canonical = Key.canonical key in
  locked t.store_mutex (fun () ->
      let found = Store.lookup ~counters:t.store_counters ~root:t.cfg.root key in
      (match found with
      | Store.Hit e -> Lru.add t.lru canonical e
      | Store.Quarantined _ ->
          Lru.remove t.lru canonical;
          recover_locked t
      | Store.Miss -> ());
      found)

(* Warm restart: re-admit the snapshot's keys through the ordinary
   certified lookup path. The snapshot carries zero trust — a tampered
   or torn file can at worst name keys that miss or get quarantined. *)
let restore_warmset t =
  match Store.read_warmset ~root:t.cfg.root with
  | Error _ -> () (* torn, tampered, or absent: cold start *)
  | Ok keys ->
      let keys = List.filteri (fun i _ -> i < t.cfg.capacity) keys in
      (* The snapshot is MRU-first; admit LRU-first so recency survives
         the round trip. *)
      List.iter
        (fun key ->
          match probe_disk t key with
          | Store.Hit _ -> Atomic.incr t.snapshot_restored
          | Store.Miss | Store.Quarantined _ -> ())
        (List.rev keys)

let create cfg =
  let t =
    {
      cfg;
      lru = Lru.create ~capacity:cfg.capacity;
      (* Every job passes through the queue on its way to a worker, so a
         queue bound below one slot would refuse all work outright. *)
      pool = Pool.create ~max_queue:(max 1 cfg.max_queue) ~workers:cfg.workers ();
      breaker =
        Breaker.create ~threshold:cfg.breaker_threshold
          ~cooldown:cfg.breaker_cooldown;
      store_counters = Store.fresh_counters ();
      store_mutex = Mutex.create ();
      flights = Hashtbl.create 16;
      flight_mutex = Mutex.create ();
      requests = Atomic.make 0;
      coalesced = Atomic.make 0;
      searches = Atomic.make 0;
      inflight = Atomic.make 0;
      recover_runs = Atomic.make 0;
      torn_connections = Atomic.make 0;
      connections = Atomic.make 0;
      active_conns = Atomic.make 0;
      sheds = Array.map (fun _ -> Atomic.make 0) shed_counters;
      snapshot_restored = Atomic.make 0;
      snapshot_written = Atomic.make 0;
      stop = Atomic.make false;
      draining = Atomic.make false;
      drained = Atomic.make false;
      started = Fault.Clock.now ();
    }
  in
  (* Crash recovery once at open, before the first request can load a
     torn entry; then the warm restart, through the same certified path. *)
  locked t.store_mutex (fun () -> recover_locked t);
  restore_warmset t;
  t

let destroy t = Pool.shutdown t.pool
let draining t = Atomic.get t.draining

(* ---------- replies ---------- *)

(* The one builder of served records: hits, misses, sheds, crashes and
   search results differ only in the fields they pass. *)
let reply ?source ?program ?length ?(degraded = false) ?(rung = 0)
    ?(attempts = 0) ?error ?retry_after ~elapsed status key =
  {
    Protocol.status;
    source;
    canonical = Key.canonical key;
    kernel = Option.map (Isa.Program.to_string (Key.config key)) program;
    length;
    degraded;
    rung;
    attempts;
    elapsed;
    coalesced = false;
    error;
    retry_after;
  }

let hit ~source ~start key (e : Store.entry) =
  reply ~source ~program:e.Store.program ~length:e.Store.length
    ~elapsed:(Fault.Clock.now () -. start) "cached" key

let job_error (r : Scheduler.job_result) =
  match r.Scheduler.status with
  | Scheduler.Failed msg -> Some msg
  | Scheduler.Exhausted { live; budget = Some b } ->
      Some (Printf.sprintf "state budget exhausted (%d live, budget %d)" live b)
  | Scheduler.Exhausted { live; budget = None } ->
      Some (Printf.sprintf "state budget exhausted (%d live)" live)
  | Scheduler.Timed_out -> Some "every attempt hit the deadline"
  | Scheduler.Synthesized -> None

(* A scheduler result in wire form; a synthesized kernel has source
   "search". *)
let job_reply key (r : Scheduler.job_result) =
  reply
    ?source:(if r.Scheduler.status = Scheduler.Synthesized then Some "search" else None)
    ?program:r.Scheduler.program ?length:r.Scheduler.length
    ~degraded:r.Scheduler.degraded ~rung:r.Scheduler.rung
    ~attempts:r.Scheduler.attempts ?error:(job_error r)
    ~elapsed:r.Scheduler.elapsed
    (Scheduler.status_string r.Scheduler.status)
    key

(* ---------- load shedding ---------- *)

type shed =
  | Queue_full
  | Injected_overload
  | Expired_in_queue
  | Expired_before_dispatch
  | Draining
  | Circuit_open of float  (* the breaker's retry_after hint *)

(* The one shed table: each reason's [shed_counters] slot, reply
   status, retry_after hint and error. No shed reply reaches a worker. *)
let shed_row = function
  | Queue_full -> (0, "overloaded", Some 0.1, "request queue full")
  | Injected_overload -> (0, "overloaded", Some 0.1, "request queue full (injected)")
  | Expired_in_queue -> (1, "timed_out", None, "deadline expired while queued")
  | Expired_before_dispatch ->
      (1, "timed_out", None, "deadline expired before dispatch")
  | Circuit_open retry_after ->
      ( 2,
        "circuit_open",
        Some retry_after,
        "circuit breaker open: recent attempts crashed or exhausted" )
  | Draining -> (4, "overloaded", Some 1.0, "server is draining")

let shed t ~elapsed reason key =
  let slot, status, retry_after, error = shed_row reason in
  Atomic.incr t.sheds.(slot);
  reply ~elapsed ?retry_after ~error status key

(* ---------- request handling ---------- *)

(* The one memory probe, shared by lookups and synth requests. *)
let probe_memory t ~start key =
  Option.map (hit ~source:"memory" ~start key) (Lru.find t.lru (Key.canonical key))

let lookup_one t key =
  let start = Fault.Clock.now () in
  match probe_memory t ~start key with
  | Some served -> served
  | None -> (
      match probe_disk t key with
      | Store.Hit e -> hit ~source:"disk" ~start key e
      | Store.Miss -> reply ~elapsed:(Fault.Clock.now () -. start) "miss" key
      | Store.Quarantined reason ->
          reply ~elapsed:(Fault.Clock.now () -. start) ~error:reason "miss" key)

(* What a leader's exit tells the key's breaker: a hit or clean result,
   a poison outcome, or nothing about the key (shed, expired, drained,
   an unrelated error). *)
type verdict = Success | Failure | Abort

(* The one breaker settle site. Every leader exit passes through here
   exactly once — an admitted half-open probe that vanished without a
   verdict would otherwise leave the key rejecting forever. *)
let settle t canonical = function
  | Success -> Breaker.success t.breaker canonical
  | Failure -> Breaker.failure t.breaker canonical
  | Abort -> Breaker.abort t.breaker canonical

(* The leader's path: disk, then a pool search, then persist + admit.
   Returns the reply and the breaker verdict; the leader alone settles
   the breaker, so joiners share the outcome without double-counting. *)
let synth_leader t key (p : Protocol.synth_params) =
  let start = Fault.Clock.now () in
  let elapsed () = Fault.Clock.now () -. start in
  let shed_abort reason = (shed t ~elapsed:(elapsed ()) reason key, Abort) in
  let error_reply status error verdict =
    (reply ~elapsed:(elapsed ()) ~error status key, verdict)
  in
  (* serve.overload: deterministic admission rejection, as if the queue
     were full — the chaos hook for exercising shed paths end to end. *)
  if Fault.fire Fault.Serve_overload then shed_abort Injected_overload
  else
    match probe_disk t key with
    | Store.Hit e -> (hit ~source:"disk" ~start key e, Success)
    | Store.Miss | Store.Quarantined _ -> (
        (* A quarantined entry is already aside: synthesize afresh. *)
        Atomic.incr t.searches;
        let job () =
          (* Queue-wait comes out of the client's budget: the scheduler
             gets whatever is left of the deadline, never more than the
             requested per-attempt timeout. *)
          let timeout =
            match p.Protocol.deadline with
            | None -> p.Protocol.timeout
            | Some d ->
                let remaining = Float.max 0. (d -. Fault.Clock.now ()) in
                Some
                  (match p.Protocol.timeout with
                  | None -> remaining
                  | Some tmo -> Float.min tmo remaining)
          in
          Scheduler.run_one ~optimize:p.Protocol.optimize ~timeout
            ~retries:p.Protocol.retries ~backoff:p.Protocol.backoff
            ~budget:p.Protocol.budget key
        in
        match Pool.run ?deadline:p.Protocol.deadline t.pool job with
        | Error Pool.Worker_died ->
            error_reply "crashed" "worker died mid-request" Failure
        | Error Pool.Queue_full -> shed_abort Queue_full
        | Error Pool.Expired_in_queue -> shed_abort Expired_in_queue
        | Error Pool.Drained -> shed_abort Draining
        | Error e -> error_reply "failed" (Printexc.to_string e) Abort
        | Ok r ->
            (* A kernel that could not be stored is still valid: the answer
               stays [synthesized] and says why. A degraded result is never
               stored, and its answer says so already. *)
            let stored =
              match (r.Scheduler.status, r.Scheduler.search) with
              | Scheduler.Synthesized, Some search when not r.Scheduler.degraded ->
                  locked t.store_mutex (fun () ->
                      Store.insert ~counters:t.store_counters
                        ?provenance:r.Scheduler.provenance ~root:t.cfg.root key
                        search
                      |> Result.map (Lru.add t.lru (Key.canonical key)))
              | _ -> Ok ()
            in
            let answer = job_reply key r in
            ( (match stored with
              | Ok () -> answer
              | Error e ->
                  { answer with Protocol.error = Some ("not stored in the registry: " ^ e) }),
              if Scheduler.poison_status r.Scheduler.status then Failure else Success ))

let failed key e = reply ~elapsed:0. ~error:(Printexc.to_string e) "failed" key

let synth_one t key p =
  let canonical = Key.canonical key in
  match probe_memory t ~start:(Fault.Clock.now ()) key with
  | Some served -> served
  | None ->
      if Atomic.get t.draining then
        (* Warm hits above still serve during drain; new work does not. *)
        shed t ~elapsed:0. Draining key
      else if
        match p.Protocol.deadline with
        | Some d -> Fault.Clock.now () > d
        | None -> false
      then
        (* Nobody is waiting for this answer; don't even coalesce. *)
        shed t ~elapsed:0. Expired_before_dispatch key
      else begin
        let role =
          locked t.flight_mutex (fun () ->
              match Hashtbl.find_opt t.flights canonical with
              | Some fl ->
                  Atomic.incr t.coalesced;
                  `Join fl
              | None -> (
                  (* The breaker gates leaders only: joining an in-flight
                     synthesis adds no load, and when a half-open probe is
                     running, coalescing onto it beats rejecting. *)
                  match Breaker.admit t.breaker canonical with
                  | Breaker.Reject retry_after -> `Shed retry_after
                  | Breaker.Allow ->
                      let fl =
                        { fm = Mutex.create (); fc = Condition.create (); outcome = None }
                      in
                      Hashtbl.replace t.flights canonical fl;
                      `Lead fl))
        in
        match role with
        | `Shed retry_after -> shed t ~elapsed:0. (Circuit_open retry_after) key
        | `Join fl ->
            locked fl.fm (fun () ->
                while fl.outcome = None do
                  Condition.wait fl.fc fl.fm
                done;
                { (Option.get fl.outcome) with Protocol.coalesced = true })
        | `Lead fl ->
            (* A leader that raises has no verdict: abort releases the
               key if it was the half-open probe. *)
            let served, verdict =
              try synth_leader t key p with e -> (failed key e, Abort)
            in
            settle t canonical verdict;
            locked t.flight_mutex (fun () -> Hashtbl.remove t.flights canonical);
            locked fl.fm (fun () ->
                fl.outcome <- Some served;
                Condition.broadcast fl.fc);
            served
      end

(* Server-side batch fan-out: jobs spread across the worker pool under
   the same admission/deadline/breaker gates as single requests; each job
   keeps its own flight, its own shed decision, its own result slot —
   per-job isolation, input order preserved. The fan-out is at most
   [max_queue] threads wide and each thread has at most one job
   outstanding, so when a thread submits, its siblings hold at most
   [max_queue - 1] queue slots: a batch alone never sheds its own jobs
   as overloaded, and one huge batch cannot monopolize admission. *)
let batch_fanout t keys p =
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let results = Array.make n None in
  let width = max 1 (min n t.cfg.max_queue) in
  let next = Atomic.make 0 in
  let runner () =
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let key = keys.(i) in
        results.(i) <- Some (try synth_one t key p with e -> failed key e);
        claim ()
      end
    in
    claim ()
  in
  let threads = List.init width (fun _ -> Thread.create runner ()) in
  List.iter Thread.join threads;
  Array.to_list results
  |> List.mapi (fun i r ->
         match r with
         | Some s -> s
         | None -> reply ~elapsed:0. ~error:"batch job never ran" "miss" keys.(i))


let snapshot t =
  let ls = Lru.stats t.lru in
  let registry =
    locked t.store_mutex (fun () -> Store.counters_json t.store_counters)
  in
  let bc = Breaker.counters t.breaker in
  let breaker =
    Json.Obj
      [
        ("threshold", Json.Int t.cfg.breaker_threshold);
        ("cooldown_s", Json.Float t.cfg.breaker_cooldown);
        ("trips", Json.Int bc.Breaker.trips);
        ("half_opens", Json.Int bc.Breaker.half_opens);
        ("recoveries", Json.Int bc.Breaker.recoveries);
        ("rejections", Json.Int bc.Breaker.rejections);
        ( "keys",
          Json.Arr
            (List.map
               (fun (canonical, state, failures) ->
                 Json.Obj
                   [
                     ("key", Json.Str canonical);
                     ("state", Json.Str state);
                     ("failures", Json.Int failures);
                   ])
               (List.sort compare (Breaker.tracked t.breaker))) );
      ]
  in
  let sheds =
    Json.Obj
      (Array.to_list
         (Array.map2
            (fun name n -> (name, Json.Int (Atomic.get n)))
            shed_counters t.sheds))
  in
  let snapshot_block =
    Json.Obj
      [
        ("restored", Json.Int (Atomic.get t.snapshot_restored));
        ("written", Json.Int (Atomic.get t.snapshot_written));
      ]
  in
  Json.Obj
    [
      ( "serve",
        Json.Obj
          [
            ("requests", Json.Int (Atomic.get t.requests));
            ("cache_hits", Json.Int ls.Lru.hits);
            ("cache_misses", Json.Int ls.Lru.misses);
            ("coalesced", Json.Int (Atomic.get t.coalesced));
            ("evictions", Json.Int ls.Lru.evictions);
            ("inflight", Json.Int (Atomic.get t.inflight));
            ("searches", Json.Int (Atomic.get t.searches));
            ("recover_runs", Json.Int (Atomic.get t.recover_runs));
            ("worker_deaths", Json.Int (Pool.worker_deaths t.pool));
            ("torn_connections", Json.Int (Atomic.get t.torn_connections));
            ("connections", Json.Int (Atomic.get t.connections));
            ("active_conns", Json.Int (Atomic.get t.active_conns));
            ("max_conns", Json.Int t.cfg.max_conns);
            ("queued", Json.Int (Pool.queued t.pool));
            ("queue_hwm", Json.Int (Pool.queue_hwm t.pool));
            ("max_queue", Json.Int t.cfg.max_queue);
            ("draining", Json.Bool (Atomic.get t.draining));
            ("shed", sheds);
            ("breaker", breaker);
            ("snapshot", snapshot_block);
            ("lru_size", Json.Int ls.Lru.size);
            ("lru_capacity", Json.Int (Lru.capacity t.lru));
            ("workers", Json.Int (Pool.size t.pool));
            ("uptime_s", Json.Float (Fault.Clock.now () -. t.started));
          ] );
      ("registry", registry);
      ( "process",
        Json.Obj
          [
            ("readdir_calls", Json.Int (Store.readdir_calls ()));
            ("certifications", Json.Int (Machine.Exec.certifications ()));
          ] );
    ]

let handle t req =
  Atomic.incr t.requests;
  Atomic.incr t.inflight;
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
    (fun () ->
      match req with
      | Protocol.Lookup key -> Protocol.Served (lookup_one t key)
      | Protocol.Synth (key, p) -> Protocol.Served (synth_one t key p)
      | Protocol.Batch (keys, p) -> Protocol.Jobs (batch_fanout t keys p)
      | Protocol.Stats -> Protocol.Snapshot (snapshot t)
      | Protocol.Shutdown ->
          Atomic.set t.stop true;
          Protocol.Goodbye)

(* ---------- drain ---------- *)

(* Crash-only exit: stop taking work, shed the queued backlog, give
   running jobs until the drain deadline (on the warped clock, so tests
   drive it with clock.warp instead of sleeping), then persist the warm
   set. Idempotent — the Shutdown op, SIGTERM, and run's epilogue can
   all request it. *)
let drain t =
  Atomic.set t.draining true;
  if not (Atomic.exchange t.drained true) then begin
    Pool.drain t.pool;
    let deadline = Fault.Clock.now () +. t.cfg.drain_grace in
    (* serve.drain_hang: a worker that never comes back — the grace
       period elapses instantly on the warped clock and drain abandons
       the straggler instead of hanging. *)
    if Fault.fire Fault.Serve_drain_hang then
      Fault.Clock.warp (t.cfg.drain_grace +. 1.);
    while Atomic.get t.inflight > 0 && Fault.Clock.now () < deadline do
      Thread.yield ();
      Fault.Clock.sleep_for 0.002
    done;
    match Store.write_warmset ~root:t.cfg.root (Lru.keys t.lru) with
    | Ok n -> Atomic.set t.snapshot_written n
    | Error _ -> ()
  end

(* ---------- socket layer ---------- *)

(* Wake the accept loop after the stop flag is up: a throwaway
   self-connection is the one portable way to unblock accept(2) early.
   During shutdown this races the listener teardown — the socket file
   may already be unlinked (ENOENT) or the listener closed/backlogged
   (ECONNREFUSED) — so every step tolerates every failure: a missed
   wake-up only costs one select tick, but an exception escaping here
   used to skip the socket-file cleanup entirely. *)
let wake_accept t =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
          with Unix.Unix_error _ -> ())

let serve_connection t fd =
  Atomic.incr t.connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    (* serve.slow_client: a client that dribbles its request in. *)
    if Fault.fire Fault.Serve_slow_client then Fault.Clock.sleep_for 0.05;
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let resp =
          match Protocol.parse_request line with
          | Error msg -> Protocol.Refused ("bad request: " ^ msg)
          | Ok req -> (
              try handle t req
              with e -> Protocol.Refused (Printexc.to_string e))
        in
        let wire = Protocol.response_line resp in
        if Fault.fire Fault.Serve_torn_connection then begin
          (* Write half the response and hang up mid-line. The client
             sees a protocol error; nothing server-side is dirtied —
             the store write (if any) already committed under its own
             fsync-before-rename discipline, the LRU entry is whole. *)
          Atomic.incr t.torn_connections;
          (try
             output_string oc (String.sub wire 0 (String.length wire / 2));
             flush oc
           with Sys_error _ -> ())
        end
        else begin
          (match output_string oc wire; flush oc with
          | () -> ()
          | exception Sys_error _ -> ());
          match resp with
          | Protocol.Goodbye -> wake_accept t
          | _ -> loop ()
        end
  in
  (try loop () with _ -> ());
  (* Close the descriptor exactly once. Both channels share [fd];
     closing the second channel would close the same fd {e number}
     again, and if the accept loop had already reused that number for a
     fresh connection, the double close would kill the new connection
     mid-handshake (observed as a spurious ECONNRESET under load). The
     input channel is left to the GC — its finalizer frees the buffer
     and never touches the descriptor. *)
  close_out_noerr oc;
  ignore (Atomic.fetch_and_add t.active_conns (-1))

(* Over the connection budget: answer with the typed overload response
   and close — the client learns to back off; nothing is silently
   dropped. *)
let shed_connection t fd =
  Atomic.incr t.sheds.(conn_budget_slot);
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc (Protocol.response_line (Protocol.Overloaded 0.5));
     flush oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  close_out_noerr oc

(* SIGTERM/SIGINT request a graceful drain. The handler only flips the
   flag — all real work happens on the accept loop's thread, which polls
   the flag every select tick. *)
let install_signal_handlers t =
  let request_drain _ = Atomic.set t.draining true in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle request_drain)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let run ?(on_ready = fun () -> ()) ?(handle_signals = false) t =
  (* A client that hangs up mid-response must surface as EPIPE on the
     write, never as SIGPIPE's default process death. Unconditional: a
     socket daemon that can be killed by any impatient client is not a
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if handle_signals then install_signal_handlers t;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX t.cfg.socket_path);
  Unix.listen fd 64;
  on_ready ();
  (* Select with a short tick instead of a bare blocking accept: the
     loop notices stop/drain flags (set by a signal handler or the
     Shutdown op) within one tick even if the wake-up self-connection
     loses its race. *)
  let rec accept_loop () =
    if not (Atomic.get t.stop || Atomic.get t.draining) then begin
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept fd with
          | cfd, _ ->
              if Atomic.get t.stop || Atomic.get t.draining then
                (try Unix.close cfd with Unix.Unix_error _ -> ())
              else if Atomic.get t.active_conns >= t.cfg.max_conns then begin
                shed_connection t cfd;
                accept_loop ()
              end
              else begin
                Atomic.incr t.active_conns;
                ignore (Thread.create (fun () -> serve_connection t cfd) ());
                accept_loop ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Socket-file cleanup must survive anything the loop throws. *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
      destroy t)
    (fun () ->
      accept_loop ();
      drain t)
