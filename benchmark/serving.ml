(* Load on `synth serve` (the serve-cold workload and the layer suite's
   session): from one process, at most [Spec.clients] threads and as many
   connections, against the real binary over its socket. Every request
   opens a fresh connection, as `synth client` does. *)

module P = Serve.Protocol

(* One request on a fresh connection, with spans around each client-side
   step when tracing: connect, the exchange (the server's own [elapsed]
   recorded inside it), close. An open-loop request's span starts when it
   was [due], and how late it was sent is recorded as [bench.lag]. *)
let request ?due ~rid ~socket req =
  Trace.span ~rid ?start:due "request" (fun root ->
      Option.iter
        (fun due -> Trace.reported ~rid ~parent:root "bench.lag" (Mono.now () -. due))
        due;
      match
        Trace.span ~rid ~parent:root "serve.connect" (fun _ ->
            Serve.Client.connect ~socket)
      with
      | Error _ as e -> e
      | Ok c ->
          Fun.protect
            ~finally:(fun () ->
              Trace.span ~rid ~parent:root "serve.close" (fun _ ->
                  Serve.Client.close c))
            (fun () ->
              Trace.span ~rid ~parent:root "serve.exchange" (fun ex ->
                  let resp = Serve.Client.request c req in
                  (match resp with
                  | Ok (P.Served s) ->
                      Trace.reported ~rid ~parent:ex "server.elapsed"
                        s.P.elapsed
                  | _ -> ());
                  resp)))

type reply = {
  key : int;  (** Index of the request's key. *)
  due : float;  (** When the request was due to be sent ({!Mono.now}). *)
  latency : float;  (** Seconds; infinite when never sent. *)
  lag : float;  (** Open loop: how late the request was sent. *)
  resp : (P.response, string) result option;  (** [None]: never sent. *)
}

(* The clients are system threads, not domains: they spend their time
   blocked on the socket, and as threads they hold at most one core
   between them, leaving the other to the daemon on a two-core machine
   (as domains they measurably lengthened the daemon's latency tail). *)
let in_clients f =
  let results = Array.make Spec.clients [] in
  let threads =
    List.init Spec.clients (fun c -> Thread.create (fun () -> results.(c) <- f c) ())
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

let rids = Atomic.make 0

(* Closed loop: client [c] sends request [request_of k] for [next c = Some
   k] as soon as its previous reply arrives, until [until] or until [next]
   runs out. *)
let closed_loop ~socket ~until ~next ~request_of =
  in_clients (fun c ->
      let rec loop acc =
        if Mono.now () >= until then acc
        else
          match next c with
          | None -> acc
          | Some key ->
              let due = Mono.now () in
              let resp =
                request ~rid:(Atomic.fetch_and_add rids 1) ~socket (request_of key)
              in
              loop
                ({ key; due; latency = Mono.now () -. due; lag = 0.; resp = Some resp }
                :: acc)
      in
      loop [])

(* Each key of [keys] once, in order, across the clients. *)
let each_once keys =
  let cursor = Atomic.make 0 in
  fun _ ->
    let i = Atomic.fetch_and_add cursor 1 in
    if i < Array.length keys then Some i else None

let cold_request keys optimize i =
  P.Synth (keys.(i), { P.default_params with optimize = optimize.(i) })

let describe = function
  | None -> "never sent"
  | Some (Error e) -> e
  | Some (Ok (P.Served s)) ->
      Printf.sprintf "status %s%s" s.P.status
        (match s.P.error with Some e -> ": " ^ e | None -> "")
  | Some (Ok (P.Overloaded _)) -> "connection shed"
  | Some (Ok (P.Refused e)) -> "refused: " ^ e
  | Some (Ok _) -> "unexpected response type"

(* A cold reply must be a fresh synthesis whose kernel passes the exact
   n! check. Returns the kernel text. *)
let check_cold keys reply =
  match reply.resp with
  | Some (Ok (P.Served { P.status = "synthesized"; kernel = Some text; _ })) -> (
      match Check.kernel_text (Registry.Key.config keys.(reply.key)) text with
      | Ok _ -> Ok text
      | Error e -> Error e)
  | other -> Error ("cold request: " ^ describe other)

(* A warm reply must be a cache hit carrying the recorded bytes. *)
let check_warm ~expected reply =
  match reply.resp with
  | Some (Ok (P.Served { P.status = "cached"; kernel = Some text; _ })) ->
      Check.same_kernel ~expected:expected.(reply.key) text
  | other -> Error ("warm request: " ^ describe other)

(* Open loop: Poisson arrivals at [rate] in total, split over the
   clients, keys drawn by [draw]. Latency runs from each request's due
   time, so a stall is charged to every request queued behind it. A
   client more than two seconds behind stops sending; its remaining
   requests count as failed. *)
let open_loop ~socket ~rate ~seconds ~streams ~draw ~request_of =
  let t0 = Mono.now () +. 0.005 in
  let stop_at = t0 +. seconds and give_up = t0 +. seconds +. 2. in
  in_clients (fun d ->
      let st = streams d in
      let rate = rate /. float_of_int Spec.clients in
      let rec loop due acc =
        let due = due +. Gen.poisson_gap st ~rate in
        if due >= stop_at then acc
        else
          let key = draw st in
          if Mono.now () > give_up then
            loop due
              ({ key; due; latency = Float.infinity; lag = Float.infinity; resp = None }
              :: acc)
          else begin
            Mono.sleep_until due;
            let sent = Mono.now () in
            let resp =
              request ~due ~rid:(Atomic.fetch_and_add rids 1) ~socket (request_of key)
            in
            let fin = Mono.now () in
            loop due
              ({ key; due; latency = fin -. due; lag = sent -. due; resp = Some resp }
              :: acc)
          end
      in
      loop t0 [])

(* A request never sent is attempted and failed (every check rejects
   it), and has no latency sample. *)
let outcome ~check ~wall replies =
  let replies = List.sort (fun a b -> Float.compare a.due b.due) replies in
  let sent = List.filter (fun r -> r.resp <> None) replies in
  {
    Phase.latency = Array.of_list (List.map (fun r -> r.latency) sent);
    attempted = List.length replies;
    failed = List.length (List.filter (fun r -> Result.is_error (check r)) replies);
    busy = wall;
  }

(* Start [count] daemons one after another with [start i]; all but the
   last are stopped. Returns the last and the start-up times. *)
let start_series count start =
  let last = ref None in
  let times =
    Array.init count (fun i ->
        Option.iter Daemon.stop !last;
        let d, t = start i in
        last := Some d;
        t)
  in
  (Option.get !last, times)

let delta before after path = Daemon.counter after path - Daemon.counter before path

(* Counters every serve run must leave at zero: no request shed, no
   symbolic certification deferred to the exact fallback. *)
let check_daemon r before after =
  let zero what path =
    let d = delta before after path in
    Report.check r what
      (if d = 0 then Ok () else Error (Printf.sprintf "%d during the run" d))
  in
  List.iter
    (fun (what, sub) -> zero ("no " ^ what ^ " sheds") [ "serve"; "shed"; sub ])
    [
      ("queue_full", "queue_full");
      ("deadline", "deadline_expired");
      ("circuit_open", "circuit_open");
      ("connection", "conn_budget");
    ];
  zero "no exact certification fallbacks" [ "process"; "exact_fallbacks" ]

let daemon_line name before after =
  let hits = delta before after [ "serve"; "cache_hits" ]
  and misses = delta before after [ "serve"; "cache_misses" ] in
  Printf.printf
    "%-16s daemon: requests=%d searches=%d coalesced=%d lru_hits=%d \
     lru_misses=%d queue_hwm=%d inserted=%d certifications=%d \
     symbolic_proofs=%d readdir_calls=%d\n%!"
    name
    (delta before after [ "serve"; "requests" ])
    (delta before after [ "serve"; "searches" ])
    (delta before after [ "serve"; "coalesced" ])
    hits misses
    (Daemon.counter after [ "serve"; "queue_hwm" ])
    (delta before after [ "registry"; "inserted" ])
    (delta before after [ "process"; "certifications" ])
    (delta before after [ "process"; "symbolic_proofs" ])
    (delta before after [ "process"; "readdir_calls" ])

let cold_workload (sz : Spec.sizing) ~seed ~dir r =
  let keys = Gen.cold_keys ~seed () in
  let optimize = Gen.optimize_flags ~seed (Array.length keys) in
  let start i =
    Daemon.start
      ~root:(Printf.sprintf "%s/cold-root-%d" dir i)
      ~socket:(Printf.sprintf "%s/cold-%d.sock" dir i)
      ()
  in
  (* Half the timed start-ups come before the load and half after it, so
     that they sample the host at both ends of the run. *)
  let early = (sz.Spec.setup_repeats + 1) / 2 in
  let d, setups = start_series early start in
  let before = Daemon.stats d in
  let next = each_once keys in
  let served = Hashtbl.create 1024 in
  let check reply =
    let v = check_cold keys reply in
    Report.check r "cold replies synthesized, exact-certified" (Result.map ignore v);
    Result.iter (Hashtbl.replace served reply.key) v;
    v
  in
  (* The load pauses for a host reference sample every
     [Reference.interval] seconds, with the daemon idle; the pauses are
     not charged to throughput. It stops early if the keys run out. *)
  let phase ~traced ~seconds =
    Phase.traced ~traced (fun () ->
        let stop = Mono.now () +. seconds in
        let rec segments acc busy =
          let t0 = Mono.now () in
          let replies =
            closed_loop ~socket:d.Daemon.socket
              ~until:(Float.min stop (t0 +. Reference.interval))
              ~next ~request_of:(cold_request keys optimize)
          in
          let acc = List.rev_append replies acc and busy = busy +. (Mono.now () -. t0) in
          if replies = [] || Mono.now () >= stop then (acc, busy)
          else begin
            Reference.sample ();
            segments acc busy
          end
        in
        let replies, busy = segments [] 0. in
        outcome ~check ~wall:busy replies)
  in
  (* The daemon's kernels against the same requests re-run in this
     process: a seeded sample, byte for byte. *)
  let verify () =
    let done_ = Hashtbl.fold (fun k _ acc -> k :: acc) served [] in
    let done_ = Array.of_list (List.sort compare done_) in
    Gen.shuffle (Gen.stream ~seed 4) done_;
    let sample = Array.sub done_ 0 (min sz.Spec.verify_sample (Array.length done_)) in
    Array.iter
      (fun i ->
        let key = keys.(i) in
        let job =
          Registry.Scheduler.run_one ~optimize:optimize.(i) ~timeout:None
            ~retries:1 ~backoff:0.05 ~budget:None key
        in
        let v =
          match job.Registry.Scheduler.program with
          | None -> Error "in-process re-run found no kernel"
          | Some p ->
              Check.same_kernel ~expected:(Hashtbl.find served i)
                (Isa.Program.to_string (Registry.Key.config key) p)
        in
        Report.ops r ~attempted:1 ~failed:(if Result.is_ok v then 0 else 1);
        Report.check r "served kernels equal in-process Scheduler.run_one" v)
      sample;
    Report.check r "re-run sample taken"
      (if Array.length sample > 0 then Ok () else Error "no served kernel to re-run")
  in
  {
    Phase.root = "request";
    phase;
    rss_mb = (fun () -> Daemon.daemon_rss_mb d);
    finish =
      (fun () ->
        let after = Daemon.stats d in
        daemon_line r.Report.workload before after;
        check_daemon r before after;
        Daemon.stop d;
        let late =
          Array.init (sz.Spec.setup_repeats - early) (fun i ->
              let d, t = start (early + i) in
              Daemon.stop d;
              t)
        in
        Report.samples r "setup_s" "s" (Array.append setups late);
        verify ());
  }

(* Populate [keys] through batch requests and return each key's kernel
   text, exact-certified. A batch fans out up to workers + max_queue jobs
   at once, and a fan-out that outruns the workers' first claims sheds
   with "request queue full" (seen with 192 keys against the default
   32-slot queue), so the keys go in batches of [batch_keys]. *)
let batch_keys = 16

let populate r d keys =
  let one chunk =
    match Daemon.roundtrip d (P.Batch (Array.to_list chunk, P.default_params)) with
    | Ok (P.Jobs js) when List.length js = Array.length chunk -> Array.of_list js
    | other -> failwith ("prep batch: " ^ describe (Some other))
  in
  let n = Array.length keys in
  let served =
    Array.concat
      (List.init ((n + batch_keys - 1) / batch_keys) (fun b ->
           one (Array.sub keys (b * batch_keys) (min batch_keys (n - (b * batch_keys))))))
  in
  Array.mapi
    (fun i (s : P.served) ->
      let v =
        match (s.P.status, s.P.kernel) with
        | "synthesized", Some text ->
            Result.map
              (fun _ -> text)
              (Check.kernel_text (Registry.Key.config keys.(i)) text)
        | _ -> Error ("prep: " ^ describe (Some (Ok (P.Served s))))
      in
      Report.ops r ~attempted:1 ~failed:(if Result.is_ok v then 0 else 1);
      Report.check r "prep batches synthesized, exact-certified" (Result.map ignore v);
      Result.value v ~default:"")
    served
