(* The layer suite of the traced run: each per-layer metric is measured by
   calling one layer's public functions from here, on reference inputs
   that are the same whatever the workload, so a metric means the same
   thing in every workload's traced run. Each timed measurement is one
   span named after its metric. The [trace.*] metrics are the exception:
   they decompose the workload's own operations (see main.ml). *)

module P = Serve.Protocol

(* Every per-layer metric, in BENCHMARK.json order. *)
let metrics =
  let per_n ns fmt unit_ = List.map (fun n -> (Printf.sprintf fmt n, unit_)) ns in
  let search_stats n =
    List.map
      (fun (m, u) -> (Printf.sprintf "search.%s.n%d" m n, u))
      [
        ("run_s", "s");
        ("generated", "count");
        ("expanded", "count");
        ("deduped", "count");
        ("max_open", "count");
        ("kept_ratio", "ratio");
        ("dedup_ratio", "ratio");
        ("states_per_sec", "1/s");
      ]
  in
  [ ("sstate.probe_ns.n4", "ns"); ("sstate.probe_ns.n5", "ns"); ("sstate.commit_ns.n5", "ns") ]
  @ per_n [ 4; 5 ] "search.expand_us.n%d" "us"
  @ search_stats 4 @ search_stats 5
  @ [ ("distance.table_s.n4", "s"); ("distance.optimal_actions_ns.n4", "ns") ]
  @ per_n [ 3; 4; 5 ] "analysis.symcert_us.n%d" "us"
  @ per_n [ 3; 4; 5 ] "analysis.exact_us.n%d" "us"
  @ [
      ("registry.run_key_ms", "ms");
      ("registry.insert_ms", "ms");
      ("registry.lookup_miss_us", "us");
      ("registry.lookup_hit_us", "us");
      ("registry.recover_ms", "ms");
      ("registry.warmset_read_ms", "ms");
      ("opt.pipeline_ms.n3", "ms");
      ("opt.applied", "count");
      ("serve.encode_us", "us");
      ("serve.decode_us", "us");
      ("serve.lru_find_us", "us");
      ("serve.handle_us", "us");
      ("serve.connect_us", "us");
      ("serve.socket_residual_us", "us");
      ("serve.queue_wait_ms", "ms");
      ("serve.warm_p50_ms", "ms");
      ("serve.warm_p99_ms", "ms");
      ("serve.warm_rps", "1/s");
      ("serve.lru_hit_ratio", "ratio");
      ("serve.queue_hwm", "count");
      ("serve.searches", "count");
      ("bench.generator_lag_ms", "ms");
      ("perf.kernel_instrs.n4", "count");
      ("perf.kernel_sim_cycles.n4", "count");
      ("perf.kernel_ns_per_call.n4", "ns");
      ("perf.qsort_ns_per_elem.n4", "ns");
      ("perf.msort_ns_per_elem.n4", "ns");
      ("perf.kernel_calls", "count");
      ("perf.kernel_share", "ratio");
      ("trace.latency_p50_ms", "ms");
      ("trace.untraced_p50_ms", "ms");
      ("trace.overhead_ms", "ms");
      ("trace.residual_ms", "ms");
      ("trace.covered_ms", "ms");
      ("trace.spans", "count");
      ("host.reference_ms", "ms");
    ]

let ns = 1e9
let us = 1e6
let ms = 1e3

(* Median seconds per call of [f] over [rounds] timed batches of [batch]
   calls; [prepare] runs untimed before each batch. *)
let per_call ?(rounds = 9) ?(prepare = ignore) ~batch f =
  Stat.median
    (Array.init rounds (fun _ ->
         prepare ();
         let (), dt =
           Mono.time (fun () ->
               for _ = 1 to batch do
                 f ()
               done)
         in
         dt /. float_of_int batch))

(* Median seconds of one call of [f] on each input. *)
let per_input f inputs =
  Stat.median (Array.map (fun x -> snd (Mono.time (fun () -> f x))) inputs)

(* Median seconds per element of [f] applied to every element of [xs]. *)
let per_element f xs =
  per_call ~batch:1 (fun () -> Array.iter f xs) /. float_of_int (Array.length xs)

(* Recording: [put] a value computed elsewhere; [timed] a measurement
   (seconds, scaled to the metric's unit) inside a span of its name. *)
type recorder = { put : string -> float -> unit; timed : string -> float -> (unit -> float) -> unit }

let recorder (r : Report.t) =
  let put name v = Report.value r name (List.assoc name metrics) v in
  { put; timed = (fun name scale f -> Trace.span name (fun _ -> put name (f () *. scale))) }

(* A seeded random walk from [Sstate.initial]: viable, non-final states
   with their depth, restarting after 10 instructions. *)
let walk ~seed cfg count =
  let st = Gen.stream ~seed (20 + cfg.Isa.Config.n) in
  let instrs = Isa.Instr.all cfg in
  let arena = Sstate.Arena.create cfg in
  let out = ref [] and found = ref 0 in
  let s = ref (Sstate.initial cfg) and depth = ref 0 in
  while !found < count do
    let i = instrs.(Random.State.int st (Array.length instrs)) in
    match Sstate.Arena.probe arena i !s with
    | Sstate.Arena.Unchanged -> ()
    | Sstate.Arena.Changed ->
        if
          Sstate.Arena.probe_is_final arena
          || (not (Sstate.Arena.probe_all_viable arena))
          || !depth >= 10
        then begin
          s := Sstate.initial cfg;
          depth := 0
        end
        else begin
          s := Sstate.Arena.commit arena;
          incr depth;
          incr found;
          out := (!s, !depth) :: !out
        end
  done;
  Array.of_list (List.rev !out)

(* Each walk state with a seeded instruction to probe it with. *)
let pairs ~seed cfg states =
  let st = Gen.stream ~seed 30 in
  let instrs = Isa.Instr.all cfg in
  Array.map (fun (s, _) -> (instrs.(Random.State.int st (Array.length instrs)), s)) states

let sstate_and_search m ~seed =
  let walks = List.map (fun n -> (n, walk ~seed (Isa.Config.default n) 400)) [ 4; 5 ] in
  List.iter
    (fun (n, w) ->
      let cfg = Isa.Config.default n in
      let arena = Sstate.Arena.create cfg in
      let probe (i, s) = ignore (Sstate.Arena.probe arena i s) in
      let ps = pairs ~seed cfg w in
      m.timed (Printf.sprintf "sstate.probe_ns.n%d" n) ns (fun () -> per_element probe ps);
      if n = 5 then begin
        (* Commit cost: probe-and-commit minus probe, over the pairs
           whose probe changed the state. *)
        let changed = Array.of_list (List.filter (fun (i, s) -> Sstate.Arena.probe arena i s = Sstate.Arena.Changed) (Array.to_list ps)) in
        m.timed "sstate.commit_ns.n5" ns (fun () ->
            let fresh = ref (Sstate.Arena.create cfg) in
            let both =
              per_call
                ~prepare:(fun () -> fresh := Sstate.Arena.create cfg)
                ~batch:1
                (fun () ->
                  Array.iter
                    (fun (i, s) ->
                      ignore (Sstate.Arena.probe !fresh i s);
                      ignore (Sstate.Arena.commit !fresh))
                    changed)
            in
            (both /. float_of_int (Array.length changed)) -. per_element probe changed)
      end)
    walks;
  List.iter
    (fun (s : Spec.search) ->
      let env = Search.Expand.make_env (Spec.config s) s.Spec.opts in
      let arena = Sstate.Arena.create (Spec.config s) in
      let delta = Search.Expand.zero_delta () in
      m.timed (Printf.sprintf "search.expand_us.n%d" s.Spec.n) us (fun () ->
          per_element
            (fun (st, d) ->
              ignore (Search.Expand.expand env arena delta ~g':(d + 1) ~threshold:max_int st))
            (List.assoc s.Spec.n walks)))
    [ Spec.n4_astar; Spec.n5_level ];
  List.assoc 4 walks

(* One reference run of each search, end to end. Returns the n=4 kernel. *)
let searches m (r : Report.t) =
  List.fold_left
    (fun kernel (s : Spec.search) ->
      let res, run_s =
        Mono.time (fun () -> Trace.span (Printf.sprintf "search.run_s.n%d" s.Spec.n) (fun _ -> Spec.run_search s))
      in
      Report.check r ("layer suite: " ^ s.Spec.label ^ " fingerprint") (Check.search s res);
      let st = res.Search.stats in
      let gen = float_of_int st.Search.generated in
      let kept = List.fold_left (fun a l -> a + l.Search.succs_kept) 0 st.Search.levels in
      let put name v = m.put (Printf.sprintf "search.%s.n%d" name s.Spec.n) v in
      put "run_s" run_s;
      put "generated" gen;
      put "expanded" (float_of_int st.Search.expanded);
      put "deduped" (float_of_int st.Search.deduped);
      put "max_open" (float_of_int st.Search.max_open);
      put "kept_ratio" (float_of_int kept /. gen);
      put "dedup_ratio" (float_of_int st.Search.deduped /. gen);
      put "states_per_sec" (gen /. run_s);
      match res.Search.programs with p :: _ when s.Spec.n = 4 -> Some p | _ -> kernel)
    None [ Spec.n4_astar; Spec.n5_level ]

let distance m w4 =
  let cfg4 = Isa.Config.default 4 in
  m.timed "distance.table_s.n4" 1. (fun () ->
      per_call ~rounds:3 ~batch:1 (fun () -> ignore (Distance.compute cfg4)));
  let dist = Distance.compute_cached cfg4 and instrs = Isa.Instr.all cfg4 in
  m.timed "distance.optimal_actions_ns.n4" ns (fun () ->
      per_element (fun (s, _) -> ignore (Distance.optimal_actions dist instrs s)) w4)

(* The symbolic certifier against the exact n! check. *)
let analysis m =
  List.iter
    (fun n ->
      let cfg = Isa.Config.default n and p = Perf.Kernels.network n in
      m.timed (Printf.sprintf "analysis.symcert_us.n%d" n) us (fun () ->
          per_call ~batch:20 (fun () -> ignore (Analysis.Symcert.certify cfg p)));
      m.timed (Printf.sprintf "analysis.exact_us.n%d" n) us (fun () ->
          per_call ~batch:20 (fun () -> ignore (Registry.Verify.certify cfg p))))
    [ 3; 4; 5 ]

(* A fresh registry root and eight cold n=3 keys; returns the inserted
   entries. *)
let registry m ~seed ~root =
  let draw = Gen.cold_keys ~tag:7 ~seed () in
  let keys = Array.sub draw 0 8 and absent = Array.sub draw 8 8 in
  let results = Array.make 8 None in
  m.timed "registry.run_key_ms" ms (fun () ->
      Stat.median
        (Array.mapi
           (fun i k ->
             let o, dt = Mono.time (fun () -> Registry.Scheduler.run_key k) in
             results.(i) <- Some o.Registry.Scheduler.result;
             dt)
           keys));
  let entries = Array.make 8 None in
  m.timed "registry.insert_ms" ms (fun () ->
      Stat.median
        (Array.mapi
           (fun i k ->
             let e, dt =
               Mono.time (fun () -> Registry.Store.insert ~root k (Option.get results.(i)))
             in
             (match e with
             | Ok e -> entries.(i) <- Some e
             | Error msg -> failwith ("layer suite: insert: " ^ msg));
             dt)
           keys));
  m.timed "registry.lookup_miss_us" us (fun () ->
      per_input (fun k -> ignore (Registry.Store.lookup ~root k)) absent);
  m.timed "registry.lookup_hit_us" us (fun () ->
      per_input (fun k -> ignore (Registry.Store.lookup ~root k)) keys);
  m.timed "registry.recover_ms" ms (fun () ->
      per_call ~rounds:5 ~batch:1 (fun () -> ignore (Registry.Store.recover ~root ())));
  ignore (Registry.Store.write_warmset ~root (Array.to_list keys));
  m.timed "registry.warmset_read_ms" ms (fun () ->
      per_call ~batch:5 (fun () -> ignore (Registry.Store.read_warmset ~root)));
  Array.map Option.get entries

(* A naive compilation of a three-element insertion network, with a
   duplicated compare: input for the optimizer's applied-rewrite count. *)
let naive_sort3 =
  "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\nmov s1 r2\ncmp r2 r3\n\
   cmp r2 r3\ncmovg r2 r3\ncmovg r3 s1\nmov s1 r1\ncmp r1 r2\ncmovg r1 r2\n\
   cmovg r2 s1\n"

(* The pipeline on the fresh kernels (what an optimize:true miss pays;
   synthesized kernels leave it nothing to rewrite), and the rewrites it
   applies to the naive network. *)
let opt m entries =
  let cfg3 = Isa.Config.default 3 in
  m.timed "opt.pipeline_ms.n3" ms (fun () ->
      per_input (fun e -> ignore (Opt.Pipeline.run cfg3 e.Registry.Store.program)) entries);
  let naive =
    match Isa.Program.of_string cfg3 naive_sort3 with Ok p -> p | Error e -> failwith e
  in
  let rep = Opt.Pipeline.run cfg3 naive in
  m.put "opt.applied" (float_of_int (List.length rep.Opt.Pipeline.deltas))

(* The serve layer in process: codec, LRU, one handled warm request. *)
let serve_in_process m ~dir ~root (entries : Registry.Store.entry array) =
  let e0 = entries.(0) in
  let key = e0.Registry.Store.key in
  let req = P.Synth (key, P.default_params) in
  m.timed "serve.encode_us" us (fun () ->
      per_call ~batch:1000 (fun () -> ignore (P.request_line req)));
  let line =
    P.response_line
      (P.Served
         {
           P.status = "cached";
           source = Some "memory";
           canonical = Registry.Key.canonical key;
           kernel = Some (Isa.Program.to_string (Registry.Key.config key) e0.Registry.Store.program);
           length = Some e0.Registry.Store.length;
           degraded = false;
           rung = 0;
           attempts = 0;
           elapsed = 1e-6;
           coalesced = false;
           error = None;
           retry_after = None;
         })
  in
  m.timed "serve.decode_us" us (fun () ->
      per_call ~batch:1000 (fun () -> ignore (P.parse_response line)));
  let lru = Serve.Lru.create ~capacity:128 in
  let names = Array.init 128 (Printf.sprintf "key-%03d") in
  Array.iteri (fun i n -> Serve.Lru.add lru n entries.(i mod Array.length entries)) names;
  let next = ref 0 in
  m.timed "serve.lru_find_us" us (fun () ->
      per_call ~batch:1000 (fun () ->
          next := (!next + 37) land 127;
          ignore (Serve.Lru.find lru names.(!next))));
  let srv =
    Serve.Server.create
      {
        Serve.Server.socket_path = Filename.concat dir "unused.sock";
        root;
        capacity = 128;
        workers = 1;
        max_conns = 64;
        max_queue = 32;
        breaker_threshold = 3;
        breaker_cooldown = 5.0;
        drain_grace = 5.0;
      }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.destroy srv)
    (fun () ->
      ignore (Serve.Server.handle srv req);
      m.timed "serve.handle_us" us (fun () ->
          per_call ~batch:200 (fun () -> ignore (Serve.Server.handle srv req))))

(* The serve layer over the socket, against a real daemon: a small cold
   burst, then the warm path, an open loop at 2,000 req/s over a working
   set 1.5x a 16-entry LRU, then the same clients sending back to back. *)
let serve_socket m (r : Report.t) ~seed ~dir =
  let d, _ =
    Daemon.start ~args:[ "--capacity"; "16" ] ~root:(Filename.concat dir "serve")
      ~socket:(Filename.concat dir "s.sock") ()
  in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let socket = d.Daemon.socket in
      (* Paced: the daemon reaps a closed connection's thread
         asynchronously, and a burst of connect/close pairs would run
         into its 64-connection budget. *)
      m.timed "serve.connect_us" us (fun () ->
          Stat.median
            (Array.init 50 (fun _ ->
                 Unix.sleepf 0.002;
                 let c, dt = Mono.time (fun () -> Serve.Client.connect ~socket) in
                 (match c with Ok c -> Serve.Client.close c | Error e -> failwith e);
                 dt)));
      (* One draw for both sets, so no warm key was already synthesized
         cold (which would make its prep reply "cached"). *)
      let keys = Gen.cold_keys ~tag:8 ~seed () in
      let cold = Array.sub keys 0 8 in
      let s0 = Daemon.stats d in
      let replies =
        Serving.closed_loop ~socket ~until:(Mono.now () +. 60.)
          ~next:(Serving.each_once cold)
          ~request_of:(Serving.cold_request cold (Array.make 8 false))
      in
      let waits =
        List.filter_map
          (fun x ->
            Report.check r "layer suite: cold replies"
              (Result.map ignore (Serving.check_cold cold x));
            match x.Serving.resp with
            | Some (Ok (P.Served s)) -> Some (x.Serving.latency -. s.P.elapsed)
            | _ -> None)
          replies
      in
      m.put "serve.queue_wait_ms" (Stat.median (Array.of_list waits) *. ms);
      let warm = Array.sub keys 8 24 in
      let expected = Serving.populate r d warm in
      let check x =
        let v = Serving.check_warm ~expected x in
        Report.check r "layer suite: warm replies" v;
        v
      in
      let cdf = Gen.zipf ~s:1.0 24 in
      let request_of k = P.Synth (warm.(k), P.default_params) in
      let s1 = Daemon.stats d in
      let replies =
        Serving.open_loop ~socket ~rate:2000. ~seconds:2.
          ~streams:(fun c -> Gen.stream ~seed (40 + c))
          ~draw:(Gen.zipf_draw cdf) ~request_of
      in
      let s2 = Daemon.stats d in
      let o = Serving.outcome ~check ~wall:2. replies in
      Report.ops r ~attempted:o.Phase.attempted ~failed:o.Phase.failed;
      m.put "serve.warm_p50_ms" (Stat.chunked_percentile 50. o.Phase.latency *. ms);
      m.put "serve.warm_p99_ms" (Stat.chunked_percentile 99. o.Phase.latency *. ms);
      let residuals =
        List.filter_map
          (fun x ->
            match x.Serving.resp with
            | Some (Ok (P.Served { P.source = Some "memory"; elapsed; _ })) ->
                Some (x.Serving.latency -. x.Serving.lag -. elapsed)
            | _ -> None)
          replies
      in
      m.put "serve.socket_residual_us" (Stat.median (Array.of_list residuals) *. us);
      let hits = Serving.delta s1 s2 [ "serve"; "cache_hits" ]
      and misses = Serving.delta s1 s2 [ "serve"; "cache_misses" ] in
      m.put "serve.lru_hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      m.put "serve.queue_hwm" (float_of_int (Daemon.counter s2 [ "serve"; "queue_hwm" ]));
      m.put "serve.searches" (float_of_int (Serving.delta s0 s2 [ "serve"; "searches" ]));
      m.put "bench.generator_lag_ms"
        (Stat.percentile 99. (Array.of_list (List.map (fun x -> x.Serving.lag) replies)) *. ms);
      (* The same clients sending back to back: the rate the daemon
         sustains over two connections. *)
      let streams = Array.init Spec.clients (fun c -> Gen.stream ~seed (50 + c)) in
      let t0 = Mono.now () in
      let back =
        Serving.closed_loop ~socket ~until:(t0 +. 1.)
          ~next:(fun c -> Some (Gen.zipf_draw cdf streams.(c)))
          ~request_of
      in
      let o = Serving.outcome ~check ~wall:(Mono.now () -. t0) back in
      Report.ops r ~attempted:o.Phase.attempted ~failed:o.Phase.failed;
      m.put "serve.warm_rps" (float_of_int (o.Phase.attempted - o.Phase.failed) /. o.Phase.busy))

(* The reference n=4 kernel: standalone, and embedded in both sorts, whose
   output must equal [Array.sort]'s. *)
let perf m (r : Report.t) ~seed p4 =
  let cfg4 = Isa.Config.default 4 in
  m.put "perf.kernel_instrs.n4" (float_of_int (Isa.Program.length p4));
  m.put "perf.kernel_sim_cycles.n4" (float_of_int (Perf.Cost.simulated_cycles cfg4 p4));
  let sorter = Perf.Compile.kernel ~name:"n4" cfg4 p4 in
  let cases = 10_000 in
  let batch = Perf.Workload.random_batch ~seed ~cases ~width:4 ~lo:(-10000) ~hi:10000 in
  let work = Array.copy batch in
  let per_kernel =
    per_call
      ~prepare:(fun () -> Array.blit batch 0 work 0 (Array.length batch))
      ~batch:1
      (fun () ->
        for c = 0 to cases - 1 do
          sorter.Perf.Compile.run work (c * 4)
        done)
    /. float_of_int cases
  in
  m.put "perf.kernel_ns_per_call.n4" (per_kernel *. ns);
  let input = Gen.sort_input ~seed 1_000_000 in
  let n = float_of_int (Array.length input) in
  let expected = Array.copy input in
  Array.sort compare expected;
  let sort_s what f =
    let a = Array.copy input in
    let t =
      per_call ~rounds:3 ~prepare:(fun () -> Array.blit input 0 a 0 (Array.length a)) ~batch:1 (fun () -> f a)
    in
    Report.check r ("layer suite: embedded " ^ what ^ " output equals Array.sort") (Check.sorted ~expected a);
    t
  in
  let q =
    Trace.span "perf.qsort_ns_per_elem.n4" (fun _ -> sort_s "quicksort" (Perf.Workload.quicksort ~base:sorter))
  in
  m.put "perf.qsort_ns_per_elem.n4" (q /. n *. ns);
  m.timed "perf.msort_ns_per_elem.n4" (ns /. n) (fun () ->
      sort_s "mergesort" (Perf.Workload.mergesort ~base:sorter));
  let calls = ref 0 in
  let counting =
    { sorter with Perf.Compile.run = (fun a off -> incr calls; sorter.Perf.Compile.run a off) }
  in
  Perf.Workload.quicksort ~base:counting (Array.copy input);
  m.put "perf.kernel_calls" (float_of_int !calls);
  m.put "perf.kernel_share" (float_of_int !calls *. per_kernel /. q)

let suite ~seed ~dir (r : Report.t) =
  let m = recorder r in
  Unix.mkdir dir 0o755;
  let fallbacks0 = Registry.Verify.exact_fallbacks () in
  let w4 = sstate_and_search m ~seed in
  let p4 = searches m r in
  distance m w4;
  analysis m;
  let root = Filename.concat dir "registry" in
  let entries = registry m ~seed ~root in
  opt m entries;
  serve_in_process m ~dir ~root entries;
  serve_socket m r ~seed ~dir;
  (match p4 with
  | Some p -> perf m r ~seed p
  | None -> failwith "layer suite: the n=4 search found no kernel");
  Report.check r "layer suite: no exact certification fallbacks"
    (let d = Registry.Verify.exact_fallbacks () - fallbacks0 in
     if d = 0 then Ok () else Error (Printf.sprintf "%d fallbacks" d))
