(* The one table the benchmark's workloads, searches and sizes come from.
   A search is named once here, with its expected behavioural fingerprint,
   and every workload, check and layer measurement that runs it reads it
   from here. *)

type search = {
  label : string;  (** The same search's row name in BENCH_search.json. *)
  n : int;
  opts : Search.options;
  mode : Search.mode;
  generated : int;
      (** Successor states built: the exact behavioural fingerprint. *)
  length : int option;  (** Kernel length; [None]: no kernel in the bound. *)
}

let n4_astar =
  {
    label = "n4-best-astar";
    n = 4;
    opts = Search.best;
    mode = Search.Find_first;
    generated = 985_710;
    length = Some 25;
  }

(* Exhausts every n=5 program of length <= 4 (only the optimality-safe
   erasure check prunes): a lower-bound certificate, not a kernel. The
   layer suite runs it; it is not a workload (see README.md). *)
let n5_level =
  {
    label = "n5-bounded-level";
    n = 5;
    opts =
      {
        Search.default with
        Search.engine = Search.Level_sync;
        dist_viability = false;
        cut = Search.No_cut;
      };
    mode = Search.Prove_none 4;
    generated = 301_560;
    length = None;
  }

let config s = Isa.Config.default s.n
let run_search s = Search.run_mode ~opts:s.opts ~mode:s.mode (config s)

type kind =
  | Search of search  (** Closed loop of one search, as [synth -n N]. *)
  | Serve_cold  (** Fresh keys against [synth serve] over its socket. *)

type workload = {
  name : string;
  kind : kind;
  tail : float;
      (** Percentile reported as [latency_tail_ms] (through
          {!Stat.chunked_percentile}): the highest one that keeps at least
          ten samples beyond it at the full sizing. *)
  why : string;
}

(* Two workloads, so that each run can measure for [run_seconds] = 55 s
   within the time all runs may take: on the shared reference host the
   speed drifts by up to half over minutes, and only long runs keep the
   run-to-run spread inside the bounds. README.md says what moved to the
   traced run's layer suite. *)
let workloads =
  [
    {
      name = "search-n4-astar";
      kind = Search n4_astar;
      tail = 50.;
      why =
        "synth -n 4: A*, heap, perm-count heuristic, distance filter and \
         arena on 24-code states";
    };
    {
      name = "serve-cold";
      kind = Serve_cold;
      tail = 95.;
      why =
        "never-seen n=3 keys over the socket: search, certification, \
         optimizer, fsync'd insert and the pool queue; LRU never hits";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Every run of every workload reports each of these. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("throughput_ops", "1/s");
    ("peak_rss_mb", "MB");
  ]

type sizing = {
  setup_repeats : int;
      (** serve-cold daemon start-ups timed per run; [setup_s] is their
          median. The search workload times one set-up per operation. *)
  warmup : bool;  (** One untimed operation before the timed loop. *)
  verify_sample : int;  (** serve-cold keys re-synthesized in process. *)
}

let full = { setup_repeats = 15; warmup = true; verify_sample = 20 }

(* [--smoke]: every check on, about a second per workload. *)
let smoke = { setup_repeats = 1; warmup = false; verify_sample = 4 }

(* How long a run measures unless [--seconds] says otherwise:
   BENCHMARK.json's [run_seconds]. *)
let run_seconds = 55.

(* Load-generating threads, and so connections, of the serve workloads. *)
let clients = 2
