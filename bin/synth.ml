(* Command-line synthesizer: the repository's front door.

   Examples:
     synth -n 3                       fastest configuration, print the kernel
     synth -n 3 --x86                 render as x86-64 assembly
     synth -n 4 --engine level        certified-minimal search
     synth -n 4 --engine parallel -j 4   level search over 4 worker domains
     synth -n 3 --all --cut 2         enumerate all optimal kernels
     synth -n 3 --minmax              min/max (vector) kernel
     synth -n 3 --prove-none 10       show no shorter kernel exists
     synth -n 3 --pddl                emit the PDDL planning encoding
     synth -n 3 --cache               serve/populate the kernel registry
     synth -n 3 --stats-json -        dump the search-stats JSON snapshot
     synth batch jobs.json -j 4      run a job list through the registry
     synth serve --socket S.sock      long-lived daemon: LRU + coalescing
     synth client --server S.sock -n 3   one request against the daemon
     synth batch jobs.json --server S.sock   batch through the daemon
     synth registry list|verify|gc    inspect / re-certify / sweep the store
     synth lint kernel.txt            static lints; exit 1 on ERROR findings
     synth analyze kernel.txt         full report: dataflow, abstract
                                      certification, proof-carrying DCE
     synth optimize kernel.txt        proof-carrying optimizer pipeline:
                                      every rewrite certified on all n!
                                      permutations, refused otherwise
     synth equiv a.txt b.txt          exact equivalence on all n! inputs;
                                      exit 1 + counterexample on mismatch

   Exit codes (every subcommand documents the same [exits] list):
     0  success
     1  lint / verification / synthesis failure (or mixed batch failures;
        for equiv: the kernels differ), an unparsable input file, or a
        request the server refused
     2  the search deadline passed (every retry timed out)
     3  the live-state budget was exhausted even at the final
        degradation rung
     4  registry corruption: a verify sweep found entries that had to be
        quarantined
     5  synthesis server unreachable, or a protocol error on its socket
        (client / batch --server modes)
     6  the server shed the request: overloaded (connection budget or
        request queue full, or draining) or circuit_open (the key's
        breaker is tripped); retry after the server's retry_after hint
   124  a bad flag value, including -n/-m out of range (cmdliner) *)

open Cmdliner
module Json = Registry.Json
module Key = Registry.Key
module P = Serve.Protocol

let exit_timeout = 2
let exit_exhausted = 3
let exit_corrupt = 4
let exit_unreachable = 5
let exit_overloaded = 6

let exits =
  Cmd.Exit.info
    ~doc:
      "on lint, verification, or synthesis failure, an unparsable input \
       file, or a request the server refused."
    1
  :: Cmd.Exit.info ~doc:"when the search deadline passed (every retry timed out)."
       exit_timeout
  :: Cmd.Exit.info
       ~doc:
         "when the live-state budget was exhausted even at the final \
          degradation-ladder rung."
       exit_exhausted
  :: Cmd.Exit.info
       ~doc:"on registry corruption (a verify sweep quarantined entries)."
       exit_corrupt
  :: Cmd.Exit.info
       ~doc:
         "when the synthesis server is unreachable or its response was cut \
          off or unparsable (client and batch --server modes)."
       exit_unreachable
  :: Cmd.Exit.info
       ~doc:
         "when the server shed the request — overloaded (connection or \
          queue budget, or draining) or circuit_open (the key's breaker \
          is tripped). Back off for the server's retry_after hint and \
          retry."
       exit_overloaded
  :: Cmd.Exit.defaults

(* The outcome table: one row per wire status ({!Serve.Protocol.served}
   [status]), giving the label its '#' job line carries and the exit code
   it maps to. The default command, the client and both batch paths all
   exit through here. *)
let outcomes =
  [
    ("cached", ("cached", 0));
    ("synthesized", ("synthesized", 0));
    ("miss", ("MISS", 1));
    ("timed_out", ("TIMED OUT", exit_timeout));
    ("exhausted", ("EXHAUSTED", exit_exhausted));
    ("crashed", ("CRASHED", 1));
    ("failed", ("FAILED", 1));
    ("overloaded", ("OVERLOADED", exit_overloaded));
    ("circuit_open", ("CIRCUIT OPEN", exit_overloaded));
  ]

let outcome status =
  Option.value (List.assoc_opt status outcomes)
    ~default:(String.uppercase_ascii status, 1)

let exit_code status = snd (outcome status)

(* A one-line diagnostic on stderr, then exit [code]. *)
let fail ?(who = "synth") code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" who msg;
      exit code)
    fmt

(* [--fault-plan] accepts the same forms as $SORTSYNTH_FAULT_PLAN: an
   inline spec when it contains '=' (specs always do — at least [seed=] or
   a [site=trigger] clause), a plan-file path otherwise. *)
let setup_faults spec =
  let r =
    match spec with
    | None -> Fault.setup ()
    | Some s ->
        Result.map Fault.install
          (if String.contains s '=' then Fault.plan_of_string s
           else Fault.load_file s)
  in
  Result.iter_error (fail 1 "fault plan: %s") r

(* Every file the CLI writes goes through here: an unwritable path is a
   one-line diagnostic and exit 1, never an uncaught exception. *)
let write_file path s =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc s; close_out oc)
  with
  | () -> ()
  | exception Sys_error msg -> fail 1 "cannot write %s" msg

let write_json path json =
  let json = Json.to_string json ^ "\n" in
  if path = "-" then print_string json else write_file path json

let read_file_res path =
  match open_in_bin path with
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Ok s
  | exception Sys_error msg -> Error msg

let resolve_root = function
  | Some dir -> dir
  | None -> Registry.Store.default_root ()

(* The one report of a {!Registry.Store.recover} sweep: a line per
   nonzero count. *)
let print_recovery (r : Registry.Store.recovery) =
  List.iter
    (fun (count, what) -> if count > 0 then Printf.printf "# recovered: %d %s\n" count what)
    [
      (r.Registry.Store.rolled_back, "torn insert(s) rolled back");
      (r.Registry.Store.migrated, "flat v1 entries moved into shards");
      (r.Registry.Store.requarantined, "half-written entries re-quarantined");
    ]

(* [--rules]: a stable rule table, one row of (field, value) pairs per
   rule. JSON prints every field; text prints the first three, the first
   two padded to [w1] and [w2]. *)
let print_rules ~json (w1, w2) rows =
  if json then
    print_endline
      (Json.to_string
         (Json.Arr
            (List.map
               (fun row -> Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) row))
               rows)))
  else
    List.iter
      (function
        | (_, a) :: (_, b) :: (_, c) :: _ ->
            Printf.printf "%-*s %-*s %s\n" w1 a w2 b c
        | _ -> ())
      rows

(* ------------------------------------------------------------------ *)
(* Shared flags.                                                       *)

(* A flag whose values must satisfy [ok]: any other value is a usage
   error (exit 124), like a value that is not a number. *)
let restricted conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let bounded lo hi =
  restricted Arg.int
    ~expected:(Printf.sprintf "an integer in %d..%d" lo hi)
    (fun v -> lo <= v && v <= hi)

(* Seconds: --timeout, --deadline, --backoff, --breaker-cooldown and
   --drain-grace. NaN would mean "no deadline" locally but an expired
   one on the wire, so it is refused with the infinities. *)
let duration =
  restricted Arg.float ~expected:"a finite number of seconds >= 0" (fun v ->
      Float.is_finite v && v >= 0.)

let n =
  Arg.(
    value
    & opt (bounded 1 6) 3
    & info [ "n" ] ~docv:"N" ~doc:"Array length to sort (1-6).")

let scratch =
  Arg.(
    value
    & opt (bounded 0 3) 1
    & info [ "scratch"; "m" ] ~doc:"Scratch registers (default 1).")

let engine =
  Arg.(
    value
    & opt (enum Key.engine_assoc) Key.Astar
    & info [ "engine" ]
        ~doc:
          "Search engine: astar (fast), level (certified minimal), or \
           parallel (level search over --jobs worker domains).")

let cut =
  Arg.(
    value
    & opt (restricted Arg.float ~expected:"a finite number" Float.is_finite) 1.0
    & info [ "cut"; "k" ] ~docv:"K"
        ~doc:
          "Perm-count cut factor (Section 3.5), a finite number; 0 or less \
           disables the cut.")

let heuristic =
  Arg.(
    value
    & opt (enum Key.heuristic_assoc) Search.Perm_count
    & info [ "heuristic" ] ~doc:"A* heuristic: none, perm, assign, or dist.")

let max_len =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-len" ] ~docv:"L" ~doc:"Length bound for the search.")

(* The one kernel request: the register file the kernel sorts in and the
   search configuration (§5.2). The default command and [client] read
   their request from here. *)
let key =
  let make n m engine heuristic cut max_len =
    Key.make ~m ~engine ~heuristic ~cut:(Key.cut_of_factor cut) ?max_len n
  in
  Term.(const make $ n $ scratch $ engine $ heuristic $ cut $ max_len)

let jobs =
  Arg.(
    value & opt int 2
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for --engine parallel and for batch mode.")

let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let x86 = flag "x86" "Print x86-64 assembly."

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "SORTSYNTH_REGISTRY")
        ~doc:
          "Registry root directory (default: \\$SORTSYNTH_REGISTRY or \
           .sortsynth-registry).")

let stats_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Dump a machine-readable JSON snapshot of the search statistics \
           (counters, timeline, per-level open/pruned breakdown) to $(docv), \
           or to stdout when $(docv) is '-'.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~env:(Cmd.Env.info "SORTSYNTH_FAULT_PLAN")
        ~doc:
          "Deterministic fault-injection plan (testing only): a plan file, \
           or an inline spec like 'seed=42;registry.rename=nth:1'. Makes \
           the named chokepoints — registry writes, renames, fsyncs, \
           worker deaths, search budgets and deadlines — fail \
           on cue, deterministically in the seed.")

let timeout =
  Arg.(
    value
    & opt (some duration) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-attempt search deadline on the monotonic clock, a finite \
           number >= 0; exit code 2 when it passes.")

let state_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "state-budget" ] ~docv:"STATES"
        ~doc:
          "Cap on live search states. Exceeding it triggers the \
           degradation ladder (progressively aggressive \
           non-optimality-preserving cuts, results flagged degraded and \
           never cached); exhaustion at the final rung exits with code 3. \
           A $(b,--prove-none) search never degrades: it exits with code 3 \
           at the first exhaustion.")

let optimize =
  flag "optimize"
    "Run the proof-carrying optimizer over each freshly synthesized kernel \
     before printing and storing it. Every rewrite is certified \
     bit-identical on all n! permutations; refused passes are reported and \
     leave the kernel unchanged. A stored entry records the original \
     kernel's digest and the applied passes as provenance."

(* [--server]: optional for [batch], required for [client]. *)
let server =
  Arg.(
    opt (some string) None
    & info [ "server" ] ~docv:"SOCK"
        ~doc:
          "Unix socket of a running $(b,synth serve) daemon. For \
           $(b,batch), the jobs run through the daemon — its in-memory \
           cache, request coalescing and worker pool — instead of locally, \
           and the kernel text printed is byte-identical to a local run. \
           Exit code 5 when the server is unreachable or the response is \
           cut off.")

let json_flag = flag "json" "Emit a machine-readable JSON report on stdout."

(* ------------------------------------------------------------------ *)
(* The local executor, and the printers of a served answer. The       *)
(* default command's --cache, batch and client all print through here. *)

(* The daemon in process, without a socket. Constant settings, not flags
   — no memory layer (every lookup goes to the store), a pool and queue
   [workers] wide, and a breaker that never trips. It ends with
   [destroy], never [drain], so no warm set lands in the registry. With
   [root = None] the registry is a throwaway root, removed afterwards.
   Returns the answer and the registry counter block. *)
let serve_local ~root ~workers req =
  let throwaway = root = None in
  let root =
    match root with Some r -> r | None -> Filename.temp_dir "synth-batch" ""
  in
  let srv =
    Serve.Server.create
      {
        Serve.Server.socket_path = "";
        root;
        capacity = 0;
        workers;
        max_conns = 1;
        max_queue = workers;
        breaker_threshold = max_int;
        breaker_cooldown = 0.;
        drain_grace = 0.;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.destroy srv;
      if throwaway then Registry.Store.remove_tree root)
    (fun () ->
      let resp = Serve.Server.handle srv req in
      (resp, Json.member "registry" (Serve.Server.snapshot srv)))

(* Every executor answers with kernel text; --x86 re-renders it. *)
let render ~who ~x86 key text =
  if not x86 then text
  else
    let cfg = Key.config key in
    match Isa.Program.of_string cfg text with
    | Ok p -> Isa.Program.to_x86 cfg p
    | Error msg -> fail ~who exit_unreachable "protocol error: bad kernel: %s" msg

(* One served answer: its status line, then its kernel; a server error
   and a shed's retry hint go to stderr. Returns the status's exit
   code. *)
let print_served ?(who = "synth client") (s : P.served) =
  Printf.printf "# %s%s%s%s: %s (%.3f s server-side)\n" s.P.status
    (match s.P.source with Some src -> " from " ^ src | None -> "")
    (if s.P.degraded then Printf.sprintf ", degraded (rung %d), not cached" s.P.rung
     else "")
    (if s.P.coalesced then ", coalesced" else "")
    s.P.canonical s.P.elapsed;
  Option.iter (Printf.eprintf "%s: server: %s\n" who) s.P.error;
  Option.iter print_endline s.P.kernel;
  let code = exit_code s.P.status in
  if code = exit_overloaded then
    Option.iter (Printf.eprintf "%s: retry in %.1f s\n" who) s.P.retry_after;
  code

(* After the answer: a local executor's [# registry:] counter line, then
   [--stats-json], the wire answer plus that [registry] block. *)
let finish_served stats_json resp registry =
  Option.iter
    (fun reg ->
      let count name = match Json.member name reg with Some (Json.Int n) -> n | _ -> 0 in
      Printf.printf "# registry: %s\n"
        (String.concat ", "
           (List.map
              (fun name -> Printf.sprintf "%d %s" (count name) name)
              [ "hits"; "misses"; "quarantined"; "inserted"; "recovered" ])))
    registry;
  let stats =
    match (registry, P.response_to_json resp) with
    | Some reg, Json.Obj fields -> Json.Obj (fields @ [ ("registry", reg) ])
    | _, j -> j
  in
  Option.iter (fun path -> write_json path stats) stats_json

(* ------------------------------------------------------------------ *)
(* Default command: synthesize one kernel.                             *)

(* Every kernel the default command prints gets a static-analysis pass;
   any ERROR finding — impossible for a certified kernel — is shouted on
   stderr. Returns the findings. *)
let lint_printed cfg p =
  let fs = Analysis.Lint.check_all cfg p in
  if Analysis.Lint.errors fs <> [] then
    Printf.eprintf "synth: lint: %s on the produced kernel\n"
      (Analysis.Lint.summary fs);
  fs

(* [--cache]: one request to the local executor, answered as the daemon
   answers it over a socket — a disk hit, or a search stored on success. *)
let run_cached ~root ~x86 ~stats_json ~timeout ~budget ~optimize key =
  let who = "synth" in
  let req =
    P.Synth (key, { P.default_params with P.timeout; budget; optimize; retries = 0 })
  in
  let resp, registry = serve_local ~root:(Some root) ~workers:1 req in
  let s =
    match resp with
    | P.Served s -> s
    | _ -> fail ~who exit_unreachable "protocol error: unexpected response type"
  in
  let cfg = Key.config key in
  Option.iter
    (fun text ->
      Result.iter (fun p -> ignore (lint_printed cfg p)) (Isa.Program.of_string cfg text))
    s.P.kernel;
  let code =
    print_served ~who { s with P.kernel = Option.map (render ~who ~x86 key) s.P.kernel }
  in
  finish_served stats_json resp registry;
  if code <> 0 then exit code

(* The default command's search on any machine: one deadline, one
   mapping from a failed search to an exit code, one summary line and one
   [--stats-json] writer. [search ?deadline ()] runs the key's engine;
   [certify r p0] turns [r]'s found kernel [p0] into the one to print
   (exiting 1 when it does not sort) and returns the notes that ride
   along in the stats snapshot; [render] prints it. *)
let run_search ~label ~mode ~timeout ~stats_json search ~certify ~render =
  let deadline = Option.map (fun t -> Fault.Clock.now () +. t) timeout in
  let outcome =
    match search ?deadline () with
    | o -> o
    | exception Search.Timeout ->
        fail (exit_code "timed_out") "search timed out%s"
          (match timeout with
          | Some t -> Printf.sprintf " (deadline %.3f s)" t
          | None -> "")
    | exception Search.Resource_exhausted { live; budget } ->
        fail (exit_code "exhausted") "state budget exhausted: %d live states%s (%s)"
          live
          (match budget with
          | Some b -> Printf.sprintf " over budget %d" b
          | None -> ", no budget configured")
          (match mode with
          | Search.Prove_none _ -> "--prove-none runs without the degradation ladder"
          | Search.Find_first | Search.All_optimal ->
              "even at the final degradation rung")
  in
  let r = outcome.Registry.Scheduler.result in
  let degraded = outcome.Registry.Scheduler.degraded in
  if degraded then
    Printf.eprintf
      "synth: degraded result (ladder rung %d): the kernel is verified \
       correct but not guaranteed shortest; it will not be cached\n"
      outcome.Registry.Scheduler.rung;
  let notes =
    match (mode, r.Search.programs) with
    | Search.Prove_none l, _ ->
        Printf.printf
          (match r.Search.optimal_length with
          | None -> format_of_string "no kernel of length <= %d exists (%d states explored)\n"
          | Some _ -> format_of_string "a kernel of length <= %d exists! (%d states)\n")
          l r.Search.stats.Search.expanded;
        []
    | _, [] ->
        Printf.printf "no kernel found\n";
        []
    | _, p0 :: _ ->
        let p, notes = certify r p0 in
        Printf.printf "# %d instructions, %d solutions, %.3f s, %d states\n"
          (Array.length p) r.Search.solution_count r.Search.stats.Search.elapsed
          r.Search.stats.Search.expanded;
        print_endline (render p);
        notes
  in
  Option.iter
    (fun path ->
      write_json path
        (Search.Stats.to_json ~label
           ~extra:
             (notes
             @ [
                 ("degraded", Json.Bool degraded);
                 ("certifications", Json.Int (Machine.Exec.certifications ()));
               ])
           r.Search.stats))
    stats_json

(* A cmov kernel is polished (certified, optionally optimized) and
   linted; its analyzer and optimizer notes ride along in the stats. *)
let certify_cmov ~optimize key r p0 =
  let cfg = Key.config key in
  (* A kernel that fails certification is never printed. *)
  let pol =
    match Registry.Scheduler.polish ~optimize key r with
    | Ok pol -> pol
    | Error msg -> fail 1 "VERIFICATION FAILED: %s" msg
  in
  let p = pol.Registry.Scheduler.kernel in
  let opt (rep : Opt.Pipeline.report) =
    List.iter
      (fun (d : Opt.Pipeline.delta) ->
        Printf.printf "# opt %s: %d -> %d instructions, %d -> %d simulated cycles\n"
          d.Opt.Pipeline.pass d.Opt.Pipeline.instructions_before
          d.Opt.Pipeline.instructions_after d.Opt.Pipeline.cycles_before
          d.Opt.Pipeline.cycles_after)
      rep.Opt.Pipeline.deltas;
    List.iter
      (fun (f : Opt.Pipeline.refusal) ->
        Printf.eprintf "synth: opt: refused %s: %s\n" f.Opt.Pipeline.pass
          f.Opt.Pipeline.reason)
      rep.Opt.Pipeline.refusals;
    Json.(
      Obj
        [
          ( "passes",
            Arr
              (List.map
                 (fun (d : Opt.Pipeline.delta) -> Str d.Opt.Pipeline.pass)
                 rep.Opt.Pipeline.deltas) );
          ("refused", Int (List.length rep.Opt.Pipeline.refusals));
          ("rounds", Int rep.Opt.Pipeline.rounds);
          ("instructions_before", Int (Array.length p0));
          ("instructions_after", Int (Array.length p));
          ("cycles_before", Int (Perf.Cost.simulated_cycles cfg p0));
          ("cycles_after", Int (Perf.Cost.simulated_cycles cfg p));
        ])
  in
  let opt = Option.map opt pol.Registry.Scheduler.report in
  let fs = lint_printed cfg p in
  let analysis =
    Json.(
      Obj
        [
          ("findings", Int (List.length fs));
          ("errors", Int (List.length (Analysis.Lint.errors fs)));
          ("eliminated", Int (List.length (Analysis.Dce.run cfg p).Analysis.Dce.removed));
        ])
  in
  (p, ("analysis", analysis) :: Option.to_list (Option.map (fun j -> ("opt", j)) opt))

let run key minmax jobs all x86 prove_none pddl cache cache_dir stats_json
    fault_plan timeout budget optimize =
  setup_faults fault_plan;
  let cfg = Key.config key and n = key.Key.n in
  if pddl then begin
    print_string (Planning.Pddl.domain cfg);
    print_newline ();
    print_string (Planning.Pddl.problem cfg)
  end
  else if cache && (not minmax) && (not all) && prove_none = None then
    (* The store holds one cmov kernel per key, not solution enumerations
       or non-existence claims: only find-first cmov requests are
       cached. *)
    run_cached ~root:(resolve_root cache_dir) ~x86 ~stats_json ~timeout ~budget
      ~optimize key
  else begin
    let mode =
      match prove_none with
      | Some l -> Search.Prove_none l
      | None -> if all then Search.All_optimal else Search.Find_first
    in
    let label =
      Printf.sprintf "synth n=%d engine=%s%s" n
        (Key.engine_to_string key.Key.engine)
        (if minmax then " isa=minmax" else "")
    in
    if minmax then
      run_search ~label ~mode ~timeout ~stats_json
        (fun ?deadline () ->
          Registry.Scheduler.run_isa_key ?deadline ~domains:jobs ~mode ?budget
            (Minmax.isa cfg) key)
        ~certify:(fun _ p ->
          if not (Minmax.Vexec.sorts_all_permutations cfg p) then
            fail 1 "VERIFICATION FAILED: the min/max kernel does not sort every input";
          (p, []))
        ~render:(if x86 then Minmax.Vexec.to_x86 cfg else Minmax.Vexec.to_string cfg)
    else
      run_search ~label ~mode ~timeout ~stats_json
        (fun ?deadline () ->
          Registry.Scheduler.run_key ?deadline ~domains:jobs ~mode ?budget key)
        ~certify:(certify_cmov ~optimize key)
        ~render:(if x86 then Isa.Program.to_x86 cfg else Isa.Program.to_string cfg)
  end

let default_term =
  let prove_none =
    Arg.(
      value
      & opt (some int) None
      & info [ "prove-none" ] ~docv:"L"
          ~doc:"Exhaustively show that no kernel of length <= L exists.")
  in
  Term.(
    const run $ key
    $ flag "minmax" "Use the min/max vector ISA."
    $ jobs
    $ flag "all" "Enumerate all optimal kernels."
    $ x86 $ prove_none
    $ flag "pddl" "Emit the PDDL domain and problem."
    $ flag "cache"
        "Answer through the kernel registry, as the daemon does but in \
         process: a stored kernel is re-certified on load and served, a \
         missing one is synthesized and stored. Only plain find-first \
         cmov requests are cached; with $(b,--all), $(b,--prove-none) or \
         $(b,--minmax) the search runs uncached."
    $ cache_dir $ stats_json $ fault_plan $ timeout $ state_budget $ optimize)

(* ------------------------------------------------------------------ *)
(* The daemon round trip, and batch: a JSON job list run locally through *)
(* the registry + scheduler, or through the daemon.                    *)

(* One request to the daemon, as [client] and [batch --server] make it:
   an unreachable server or a torn answer exits 5, a refusal 1, a
   connection-level shed 6. Any other response is returned. *)
let roundtrip who socket req =
  match Serve.Client.roundtrip ~socket req with
  | Error msg -> fail ~who exit_unreachable "%s" msg
  | Ok (P.Refused msg) -> fail ~who 1 "server refused: %s" msg
  | Ok (P.Overloaded retry_after) ->
      fail ~who (exit_code "overloaded")
        "server overloaded (connection budget); retry in %.1f s" retry_after
  | Ok resp -> resp

(* One '#' line per job — its outcome label and a note — then its kernel.
   Local and remote batches both print through here. *)
let print_job i key (s : P.served) =
  let label = fst (outcome s.P.status) in
  let err = match s.P.error with Some e -> ": " ^ e | None -> "" in
  let label, note =
    match s.P.status with
    | "cached" ->
        (label, if s.P.source = Some "memory" then " (served from memory)" else "")
    | "synthesized" when s.P.degraded ->
        ( Printf.sprintf "%s DEGRADED (rung %d)" label s.P.rung,
          Printf.sprintf
            " in %.3f s — correct but not guaranteed shortest; not cached"
            s.P.elapsed )
    | "synthesized" -> (label, Printf.sprintf " in %.3f s%s" s.P.elapsed err)
    | "timed_out" -> (label, Printf.sprintf " after %d attempts" s.P.attempts)
    | "exhausted" -> (label, Printf.sprintf "%s after %d attempts" err s.P.attempts)
    | "crashed" -> (label, err ^ "; job isolated")
    | _ ->
        ( label,
          err
          ^
          match s.P.retry_after with
          | Some r -> Printf.sprintf "; retry in %.1f s" r
          | None -> "" )
  in
  Printf.printf "# job %d [%s] %s: %s%s\n" i
    (String.sub (Key.hash key) 0 12)
    (Key.describe key) label note;
  Option.iter print_endline s.P.kernel

let run_jobs jobs_file server workers timeout retries backoff budget no_cache
    cache_dir x86 stats_json fault_plan optimize =
  setup_faults fault_plan;
  let who = "synth batch" in
  let keys =
    match Result.bind (read_file_res jobs_file) Registry.Scheduler.parse_jobs with
    | Ok keys -> keys
    | Error msg -> fail 1 "cannot read jobs: %s" msg
  in
  (* Through a socket, propagate an absolute deadline covering every
     attempt the server may make on our behalf, plus a second of
     queue/transport slack — so a request that would blow past our
     patience is shed in the server's queue instead of burning a worker.
     The batch shares one deadline and we don't know the server's
     fan-out width, so budget for the worst case, the whole batch running
     serially; the per-attempt timeout, not the batch deadline, bounds
     each job. A local batch has no patience but its own: no deadline. *)
  let deadline =
    match (server, timeout) with
    | Some _, Some t ->
        let attempts = float_of_int ((1 + retries) * List.length keys) in
        Some (Fault.Clock.now () +. (t *. attempts) +. 1.0)
    | _ -> None
  in
  let req = P.Batch (keys, { P.timeout; budget; retries; backoff; optimize; deadline }) in
  let resp, registry =
    match server with
    | Some socket -> (roundtrip who socket req, None)
    | None ->
        let root = if no_cache then None else Some (resolve_root cache_dir) in
        serve_local ~root ~workers req
  in
  let served =
    match resp with
    | P.Jobs served when List.length served = List.length keys -> served
    | P.Jobs served ->
        fail ~who exit_unreachable
          "protocol error: %d jobs sent, %d answers received" (List.length keys)
          (List.length served)
    | _ -> fail ~who exit_unreachable "protocol error: unexpected response type"
  in
  List.iteri
    (fun i (key, s) ->
      print_job i key { s with P.kernel = Option.map (render ~who ~x86 key) s.P.kernel })
    (List.combine keys served);
  finish_served stats_json resp registry;
  (* A homogeneous failure class keeps its own exit code, so scripts can
     tell "give it more time" (2) from "give it more memory" (3) from
     "retry later" (6); mixed or other failures collapse to 1. *)
  match List.filter (( <> ) 0) (List.map (fun s -> exit_code s.P.status) served) with
  | [] -> ()
  | codes ->
      Printf.eprintf "%s: %d of %d jobs did not produce a kernel\n" who
        (List.length codes) (List.length served);
      exit (match List.sort_uniq compare codes with [ c ] -> c | _ -> 1)

let batch_term =
  let jobs_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOBS.json"
          ~doc:"JSON array of requests, e.g. [{\"n\":3},{\"n\":4,\"engine\":\"level\"}].")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Extra attempts after a timeout, exhaustion, or failure \
             (default 1), with exponential backoff between attempts.")
  in
  let backoff =
    Arg.(
      value & opt duration 0.05
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base of the exponential retry backoff: attempt k sleeps \
             $(docv) * 2^(k-1) seconds (capped at 2), scaled by a \
             deterministic per-key jitter. 0 disables the sleep.")
  in
  Term.(
    const run_jobs $ jobs_file $ Arg.value server $ jobs $ timeout $ retries
    $ backoff $ state_budget
    $ flag "no-cache"
        "Leave the registry alone: run the batch against a throwaway one, \
         removed afterwards."
    $ cache_dir $ x86 $ stats_json
    $ fault_plan $ optimize)

(* ------------------------------------------------------------------ *)
(* Kernel files: the one loader behind lint, analyze, certify,         *)
(* optimize and equiv.                                                 *)

(* Kernel files carry no register-file header; unless -n/-m are given,
   infer the smallest configuration covering the registers the kernel
   names (parse once under the widest file, then re-parse under the
   inferred one so diagnostics use the right names). *)
let infer_dims src =
  let wide = Isa.Config.make ~n:6 ~m:3 in
  match Isa.Program.of_string wide src with
  | Error e -> Error e
  | Ok p ->
      let nv = ref 0 and ns = ref 0 in
      Array.iter
        (fun i ->
          List.iter
            (fun r ->
              if r < 6 then nv := max !nv (r + 1) else ns := max !ns (r - 5))
            [ i.Isa.Instr.dst; i.Isa.Instr.src ])
        p;
      Ok (max 1 !nv, !ns)

let parse_kernel ~n ~m src =
  let ( let* ) = Result.bind in
  let* n, m =
    match (n, m) with
    | Some n, Some m -> Ok (n, m)
    | _ ->
        let* inf_n, inf_m = infer_dims src in
        Ok (Option.value n ~default:inf_n, Option.value m ~default:inf_m)
  in
  match Isa.Config.make ~n ~m with
  | cfg ->
      let* numbered = Isa.Program.of_string_numbered cfg src in
      Ok (cfg, Array.map fst numbered, Array.map snd numbered)
  | exception Invalid_argument msg -> Error msg

(* Read and parse a kernel file under [dims] (-n/-m, each inferred when
   absent): the register file, the program, and each instruction's
   source line. *)
let load_kernel (n, m) file =
  Result.bind (read_file_res file) (fun src -> parse_kernel ~n ~m src)

let parse_error file msg = Printf.sprintf "%s: parse error: %s" file msg

(* Single-file commands: a file that does not load is a failure (exit 1),
   reported as lint and certify report it. *)
let load_kernel_or_exit dims file =
  match load_kernel dims file with
  | Ok k -> k
  | Error msg -> fail 1 "%s" (parse_error file msg)

let dims =
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Value registers (default: inferred from the highest register the \
             kernel names).")
  in
  let m =
    Arg.(
      value
      & opt (some int) None
      & info [ "scratch"; "m" ] ~docv:"M"
          ~doc:"Scratch registers (default: inferred, see $(b,--n)).")
  in
  Term.(const (fun n m -> (n, m)) $ n $ m)

let files_arg =
  Arg.(
    value
    & pos_all file []
    & info [] ~docv:"KERNEL.txt"
        ~doc:"Kernel files in Isa.Program.to_string form ('mov s1 r1' …).")

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"KERNEL.txt"
        ~doc:"Kernel file in Isa.Program.to_string form.")

(* ------------------------------------------------------------------ *)
(* lint / analyze: the static analyzer over kernel files.              *)

let print_findings file lines findings =
  List.iter
    (fun f ->
      let loc =
        match f.Analysis.Lint.index with
        | Some i when i < Array.length lines ->
            Printf.sprintf "%s:%d" file lines.(i)
        | _ -> file
      in
      Printf.printf "%s: %s[%s] %s\n" loc
        (Analysis.Lint.severity_to_string f.Analysis.Lint.severity)
        (Analysis.Lint.rule_id f.Analysis.Lint.rule)
        f.Analysis.Lint.message)
    findings

(* lint and certify: load and check each file in turn, then print one
   JSON array or one text block per file. [check] returns a file's
   failure count, its JSON object and its text printer; a file that does
   not load is one failure. Returns the total failure count. *)
let report_files ~json dims files check =
  let reports =
    List.map
      (fun file ->
        match load_kernel dims file with
        | Ok k -> check file k
        | Error msg ->
            ( 1,
              Json.Obj [ ("file", Json.Str file); ("error", Json.Str msg) ],
              fun () -> print_endline (parse_error file msg) ))
      files
  in
  if json then
    print_endline (Json.to_string (Json.Arr (List.map (fun (_, j, _) -> j) reports)))
  else List.iter (fun (_, _, print) -> print ()) reports;
  List.fold_left (fun acc (failures, _, _) -> acc + failures) 0 reports

let run_lint files dims json rules =
  if rules then begin
    (* The stable rule-id table, in declaration order; pinned to the
       README rule table by a test. *)
    print_rules ~json (20, 8)
      (List.map
         (fun r ->
           [
             ("id", Analysis.Lint.rule_id r);
             ( "severity",
               Analysis.Lint.severity_to_string (Analysis.Lint.severity_of_rule r) );
             ("description", Analysis.Lint.describe r);
           ])
         Analysis.Lint.rules);
    `Ok ()
  end
  else if files = [] then
    `Error (true, "no kernel files given (or pass --rules for the rule table)")
  else begin
    let total = ref 0 in
    let errors =
      report_files ~json dims files (fun file (cfg, prog, lines) ->
          let findings = Analysis.Lint.check_all cfg prog in
          total := !total + List.length findings;
          ( List.length (Analysis.Lint.errors findings),
            Analysis.Lint.report_json ~file ~lines findings,
            fun () ->
              if findings = [] then
                Printf.printf "%s: clean (n=%d m=%d, %d instructions)\n" file
                  cfg.Isa.Config.n cfg.Isa.Config.m (Array.length lines)
              else print_findings file lines findings ))
    in
    if not json then
      Printf.printf "# %d file(s), %d finding(s), %d error(s)\n"
        (List.length files) !total errors;
    if errors > 0 then exit 1;
    `Ok ()
  end

let run_analyze file dims json =
  let cfg, prog, lines = load_kernel_or_exit dims file in
  let findings = Analysis.Lint.check_all cfg prog in
  let sizes = Analysis.Absint.set_sizes cfg prog in
  let cert = Machine.Exec.certify cfg prog in
  let d = Analysis.Dce.run cfg prog in
  let removed = d.Analysis.Dce.removed in
  if json then begin
    let open Registry.Json in
    (* Reuse the lint report as the base object and graft the abstract-
       interpretation and DCE sections on. *)
    let base =
      match Analysis.Lint.report_json ~file ~lines findings with
      | Obj kvs -> kvs
      | _ -> []
    in
    let dce =
      Obj
        [
          ("removed", Int (List.length removed));
          ( "indices",
            Arr (List.map (fun r -> Int r.Analysis.Dce.index) removed) );
          ( "rules",
            Arr
              (List.map
                 (fun r -> Str (Analysis.Lint.rule_id r.Analysis.Dce.rule))
                 removed) );
          ("passes", Int d.Analysis.Dce.passes);
          ("refused", Bool d.Analysis.Dce.refused);
          ("certified", Bool d.Analysis.Dce.certified);
          ("length", Int (Array.length d.Analysis.Dce.optimized));
          ( "program",
            Str (Isa.Program.to_string cfg d.Analysis.Dce.optimized) );
        ]
    in
    print_endline
      (to_string
         (Obj
            (base
            @ [
                ("n", Int cfg.Isa.Config.n);
                ("m", Int cfg.Isa.Config.m);
                ("length", Int (Array.length prog));
                ( "reachable",
                  Arr (Array.to_list (Array.map (fun s -> Int s) sizes)) );
                ("certified", Bool (Result.is_ok cert));
                ("dce", dce);
              ])))
  end
  else begin
    Printf.printf "# %s: n=%d m=%d, %d instructions\n" file
      cfg.Isa.Config.n cfg.Isa.Config.m (Array.length prog);
    let df = Analysis.Dataflow.analyze cfg prog in
    Array.iteri
      (fun i x ->
        Printf.printf "%3d  line %-3d  %-14s %s%s\n" i lines.(i)
          (Isa.Instr.to_string cfg x)
          (match Analysis.Dataflow.reaching_cmp df i with
          | Some j -> Printf.sprintf "flags=cmp@%d" j
          | None -> "flags=initial")
          (if Analysis.Dataflow.is_effective df i then "" else "  [dead]"))
      prog;
    Printf.printf "# reachable assignments per point: %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int sizes)));
    (match cert with
    | Ok () ->
        Printf.printf
          "# certification: OK — all %d reachable final assignments \
           sorted (proves correctness on all %d! inputs)\n"
          sizes.(Array.length prog) cfg.Isa.Config.n
    | Error msg -> Printf.printf "# certification: FAILED — %s\n" msg);
    if findings = [] then Printf.printf "# findings: none\n"
    else begin
      Printf.printf "# findings: %s\n" (Analysis.Lint.summary findings);
      print_findings file lines findings
    end;
    if removed = [] then
      Printf.printf "# dce: nothing to remove (%d passes)\n"
        d.Analysis.Dce.passes
    else begin
      Printf.printf "# dce: removed %d instruction(s) in %d passes: %s\n"
        (List.length removed) d.Analysis.Dce.passes
        (String.concat ", "
           (List.map
              (fun r ->
                Printf.sprintf "%d[%s]" r.Analysis.Dce.index
                  (Analysis.Lint.rule_id r.Analysis.Dce.rule))
              removed));
      Printf.printf "# dce: %d instructions remain, re-certification %s\n"
        (Array.length d.Analysis.Dce.optimized)
        (if d.Analysis.Dce.refused then "REFUSED THE REWRITE"
         else if d.Analysis.Dce.certified then "OK"
         else "n/a (input does not sort)");
      print_endline (Isa.Program.to_string cfg d.Analysis.Dce.optimized)
    end
  end

(* ------------------------------------------------------------------ *)
(* devlint: the self-hosted concurrency-and-discipline linter over this
   repository's own OCaml source (lib/ + bin/), on compiler-libs. The
   committed devlint.waivers file is the only silencing mechanism;
   unwaived findings (or parse errors) exit 1, which is the CI gate.   *)

let run_devlint paths json rules waivers_path =
  if rules then
    print_rules ~json (7, 22)
      (List.map
         (fun r ->
           [
             ("id", Devlint.Rule.id r);
             ("title", Devlint.Rule.title r);
             ("description", Devlint.Rule.describe r);
             ("hint", Devlint.Rule.hint r);
           ])
         Devlint.Rule.all)
  else
    match Devlint.Waivers.load waivers_path with
    | Error e -> fail 1 "%s" e
    | Ok waivers ->
        let files = Devlint.Lint.files_under paths in
        let errors = ref [] in
        let findings = ref [] in
        List.iter
          (fun f ->
            match Devlint.Lint.check_file f with
            | Error e -> errors := (f, e) :: !errors
            | Ok fs -> findings := fs :: !findings)
          files;
        let all =
          List.sort Devlint.Lint.compare_finding (List.concat (List.rev !findings))
        in
        let unwaived, waived, unused = Devlint.Waivers.split waivers all in
        let run =
          {
            Devlint.Report.unwaived;
            waived;
            unused;
            errors = List.rev !errors;
            files_scanned = List.length files;
          }
        in
        print_string
          (if json then Json.to_string (Devlint.Report.json run) ^ "\n"
           else Devlint.Report.text run);
        if Devlint.Report.exit_code run <> 0 then exit 1

let devlint_term =
  let paths =
    Arg.(
      value
      & pos_all string [ "lib"; "bin" ]
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to scan ($(b,.ml) files, recursively; \
             default: $(b,lib bin)).")
  in
  let waivers =
    Arg.(
      value
      & opt string "devlint.waivers"
      & info [ "waivers" ] ~docv:"FILE"
          ~doc:
            "Waiver file: one $(b,'DLxxx path justification') per line, \
             justification mandatory. The only way to silence a finding.")
  in
  Term.(
    const run_devlint $ paths $ json_flag
    $ flag "rules"
        "Print the stable devlint rule table (id, title, one-line \
         description) and exit; nothing is scanned."
    $ waivers)

(* ------------------------------------------------------------------ *)
(* certify: the symbolic sortedness certifier as an analysis, with the
   exact n! check as the fallback on Unknown. No trust boundary runs
   the symbolic certifier; this command is where it is exposed.        *)

let run_certify files dims json =
  if files = [] then `Error (true, "no kernel files given")
  else begin
    let failures =
      report_files ~json dims files (fun file (cfg, prog, _lines) ->
          let verdict = Analysis.Symcert.certify cfg prog in
          (* Soundness contract: Unknown MUST fall back to the exact n!
             check; Proved/Refuted are final (Refuted is already
             execution-confirmed). *)
          let certified, method_, detail =
            match verdict with
            | Analysis.Symcert.Proved ->
                (true, "symbolic", Analysis.Symcert.explain verdict)
            | Analysis.Symcert.Refuted _ ->
                (false, "symbolic", Analysis.Symcert.explain verdict)
            | Analysis.Symcert.Unknown reason -> (
                match Registry.Verify.fallback cfg prog with
                | Ok () ->
                    ( true,
                      "exact",
                      Printf.sprintf
                        "unknown symbolically (%s); proved by the exhaustive \
                         n! check"
                        reason )
                | Error msg -> (false, "exact", msg))
          in
          let verdict = Analysis.Symcert.verdict_name verdict in
          ( (if certified then 0 else 1),
            Json.(
              Obj
                [
                  ("file", Str file);
                  ("n", Int cfg.Isa.Config.n);
                  ("m", Int cfg.Isa.Config.m);
                  ("verdict", Str verdict);
                  ("certified", Bool certified);
                  ("method", Str method_);
                  ("detail", Str detail);
                ]),
            fun () ->
              Printf.printf "%s: %s [%s] (%s): %s\n" file
                (if certified then "certified" else "NOT CERTIFIED")
                verdict method_ detail ))
    in
    if failures > 0 then exit 1;
    `Ok ()
  end

(* ------------------------------------------------------------------ *)
(* optimize / equiv: the proof-carrying optimizer and the translation- *)
(* validation equivalence engine over kernel files.                    *)

(* The 0-1 shortcut is sound only once the kernel is {e syntactically} a
   comparator network (paper §2.3) — hence extraction first, and the
   2^n binary check only on the extracted network. *)
let network_verdict cfg p =
  match Opt.Extract.run cfg p with
  | Opt.Extract.Rejected { index; reason } -> Error (index, reason)
  | Opt.Extract.Network net ->
      let optimal_size =
        if cfg.Isa.Config.n >= 1 && cfg.Isa.Config.n <= 8 then
          Some (Sortnet.size (Sortnet.optimal cfg.Isa.Config.n))
        else None
      in
      Ok (net, Sortnet.sorts_all_binary net, optimal_size)

let run_optimize file dims json out x86 fault_plan =
  setup_faults fault_plan;
  let cfg, prog, _lines = load_kernel_or_exit dims file in
  let rep = Opt.Pipeline.run cfg prog in
  let p = rep.Opt.Pipeline.optimized in
  let before = Perf.Cost.analyze cfg prog
  and after = Perf.Cost.analyze cfg p in
  let cyc_before = Perf.Cost.simulated_cycles cfg prog
  and cyc_after = Perf.Cost.simulated_cycles cfg p in
  let rendered =
    if x86 then Isa.Program.to_x86 cfg p else Isa.Program.to_string cfg p
  in
  let net = network_verdict cfg p in
  if json then begin
    let open Registry.Json in
    let delta_obj (d : Opt.Pipeline.delta) =
      Obj
        [
          ("pass", Str d.Opt.Pipeline.pass);
          ("round", Int d.Opt.Pipeline.round);
          ("instructions_before", Int d.Opt.Pipeline.instructions_before);
          ("instructions_after", Int d.Opt.Pipeline.instructions_after);
          ("cycles_before", Int d.Opt.Pipeline.cycles_before);
          ("cycles_after", Int d.Opt.Pipeline.cycles_after);
          ("critical_before", Int d.Opt.Pipeline.critical_before);
          ("critical_after", Int d.Opt.Pipeline.critical_after);
        ]
    in
    let refusal_obj (f : Opt.Pipeline.refusal) =
      Obj
        [
          ("pass", Str f.Opt.Pipeline.pass);
          ("round", Int f.Opt.Pipeline.round);
          ("reason", Str f.Opt.Pipeline.reason);
        ]
    in
    (* "passes" is the deduplicated applied-pass set in sorted order
       (byte-stable); "deltas" keeps application order, which is
       deterministic for a given input. *)
    let passes =
      List.sort_uniq compare
        (List.map
           (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass)
           rep.Opt.Pipeline.deltas)
    in
    let network =
      match net with
      | Error (index, reason) ->
          Obj
            [
              ("extracted", Bool false);
              ("index", Int index);
              ("reason", Str reason);
            ]
      | Ok (net, zero_one, optimal_size) ->
          Obj
            ([
               ("extracted", Bool true);
               ( "comparators",
                 Arr
                   (List.map
                      (fun (i, j) -> Arr [ Int i; Int j ])
                      net.Sortnet.comparators) );
               ("size", Int (Sortnet.size net));
               ("zero_one_certified", Bool zero_one);
             ]
            @
            match optimal_size with
            | Some s -> [ ("optimal_size", Int s) ]
            | None -> [])
    in
    print_endline
      (to_string
         (Obj
            [
              ("file", Str file);
              ("n", Int cfg.Isa.Config.n);
              ("m", Int cfg.Isa.Config.m);
              ("instructions_before", Int before.Perf.Cost.instructions);
              ("instructions_after", Int after.Perf.Cost.instructions);
              ("cycles_before", Int cyc_before);
              ("cycles_after", Int cyc_after);
              ("critical_before", Int before.Perf.Cost.critical_path);
              ("critical_after", Int after.Perf.Cost.critical_path);
              ("rounds", Int rep.Opt.Pipeline.rounds);
              ("certified", Bool rep.Opt.Pipeline.certified);
              ("passes", Arr (List.map (fun s -> Str s) passes));
              ("deltas", Arr (List.map delta_obj rep.Opt.Pipeline.deltas));
              ( "refusals",
                Arr (List.map refusal_obj rep.Opt.Pipeline.refusals) );
              ("network", network);
              ("program", Str rendered);
            ]))
  end
  else begin
    Printf.printf "# %s: n=%d m=%d\n" file cfg.Isa.Config.n
      cfg.Isa.Config.m;
    List.iter
      (fun (d : Opt.Pipeline.delta) ->
        Printf.printf
          "# round %d %s: %d -> %d instructions, %d -> %d simulated \
           cycles, %d -> %d critical path\n"
          d.Opt.Pipeline.round d.Opt.Pipeline.pass
          d.Opt.Pipeline.instructions_before
          d.Opt.Pipeline.instructions_after d.Opt.Pipeline.cycles_before
          d.Opt.Pipeline.cycles_after d.Opt.Pipeline.critical_before
          d.Opt.Pipeline.critical_after)
      rep.Opt.Pipeline.deltas;
    List.iter
      (fun (f : Opt.Pipeline.refusal) ->
        Printf.printf "# round %d %s: REFUSED — %s\n" f.Opt.Pipeline.round
          f.Opt.Pipeline.pass f.Opt.Pipeline.reason)
      rep.Opt.Pipeline.refusals;
    Printf.printf
      "# total: %d -> %d instructions, %d -> %d simulated cycles, %d -> \
       %d critical path (%d round(s))\n"
      before.Perf.Cost.instructions after.Perf.Cost.instructions cyc_before
      cyc_after before.Perf.Cost.critical_path after.Perf.Cost.critical_path
      rep.Opt.Pipeline.rounds;
    Printf.printf "# certified: %s\n"
      (if rep.Opt.Pipeline.certified then
         Printf.sprintf "OK — sorts all %d! permutations"
           cfg.Isa.Config.n
       else "NO (input does not certify)");
    (match net with
    | Ok (net, zero_one, optimal_size) ->
        Printf.printf
          "# network: extracted %d comparator(s) [%s], 0-1 certified: %s%s\n"
          (Sortnet.size net)
          (String.concat " "
             (List.map
                (fun (i, j) -> Printf.sprintf "(%d,%d)" i j)
                net.Sortnet.comparators))
          (if zero_one then "yes" else "NO")
          (match optimal_size with
          | Some s when Sortnet.size net = s -> " — size-optimal"
          | Some s ->
              Printf.sprintf " — known optimal is %d comparator(s)" s
          | None -> "")
    | Error (index, reason) ->
        Printf.printf "# network: not extractable at instruction %d: %s\n"
          index reason);
    match out with
    | None -> print_string rendered
    | Some _ -> ()
  end;
  (match out with
  | Some path ->
      write_file path rendered;
      if not json then Printf.printf "# wrote %s\n" path
  | None -> ())

let run_equiv file_a file_b dims json =
  (* Both kernels must run in one register file: unless -n/-m pin it,
     take the widest configuration either file needs. *)
  let ca, _, _ = load_kernel_or_exit dims file_a in
  let cb, _, _ = load_kernel_or_exit dims file_b in
  let wide =
    ( Some (max ca.Isa.Config.n cb.Isa.Config.n),
      Some (max ca.Isa.Config.m cb.Isa.Config.m) )
  in
  let cfg, pa, _ = load_kernel_or_exit wide file_a in
  let _, pb, _ = load_kernel_or_exit wide file_b in
  let verdict = Machine.Exec.equiv cfg pa pb in
  (if json then
     let ints a = Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list a)) in
     print_endline
       (Json.to_string
          (Json.Obj
             ([
                ("a", Json.Str file_a);
                ("b", Json.Str file_b);
                ("n", Json.Int cfg.Isa.Config.n);
                ("m", Json.Int cfg.Isa.Config.m);
              ]
             @
             match verdict with
             | Machine.Exec.Equivalent -> [ ("equivalent", Json.Bool true) ]
             | Machine.Exec.Differs { input; out_a; out_b } ->
                 [
                   ("equivalent", Json.Bool false);
                   ("input", ints input);
                   ("output_a", ints out_a);
                   ("output_b", ints out_b);
                 ])))
   else
     match verdict with
     | Machine.Exec.Equivalent ->
         Printf.printf
           "%s and %s are equivalent: bit-identical value registers on all %d! \
            permutations\n"
           file_a file_b cfg.Isa.Config.n
     | Machine.Exec.Differs { input; out_a; out_b } ->
         let arr a = String.concat " " (List.map string_of_int (Array.to_list a)) in
         Printf.printf "%s and %s DIFFER\n" file_a file_b;
         Printf.printf "counterexample input: %s\n" (arr input);
         Printf.printf "%s output:            %s\n" file_a (arr out_a);
         Printf.printf "%s output:            %s\n" file_b (arr out_b));
  if verdict <> Machine.Exec.Equivalent then exit 1

(* ------------------------------------------------------------------ *)
(* registry list | verify | gc                                         *)

let registry_list cache_dir count =
  let root = resolve_root cache_dir in
  (* One walk answers every count — entry names, layout split, torn temp
     dirs, quarantine population — so [--count] never opens a meta.json
     and the full listing only reads metadata for the lines it prints. *)
  let s = Registry.Store.scan ~root in
  Printf.printf "# %d entries in %s (%d quarantined)\n"
    (List.length s.Registry.Store.hashes)
    root s.Registry.Store.quarantined;
  if count then
    Printf.printf
      "# layout: %d sharded, %d flat (v1), %d shard dir(s), %d torn temp dir(s)\n"
      (List.length s.Registry.Store.hashes)
      (List.length s.Registry.Store.flat)
      s.Registry.Store.shards
      (List.length s.Registry.Store.tmp)
  else
    List.iter
      (fun h ->
        match Registry.Store.load_unverified ~root h with
        | Ok e ->
            Printf.printf "%s  %s  len=%d cost=%.2f expanded=%d\n"
              (String.sub h 0 12)
              (Key.describe e.Registry.Store.key)
              e.Registry.Store.length e.Registry.Store.predicted_cost
              e.Registry.Store.expanded
        | Error msg -> Printf.printf "%s  <unreadable: %s>\n" (String.sub h 0 12) msg)
      s.Registry.Store.hashes

let registry_verify cache_dir lint stats_json =
  let root = resolve_root cache_dir in
  let counters = Registry.Store.fresh_counters () in
  let rcv = Registry.Store.recover ~counters ~root () in
  print_recovery rcv;
  let checked = Registry.Store.verify_all ~counters ~lint ~root () in
  let bad = ref 0 in
  List.iter
    (fun (h, r) ->
      match r with
      | Ok _ -> Printf.printf "%s  ok\n" (String.sub h 0 12)
      | Error msg ->
          incr bad;
          Printf.printf "%s  QUARANTINED: %s\n" (String.sub h 0 12) msg)
    checked;
  Printf.printf "# %d ok, %d quarantined (%d by the static analyzer)\n"
    (List.length checked - !bad)
    !bad counters.Registry.Store.lint_errors;
  (match stats_json with
  | None -> ()
  | Some path ->
      write_json path
        Json.(
          Obj
            [
              ("label", Str "registry verify");
              ("root", Str root);
              ("lint", Bool lint);
              ("checked", Int (List.length checked));
              ("ok", Int (List.length checked - !bad));
              ("registry", Registry.Store.counters_json counters);
            ]));
  (* Any corrupted entry — found by the recovery scan or the certify
     sweep — is the documented "registry corruption" exit code. *)
  if !bad + rcv.Registry.Store.requarantined > 0 then exit exit_corrupt

let registry_gc cache_dir dry_run =
  let root = resolve_root cache_dir in
  (* Recovery mutates the store (rollback / re-quarantine), so a dry run
     must skip it: --dry-run touches nothing on disk. *)
  if not dry_run then print_recovery (Registry.Store.recover ~root ());
  let report = Registry.Store.gc ~dry_run ~root () in
  List.iter
    (fun v -> Printf.printf "%s %s\n" (if dry_run then "would purge" else "purged") v)
    report.Registry.Store.victims;
  Printf.printf "# %d entries kept, %d purged%s, %d bytes %s\n"
    report.Registry.Store.kept report.Registry.Store.purged
    (if dry_run then " (dry run: nothing removed)" else "")
    report.Registry.Store.reclaimed_bytes
    (if dry_run then "would be reclaimed" else "reclaimed")

(* ------------------------------------------------------------------ *)
(* serve / client: the long-lived synthesis daemon and its thin client. *)

let run_serve socket cache_dir capacity workers max_conns max_queue
    breaker_threshold breaker_cooldown drain_grace stats_json fault_plan =
  setup_faults fault_plan;
  let root = resolve_root cache_dir in
  let cfg =
    {
      Serve.Server.socket_path = socket;
      root;
      capacity;
      workers;
      max_conns;
      max_queue;
      breaker_threshold;
      breaker_cooldown;
      drain_grace;
    }
  in
  let t = Serve.Server.create cfg in
  Serve.Server.run
    ~on_ready:(fun () -> Printf.printf "# serve: listening on %s\n%!" socket)
    ~handle_signals:true t;
  match stats_json with
  | Some path ->
      write_json path (Serve.Server.snapshot t)
  | None -> ()

let serve_term =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on (unlinked and rebound).")
  in
  let capacity =
    Arg.(
      value & opt int 128
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "In-memory LRU capacity in entries. Warm hits are served with \
             zero directory scans and zero re-certifications; 0 disables \
             the memory layer.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Persistent search worker domains (default 2).")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection budget. A connection over the budget is \
             answered with one typed 'overloaded' line (never silently \
             dropped) and closed; clients see exit code 6.")
  in
  let max_queue =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Bounded pending-request queue in front of the worker pool. A \
             request that would wait behind $(docv) queued jobs is shed \
             with a typed 'overloaded' response and a retry_after hint.")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 3
      & info [ "breaker-threshold" ] ~docv:"K"
          ~doc:
            "Poison-key circuit breaker: $(docv) consecutive crashed or \
             budget-exhausted outcomes for the same canonical key trip its \
             breaker; further requests fast-fail with 'circuit_open' \
             instead of burning workers.")
  in
  let breaker_cooldown =
    Arg.(
      value & opt duration 5.0
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:
            "Seconds a tripped breaker stays open before half-opening to \
             admit a single probe request (monotonic clock).")
  in
  let drain_grace =
    Arg.(
      value & opt duration 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "Graceful-drain deadline: on SIGTERM/SIGINT the daemon stops \
             accepting, sheds queued work, waits up to $(docv) seconds for \
             in-flight jobs, then persists the LRU warm set for the next \
             start.")
  in
  Term.(
    const run_serve $ socket $ cache_dir $ capacity $ workers $ max_conns
    $ max_queue $ breaker_threshold $ breaker_cooldown $ drain_grace
    $ stats_json $ fault_plan)

let run_client server op key timeout budget deadline optimize stats_json
    fault_plan =
  setup_faults fault_plan;
  (* The absolute deadline propagated with the request: --deadline wins,
     else it is derived from --timeout (per-attempt budget for the
     server's default 1+1 attempts, plus a second of slack). *)
  let deadline =
    match deadline with
    | Some d -> Some (Fault.Clock.now () +. d)
    | None -> Option.map (fun t -> Fault.Clock.now () +. (t *. 2.0) +. 1.0) timeout
  in
  let req =
    match op with
    | `Stats -> P.Stats
    | `Shutdown -> P.Shutdown
    | `Lookup -> P.Lookup key
    | `Synth ->
        P.Synth (key, { P.default_params with timeout; budget; optimize; deadline })
  in
  let who = "synth client" in
  match roundtrip who server req with
  | P.Goodbye -> Printf.printf "# server shutting down\n"
  | P.Snapshot j -> (
      match stats_json with
      | Some path -> write_json path j
      | None -> print_endline (Json.to_string j))
  | P.Served s -> ( match print_served s with 0 -> () | code -> exit code)
  | _ -> fail ~who exit_unreachable "protocol error: unexpected response type"

let client_term =
  let op =
    Arg.(
      value
      & opt
          (enum
             [
               ("synth", `Synth);
               ("lookup", `Lookup);
               ("stats", `Stats);
               ("shutdown", `Shutdown);
             ])
          `Synth
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Request to send: $(b,synth) (serve or synthesize), $(b,lookup) \
             (cache/registry probe only, never searches), $(b,stats) \
             (counter snapshot as JSON), or $(b,shutdown).")
  in
  let deadline =
    Arg.(
      value
      & opt (some duration) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Total patience for this request, propagated to the server as \
             an absolute deadline: a request still queued when it passes \
             is shed server-side ('timed_out') instead of burning a \
             worker. Defaults to a deadline derived from $(b,--timeout) \
             when that is set.")
  in
  Term.(
    const run_client $ Arg.required server $ op $ key $ timeout $ state_budget
    $ deadline $ optimize $ stats_json $ fault_plan)

(* ------------------------------------------------------------------ *)
(* The subcommand table: (name, doc, term), every row documenting the  *)
(* one [exits] list.                                                   *)

let registry_commands =
  [
    ( "list",
      "List stored entries (no verification).",
      Term.(
        const registry_list $ cache_dir
        $ flag "count"
            "Print only the counts (entries, layout split, quarantine) from \
             a single directory walk — no per-entry metadata is read.") );
    ( "verify",
      "Run the crash-recovery scan, then re-certify every entry; quarantine \
       and report failures (exit 4 if any entry was corrupted). With \
       $(b,--lint), entries must also be lint-clean.",
      Term.(
        const registry_verify $ cache_dir
        $ flag "lint"
            "Also run the static analyzer over every entry that certifies; \
             quarantine entries with ERROR-level findings (a provably \
             removable instruction in a supposedly optimal kernel)."
        $ stats_json) );
    ( "gc",
      "Re-certify every entry, quarantine failures, then delete the \
       quarantine area, reporting the reclaimed entries and bytes. With \
       $(b,--dry-run), only report what would be removed.",
      Term.(
        const registry_gc $ cache_dir
        $ flag "dry-run"
            "Report what gc would remove (victims, entry count, reclaimable \
             bytes) without touching the store — no recovery, no \
             quarantining, no deletion.") );
  ]

let commands =
  [
    ( "batch",
      "Run a list of synthesis jobs: registry hits are served verified, \
       misses run across worker domains, results merge deterministically. \
       Never aborts mid-batch: a timed-out, exhausted, or crashed job is \
       reported in place and the rest of the batch completes. When all \
       failures are timeouts the exit code is 2; all budget exhaustions, 3; \
       anything else, 1.",
      batch_term );
    ( "serve",
      "Run the long-lived synthesis daemon: newline-delimited JSON over a \
       Unix domain socket (ops: lookup, synth, batch, stats, shutdown). \
       Three serving layers — a bounded in-memory LRU over certified \
       entries, the sharded on-disk registry (crash recovery at open and \
       after any quarantine), and a persistent worker pool running the \
       scheduler's degradation ladder. Identical concurrent requests \
       coalesce onto one search. Admission control sheds excess load with \
       typed responses ($(b,--max-conns), $(b,--max-queue)), a per-key \
       circuit breaker fast-fails poison keys, and SIGTERM/SIGINT drain \
       gracefully — finishing in-flight work and persisting the warm set, \
       restored (re-certified) on restart. Runs until a shutdown request or \
       signal arrives; with $(b,--stats-json), writes the final counter \
       snapshot on exit.",
      serve_term );
    ( "client",
      "One request against a running synthesis daemon. Key flags (-n, \
       --engine, ...) mirror the default command; the response kernel \
       prints exactly as a local synthesis would print it. Exit code 5 when \
       the daemon is unreachable or the response is torn or unparsable; \
       otherwise the served status maps to the usual codes \
       (cached/synthesized 0, timed out 2, exhausted 3, shed by the server \
       — overloaded or circuit_open — 6, failed 1).",
      client_term );
    ( "lint",
      "Run the static analyzer over kernel files: dataflow lints (dead \
       writes, unconsumed cmps, orphan cmovs, uninitialized scratch reads, \
       trailing code) plus the permutation-set abstract interpreter \
       (semantic no-ops, sortedness certification). Exits 1 on any ERROR \
       finding. With $(b,--rules), prints the stable rule-id table (id, \
       severity, description) instead.",
      Term.(
        ret
          (const run_lint $ files_arg $ dims $ json_flag
          $ flag "rules"
              "Print the stable rule-id table (id, severity, one-line \
               description) and exit; no kernel files are read.")) );
    ( "analyze",
      "Full static-analysis report for one kernel: per-instruction dataflow \
       facts, reachable-assignment counts per program point, the exact n! \
       correctness verdict, lint findings, and the proof-carrying DCE \
       result (with the shrunk kernel when anything was removable).",
      Term.(const run_analyze $ file_arg $ dims $ json_flag) );
    ( "devlint",
      "Lint this repository's own source for Domain-parallel and durability \
       discipline: mutable state shared into Domain.spawn without \
       Atomic/Mutex, raw wall-clock reads and unwarped sleeps outside \
       lib/fault, Sys.rename without fsync, double-closed descriptors, and \
       catch-all exception swallows in daemon paths. Findings are silenced \
       only via the committed waiver file; any unwaived finding exits 1. \
       With $(b,--rules), prints the stable rule-id table instead.",
      devlint_term );
    ( "certify",
      "Certify kernel files as sorting kernels: the symbolic order-poset \
       certifier first (polynomial, no n! enumeration), the paper's \
       exhaustive permutation check only on an $(i,unknown) verdict. A \
       $(i,refuted) verdict always carries an execution-confirmed \
       counterexample. Exits 1 when any file fails to certify (or to \
       parse).",
      Term.(ret (const run_certify $ files_arg $ dims $ json_flag)) );
    ( "optimize",
      "Run the proof-carrying pass pipeline (copy propagation, redundant-cmp \
       elimination, cmov coalescing, DCE, canonical renaming, list \
       scheduling) to fixpoint over a kernel file. Every rewrite is accepted \
       only with a certificate — bit-identical value registers on all n! \
       permutations, then re-certified by the exact check — and refused \
       otherwise, leaving the kernel unchanged. Also reports whether the \
       result is syntactically a comparator network (then 0-1 certified \
       and compared against the known-optimal size).",
      Term.(
        const run_optimize $ file_arg $ dims $ json_flag
        $ Arg.(
            value
            & opt (some string) None
            & info [ "o"; "output" ] ~docv:"FILE"
                ~doc:"Write the optimized kernel to $(docv) instead of stdout.")
        $ x86 $ fault_plan) );
    ( "equiv",
      "Decide whether two kernel files compute identical value-register \
       outputs on every input, by exact comparison over all n! permutations \
       (translation validation, not the 0-1 shortcut — sound for arbitrary \
       cmov kernels, not just networks). Exits 0 when equivalent; exits 1 \
       with a concrete counterexample permutation and both outputs when \
       they differ.",
      Term.(
        const run_equiv $ file_arg
        $ Arg.(
            required
            & pos 1 (some file) None
            & info [] ~docv:"B.txt" ~doc:"Second kernel file.")
        $ dims $ json_flag) );
  ]

let () =
  let command (name, doc, term) = Cmd.v (Cmd.info name ~exits ~doc) term in
  let registry =
    Cmd.group
      (Cmd.info "registry" ~exits
         ~doc:"Inspect and maintain the on-disk kernel registry.")
      (List.map command registry_commands)
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term
          (Cmd.info "synth" ~exits
             ~doc:"Synthesize branchless sorting kernels (CGO'25 reproduction)")
          (registry :: List.map command commands)))
