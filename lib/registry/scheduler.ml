type status =
  | Synthesized
  | Timed_out
  | Exhausted of { live : int; budget : int option }
  | Failed of string

type attempt = { n : int; failure : string; backoff : float }

type job_result = {
  key : Key.t;
  status : status;
  program : Isa.Program.t option;
  length : int option;
  attempts : int;
  elapsed : float;
  search : Search.result option;
  degraded : bool;
  rung : int;
  attempt_log : attempt list;
  provenance : Store.provenance option;
}

type 'i run_outcome = { result : 'i Search.outcome; degraded : bool; rung : int }

(* ------------------------------------------------------------------ *)
(* Degradation ladder.                                                 *)

let max_rung = 3

(* Rung [r] of the ladder: the option set to retry with after the search
   raised [Resource_exhausted] under rung [r - 1]. Each rung cuts the
   live-state set harder than the last; every rung above 0 abandons the
   optimality (and completeness) guarantees of the base configuration, so
   its results are flagged degraded and never stored. *)
let degrade_opts (base : Search.options) = function
  | 0 -> base
  | 1 ->
      let cut =
        match base.Search.cut with
        | Search.No_cut -> Search.Mult 2.0
        | Search.Mult k when k > 2.0 -> Search.Mult 2.0
        | Search.Mult k -> Search.Mult (Float.max 1.0 (k /. 2.))
        | Search.Add d when d > 2 -> Search.Add 2
        | Search.Add d -> Search.Add (max 1 (d / 2))
      in
      { base with Search.cut }
  | 2 -> { base with Search.cut = Search.Mult 1.0 }
  | _ ->
      {
        base with
        Search.cut = Search.Mult 1.0;
        action_filter = Search.Optimal_guided;
        heuristic = Search.Perm_count;
      }

(* The ladder over one machine: [run opts] searches with one rung's
   options. *)
let ladder ~mode ?budget key run =
  let base = Key.options key in
  let base =
    match budget with
    | None -> base
    | Some b -> { base with Search.state_budget = Some b }
  in
  (* The distinct rungs for this base configuration (adjacent rungs can
     coincide, e.g. a [Mult 2.0] base makes rung 1 and rung 2 both
     [Mult 1.0]); running the same options twice cannot help. A
     non-existence claim holds only under the options it was searched
     with, and every rung above 0 prunes harder, so a proof runs rung 0
     alone. *)
  let rungs =
    match mode with
    | Search.Prove_none _ -> [ (0, base) ]
    | Search.Find_first | Search.All_optimal ->
        List.init (max_rung + 1) (fun r -> (r, degrade_opts base r))
        |> List.fold_left
             (fun acc (r, o) ->
               match acc with (_, o') :: _ when o = o' -> acc | _ -> (r, o) :: acc)
             []
        |> List.rev
  in
  let rec go = function
    | [] -> assert false
    | [ (rung, opts) ] ->
        (* Last rung: exhaustion here propagates to the caller. *)
        { result = run opts; degraded = rung > 0; rung }
    | (rung, opts) :: rest -> (
        match run opts with
        | r -> { result = r; degraded = rung > 0; rung }
        | exception Search.Resource_exhausted _ -> go rest)
  in
  go rungs

(* Only a [Parallel] key runs on the pool. *)
let pool key domains =
  match key.Key.engine with
  | Key.Parallel -> Some domains
  | Key.Astar | Key.Level -> None

let run_key ?deadline ?(domains = 2) ?(mode = Search.Find_first) ?budget key =
  let domains = pool key domains and cfg = Key.config key in
  ladder ~mode ?budget key (fun opts ->
      Search.run_mode ~opts ?deadline ?domains ~mode cfg)

let run_isa_key ?deadline ?(domains = 2) ?(mode = Search.Find_first) ?budget isa
    key =
  let domains = pool key domains and cfg = Key.config key in
  ladder ~mode ?budget key (fun opts ->
      Search.run_isa ~opts ?deadline ?domains ~mode cfg isa)

let ( let* ) = Result.bind

let parse_jobs src =
  let* j = Json.parse src in
  if j = Json.Arr [] then Error "jobs file is an empty array"
  else Json.list ~item:"job" Key.of_json j

(* ------------------------------------------------------------------ *)
(* One job.                                                            *)

let failure_string = function
  | Timed_out -> "timeout"
  | Exhausted { live; budget } -> (
      match budget with
      | Some b ->
          Printf.sprintf "resource exhausted: %d live states over budget %d"
            live b
      | None ->
          Printf.sprintf
            "resource exhausted: %d live states (no budget configured; \
             alloc-budget fault site fired)"
            live)
  | Failed msg -> msg
  | Synthesized -> "synthesized"

(* Exponential backoff with deterministic jitter: the delay before retry
   [attempt + 1] depends only on (key, attempt), so a batch re-run sleeps
   the same schedule — no wall-clock or PRNG state leaks into results. *)
let backoff_delay ~base ~key ~attempt =
  let expo = base *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min 2.0 expo in
  let h = Hashtbl.hash (Key.canonical key, attempt) in
  let jitter = 0.5 +. (float_of_int (h land 0xFFFF) /. 65536.) in
  capped *. jitter

(* ------------------------------------------------------------------ *)
(* Publish rule.                                                       *)

type polished = {
  kernel : Isa.Program.t;
  search : Search.result;
  report : Opt.Pipeline.report option;
  provenance : Store.provenance option;
}

let pass_names (rep : Opt.Pipeline.report) =
  List.map (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass) rep.Opt.Pipeline.deltas

let polish ~optimize key (r : Search.result) =
  match r.Search.programs with
  | [] -> Error "no kernel found within the bound"
  | p :: rest -> (
      let cfg = Key.config key in
      match Machine.Exec.certify cfg p with
      | Error msg -> Error ("certification failed: " ^ msg)
      | Ok () when not optimize ->
          Ok { kernel = p; search = r; report = None; provenance = None }
      | Ok () ->
          (* Every rewrite the pipeline applies is certified bit-identical,
             and a refused pass leaves the kernel alone — so this can only
             reorder/shrink, never invalidate, the certified program. *)
          let rep = Opt.Pipeline.run cfg p in
          let kernel = rep.Opt.Pipeline.optimized in
          let provenance =
            if Isa.Program.equal kernel p then None
            else
              Some
                {
                  Store.optimized_from =
                    Digest.to_hex (Digest.string (Isa.Program.to_string cfg p));
                  passes = pass_names rep;
                }
          in
          Ok
            {
              kernel;
              search = { r with Search.programs = kernel :: rest };
              report = Some rep;
              provenance;
            })

(* One job, run to completion on the calling domain (a serve pool
   worker): up to [1 + retries] attempts, each against its own deadline,
   with backoff between attempts; a finished search that yields no
   publishable kernel, or one that exhausts a configured state budget,
   is final, and so is a failed attempt whose backoff would end at or
   after the job's [deadline]. Exceptions must not escape, so
   everything funnels into a [status]; each failed attempt is recorded
   in the [attempt_log]. *)
let run_one ?(optimize = false) ?deadline ~timeout ~retries ~backoff ~budget
    key =
  let start = Fault.Clock.now () in
  let log = ref [] in
  let rec attempt k =
    let attempt_deadline =
      match (Option.map (fun t -> Fault.Clock.now () +. t) timeout, deadline) with
      | Some a, Some d -> Some (Float.min a d)
      | a, None -> a
      | None, d -> d
    in
    let outcome =
      match
        if Fault.fire Fault.Scheduler_job_exception then
          raise (Fault.Injected Fault.Scheduler_job_exception);
        run_key ?deadline:attempt_deadline ?budget key
      with
      | o -> (
          match polish ~optimize key o.result with
          | Ok pol -> `Done (pol, o)
          (* No kernel within the bound, or one that fails
             certification: the search is deterministic, so a retry
             would end the same way. *)
          | Error msg -> `Final (Failed msg))
      | exception Search.Timeout -> `Retry Timed_out
      (* The search and its live-state count are deterministic: the next
         attempt would exhaust the same budget at the same state. Only
         the [search.alloc_budget] fault site raises with no budget. *)
      | exception Search.Resource_exhausted { live; budget = Some b } ->
          `Final (Exhausted { live; budget = Some b })
      | exception Search.Resource_exhausted { live; budget = None } ->
          `Retry (Exhausted { live; budget = None })
      | exception e -> `Retry (Failed (Printexc.to_string e))
    in
    let give_up status =
      log := { n = k; failure = failure_string status; backoff = 0. } :: !log;
      (status, None, k)
    in
    match outcome with
    | `Done (pol, o) -> (Synthesized, Some (pol, o), k)
    | `Final status -> give_up status
    | `Retry status ->
        let d = backoff_delay ~base:backoff ~key ~attempt:k in
        let late =
          match deadline with
          | Some dl -> Fault.Clock.now () +. d >= dl
          | None -> false
        in
        if k > retries || late then give_up status
        else begin
          log := { n = k; failure = failure_string status; backoff = d } :: !log;
          Fault.Clock.sleep_for d;
          attempt (k + 1)
        end
  in
  let status, outcome, attempts = attempt 1 in
  let pol = Option.map fst outcome in
  let program = Option.map (fun p -> p.kernel) pol in
  {
    key;
    status;
    program;
    length = Option.map Isa.Program.length program;
    attempts;
    elapsed = Fault.Clock.now () -. start;
    search = Option.map (fun p -> p.search) pol;
    degraded = (match outcome with Some (_, o) -> o.degraded | None -> false);
    rung = (match outcome with Some (_, o) -> o.rung | None -> 0);
    attempt_log = List.rev !log;
    provenance = Option.bind pol (fun p -> p.provenance);
  }

(* ------------------------------------------------------------------ *)
(* Status tags.                                                        *)

let status_string = function
  | Synthesized -> "synthesized"
  | Timed_out -> "timed_out"
  | Exhausted _ -> "exhausted"
  | Failed _ -> "failed"

(* Outcomes the serve-layer circuit breaker counts as poison evidence:
   a key that exhausts its state budget will do so again on the next
   attempt. Timeouts and transient failures do not count — they say
   more about load than about the key. *)
let poison_status = function
  | Exhausted _ -> true
  | Synthesized | Timed_out | Failed _ -> false
