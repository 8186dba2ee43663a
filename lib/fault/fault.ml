type site =
  | Registry_write_kernel
  | Registry_write_meta
  | Registry_rename
  | Registry_fsync
  | Scheduler_job_exception
  | Search_alloc_budget
  | Search_deadline
  | Opt_break_pass
  | Serve_torn_connection
  | Serve_slow_client
  | Serve_worker_death
  | Serve_overload
  | Serve_queue_stall
  | Serve_snapshot_torn
  | Serve_drain_hang

let all_sites =
  [
    Registry_write_kernel;
    Registry_write_meta;
    Registry_rename;
    Registry_fsync;
    Scheduler_job_exception;
    Search_alloc_budget;
    Search_deadline;
    Opt_break_pass;
    Serve_torn_connection;
    Serve_slow_client;
    Serve_worker_death;
    Serve_overload;
    Serve_queue_stall;
    Serve_snapshot_torn;
    Serve_drain_hang;
  ]

let site_name = function
  | Registry_write_kernel -> "registry.write_kernel"
  | Registry_write_meta -> "registry.write_meta"
  | Registry_rename -> "registry.rename"
  | Registry_fsync -> "registry.fsync"
  | Scheduler_job_exception -> "scheduler.job_exception"
  | Search_alloc_budget -> "search.alloc_budget"
  | Search_deadline -> "search.deadline"
  | Opt_break_pass -> "opt.break_pass"
  | Serve_torn_connection -> "serve.torn_connection"
  | Serve_slow_client -> "serve.slow_client"
  | Serve_worker_death -> "serve.worker_death"
  | Serve_overload -> "serve.overload"
  | Serve_queue_stall -> "serve.queue_stall"
  | Serve_snapshot_torn -> "serve.snapshot_torn"
  | Serve_drain_hang -> "serve.drain_hang"

let site_index = function
  | Registry_write_kernel -> 0
  | Registry_write_meta -> 1
  | Registry_rename -> 2
  | Registry_fsync -> 3
  | Scheduler_job_exception -> 4
  | Search_alloc_budget -> 5
  | Search_deadline -> 6
  | Opt_break_pass -> 7
  | Serve_torn_connection -> 8
  | Serve_slow_client -> 9
  | Serve_worker_death -> 10
  | Serve_overload -> 11
  | Serve_queue_stall -> 12
  | Serve_snapshot_torn -> 13
  | Serve_drain_hang -> 14

let n_sites = List.length all_sites

let site_of_name s =
  match List.find_opt (fun site -> site_name site = s) all_sites with
  | Some site -> Ok site
  | None ->
      Error
        (Printf.sprintf "unknown fault site %S (expected one of: %s)" s
           (String.concat ", " (List.map site_name all_sites)))

type trigger = Never | Always | Nth of int | Every of int | Prob of float

type plan = { seed : int; warp : float; rules : (site * trigger) list }

exception Injected of site

let () =
  Printexc.register_printer (function
    | Injected s -> Some (Printf.sprintf "Fault.Injected(%s)" (site_name s))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Plan spec parsing.                                                  *)

let trigger_to_string = function
  | Never -> "never"
  | Always -> "always"
  | Nth k -> Printf.sprintf "nth:%d" k
  | Every k -> Printf.sprintf "every:%d" k
  | Prob p -> Printf.sprintf "prob:%.6f" p

let trigger_of_string s =
  let num prefix conv check msg =
    let body =
      String.sub s (String.length prefix) (String.length s - String.length prefix)
    in
    match conv body with
    | Some v when check v -> Ok v
    | _ -> Error (Printf.sprintf "%s in trigger %S" msg s)
  in
  if s = "never" then Ok Never
  else if s = "always" then Ok Always
  else if String.starts_with ~prefix:"nth:" s then
    Result.map
      (fun k -> Nth k)
      (num "nth:" int_of_string_opt (fun k -> k >= 1) "hit index must be >= 1")
  else if String.starts_with ~prefix:"every:" s then
    Result.map
      (fun k -> Every k)
      (num "every:" int_of_string_opt (fun k -> k >= 1) "period must be >= 1")
  else if String.starts_with ~prefix:"prob:" s then
    Result.map
      (fun p -> Prob p)
      (num "prob:" float_of_string_opt
         (fun p -> p >= 0. && p <= 1.)
         "probability must be in [0, 1]")
  else
    Error
      (Printf.sprintf
         "unknown trigger %S (expected always, never, nth:K, every:K, or prob:P)"
         s)

let trim = String.trim

let ( let* ) = Result.bind

let plan_of_string src =
  let clauses =
    String.split_on_char ';' src
    |> List.concat_map (String.split_on_char '\n')
    |> List.map trim
    |> List.filter (fun c -> c <> "" && not (String.starts_with ~prefix:"#" c))
  in
  List.fold_left
    (fun acc clause ->
      let* plan = acc in
      match String.index_opt clause '=' with
      | None -> Error (Printf.sprintf "clause %S is not KEY=VALUE" clause)
      | Some i ->
          let key = trim (String.sub clause 0 i)
          and value =
            trim (String.sub clause (i + 1) (String.length clause - i - 1))
          in
          if key = "seed" then
            match int_of_string_opt value with
            | Some seed -> Ok { plan with seed }
            | None -> Error (Printf.sprintf "bad seed %S" value)
          else if key = "clock.warp" then
            match float_of_string_opt value with
            | Some warp -> Ok { plan with warp }
            | None -> Error (Printf.sprintf "bad clock.warp %S" value)
          else
            let* site = site_of_name key in
            let* trigger = trigger_of_string value in
            Ok { plan with rules = plan.rules @ [ (site, trigger) ] })
    (Ok { seed = 0; warp = 0.; rules = [] })
    clauses

let plan_to_string plan =
  String.concat ";"
    ((Printf.sprintf "seed=%d" plan.seed
     :: (if plan.warp = 0. then []
         else [ Printf.sprintf "clock.warp=%.6f" plan.warp ]))
    @ List.map
        (fun (site, trigger) ->
          Printf.sprintf "%s=%s" (site_name site) (trigger_to_string trigger))
        plan.rules)

let load_file path =
  match open_in_bin path with
  | ic ->
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (plan_of_string src)
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Monotonic clock.                                                    *)

module Clock = struct
  (* One mutex serializes reads so the high-water mark is exact even when
     several domains read concurrently; the critical section is two float
     compares, so contention is negligible next to an expansion step. *)
  let m = Mutex.create ()
  let skew = ref 0.
  let high = ref 0.

  let now () =
    Mutex.lock m;
    let t = Unix.gettimeofday () +. !skew in
    let t = if t > !high then (high := t; t) else !high in
    Mutex.unlock m;
    t

  let warp dt =
    Mutex.lock m;
    skew := !skew +. dt;
    Mutex.unlock m

  (* Sleep in short real-time slices, re-reading the warped clock
     between them, so a concurrent [warp] ends the wait early. The
     slice puts a ceiling on how long a test blocks after warping past
     the deadline; the deadline itself comes from [now], so a warp that
     jumps time forward satisfies it on the next slice boundary. *)
  let sleep_for d =
    if d > 0. then begin
      let deadline = now () +. d in
      let rec wait () =
        let remaining = deadline -. now () in
        if remaining > 0. then begin
          (try Unix.sleepf (Float.min remaining 0.05)
           with Unix.Unix_error _ -> ());
          wait ()
        end
      in
      wait ()
    end
end

(* ------------------------------------------------------------------ *)
(* Runtime.                                                            *)

type runtime = { plan : plan; counts : int Atomic.t array }

let state : runtime option ref = ref None

let install plan =
  state := Some { plan; counts = Array.init n_sites (fun _ -> Atomic.make 0) };
  if plan.warp <> 0. then Clock.warp plan.warp

let disarm () = state := None
let active () = Option.map (fun rt -> rt.plan) !state

(* splitmix64 finalizer: a few xor-shift-multiply rounds give a uniform
   64-bit hash of (seed, site, hit) for the Prob trigger. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let seeded_unit ~seed ~site ~hit =
  let z =
    Int64.(
      add
        (mul (of_int seed) 0x9e3779b97f4a7c15L)
        (add (mul (of_int site) 0xd1342543de82ef95L) (of_int hit)))
  in
  let h = Int64.to_int (Int64.shift_right_logical (mix64 z) 34) in
  (* 30 uniform bits *)
  float_of_int h /. 1073741824.

let fire site =
  match !state with
  | None -> false
  | Some rt ->
      let i = site_index site in
      let hit = 1 + Atomic.fetch_and_add rt.counts.(i) 1 in
      (match List.assoc_opt site rt.plan.rules with
      | None | Some Never -> false
      | Some Always -> true
      | Some (Nth k) -> hit = k
      | Some (Every k) -> hit mod k = 0
      | Some (Prob p) -> seeded_unit ~seed:rt.plan.seed ~site:i ~hit < p)

let hits site =
  match !state with
  | None -> 0
  | Some rt -> Atomic.get rt.counts.(site_index site)

let setup ?file () =
  let inst = Result.map install in
  match file with
  | Some f -> inst (load_file f)
  | None -> (
      match Sys.getenv_opt "SORTSYNTH_FAULT_PLAN" with
      | None | Some "" -> Ok ()
      | Some v when String.contains v '=' -> inst (plan_of_string v)
      | Some path -> inst (load_file path))
