(* Search-throughput regression gate: the per-PR perf trajectory
   (BENCH_search.json).

   `--bench-search [FILE]` measures states/sec and time-to-optimal for the
   n = 3, 4, 5 searches and appends one history entry to FILE (creating it
   if absent); `--check BASELINE` additionally compares the fresh
   measurement against the last committed entry and exits non-zero on a
   states/sec regression beyond the tolerance (default 20%), or when a
   row's behavioural fingerprint (`generated`, `expanded`,
   `optimal_length`) differs
   from the baseline row of the same name or has no baseline row. The
   n = 3 and n = 4 rows are the paper's best-config find-first synthesis
   (the optimality artifact is the kernel); the n = 5 row is a bounded
   level-synchronous sweep whose artifact is a lower-bound certificate
   ("no kernel of length <= depth"), since a full n = 5 optimal search is a
   minutes-to-hours job (PAPER.md section 6). *)

type bench_row = {
  bench : string;
  bn : int;
  states_per_sec : float;
  time_to_optimal_s : float;
  generated : int;
  expanded : int;
  optimal_length : int option;
  footprint : Search.footprint;
  peak_rss_mb : float;
}

(* The n = 4 and n = 5 rows run the benchmark's own search specs
   ([Benchkit.Spec]), so the two harnesses cannot drift apart. *)
let n5_sweep_depth =
  match Benchkit.Spec.n5_level.Benchkit.Spec.mode with
  | Search.Prove_none depth -> depth
  | _ -> invalid_arg "Spec.n5_level is not a Prove_none sweep"

let spec_row (s : Benchkit.Spec.search) = (s.label, s.n, s.opts, s.mode)

let bench_search_specs =
  [
    ("n3-best-astar", 3, Search.best, Search.Find_first);
    spec_row Benchkit.Spec.n4_astar;
    (* Lower-bound sweep: exhaust every program of length <= depth (only
       the optimality-safe erasure check prunes), certifying "no n=5
       kernel of length <= depth". A full n=5 optimal search is a
       minutes-to-hours job, so this is the n=5 row's deterministic,
       CI-sized stand-in — and its 120-code states make it the most
       representation-sensitive of the three. *)
    spec_row Benchkit.Spec.n5_level;
  ]

let usage msg =
  Printf.eprintf
    "%s\n\
     usage: main.exe --bench-search [FILE] [--rev NAME] [--check BASELINE] \
     [--tolerance T]\n"
    msg;
  exit 2

let bench_repeats () =
  match Sys.getenv_opt "BENCH_REPEATS" with
  | None -> 3
  | Some s -> (
      match int_of_string_opt s with
      | Some r when r >= 1 -> r
      | _ ->
          Printf.eprintf "bench: BENCH_REPEATS must be a positive integer, got %S\n" s;
          exit 2)

let run_bench_row (bench, bn, opts, mode) =
  let cfg = Isa.Config.default bn in
  (* Warm the process-wide distance cache so the first repeat is not
     charged for table precomputation the others skip. *)
  ignore (Distance.compute_cached cfg);
  let best = ref None in
  for _ = 1 to bench_repeats () do
    let r = Search.run_mode ~opts ~mode cfg in
    let s = r.Search.stats in
    let sps =
      if s.Search.elapsed > 0. then
        float_of_int s.Search.generated /. s.Search.elapsed
      else 0.
    in
    match !best with
    | Some (best_sps, _) when best_sps >= sps -> ()
    | _ -> best := Some (sps, r)
  done;
  let sps, r = Option.get !best in
  let s = r.Search.stats in
  (* The rows run in growing order, so the process's peak so far is this
     row's own; it is read before the weighing walk adds its own. *)
  let peak_rss_mb = Benchkit.Phase.self_rss_mb () in
  {
    bench;
    bn;
    states_per_sec = sps;
    time_to_optimal_s = s.Search.elapsed;
    generated = s.Search.generated;
    expanded = s.Search.expanded;
    optimal_length = r.Search.optimal_length;
    footprint = snd (Search.run_weighed ~opts ~mode cfg);
    peak_rss_mb;
  }

(* Bytes per dedup-table entry, by part, as the search ends. *)
let memory_json b =
  let f = b.footprint in
  let per bytes =
    Json.Float
      (if f.Search.states = 0 then 0.
       else float_of_int bytes /. float_of_int f.Search.states)
  in
  Json.Obj
    [
      ("states", Json.Int f.Search.states);
      ( "bytes_per_state",
        Json.Obj
          [
            ("codes", per f.Search.code_bytes);
            ("record", per f.Search.record_bytes);
            ("node", per f.Search.node_bytes);
            ("cell", per f.Search.cell_bytes);
            ( "total",
              per
                (f.Search.code_bytes + f.Search.record_bytes + f.Search.node_bytes
               + f.Search.cell_bytes) );
          ] );
      ("peak_rss_mb", Json.Float b.peak_rss_mb);
    ]

let bench_row_json b =
  Json.Obj
    [
      ("bench", Json.Str b.bench);
      ("n", Json.Int b.bn);
      ("states_per_sec", Json.Float b.states_per_sec);
      ("time_to_optimal_s", Json.Float b.time_to_optimal_s);
      ("generated", Json.Int b.generated);
      ("expanded", Json.Int b.expanded);
      ( "optimal_length",
        match b.optimal_length with Some l -> Json.Int l | None -> Json.Null );
      ("memory", memory_json b);
    ]

(* The committed trajectory: { "schema": ..., "history": [entry; ...] }. *)
let load_history path =
  if not (Sys.file_exists path) then Ok []
  else
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
        match Json.member "history" j with
        | Some (Json.Arr h) -> Ok h
        | _ -> Error (Printf.sprintf "%s: no \"history\" array" path))

(* The last entry's rows, keyed by bench name. *)
let last_entry_rows history =
  match List.rev history with
  | entry :: _ -> (
      match Json.member "entries" entry with
      | Some (Json.Arr rows) ->
          List.filter_map
            (fun row ->
              match Json.member "bench" row with
              | Some (Json.Str name) -> Some (name, row)
              | _ -> None)
            rows
      | _ -> [])
  | [] -> []

(* One stderr line per way [b] fails the gate against the baseline rows
   [old]: a fingerprint field that differs from the row of the same name
   (or no such row), or states/sec below (1 - tolerance) of it. *)
let check_row ~tolerance old b =
  match List.assoc_opt b.bench old with
  | None -> [ Printf.sprintf "FINGERPRINT %s: no baseline row" b.bench ]
  | Some row ->
      let fresh = bench_row_json b in
      let show = Option.fold ~none:"missing" ~some:Json.to_string in
      let fingerprint =
        List.filter_map
          (fun k ->
            let was = Json.member k row and now = Json.member k fresh in
            if was = now then None
            else
              Some
                (Printf.sprintf "FINGERPRINT %s: %s %s -> %s" b.bench k
                   (show was) (show now)))
          [ "generated"; "expanded"; "optimal_length" ]
      in
      let throughput =
        match Option.map Json.to_float (Json.member "states_per_sec" row) with
        | Some (Ok old_sps) when b.states_per_sec < (1. -. tolerance) *. old_sps
          ->
            [
              Printf.sprintf
                "REGRESSION %s: %.0f -> %.0f states/sec (%.0f%% of baseline, \
                 tolerance %.0f%%)"
                b.bench old_sps b.states_per_sec
                (100. *. b.states_per_sec /. old_sps)
                (100. *. (1. -. tolerance));
            ]
        | Some (Ok _) -> []
        | _ -> [ Printf.sprintf "REGRESSION %s: baseline has no states_per_sec" b.bench ]
      in
      fingerprint @ throughput

let bench_search ~out ~rev ~check ~tolerance =
  let rows = List.map run_bench_row bench_search_specs in
  Printf.printf "%-18s %3s %15s %12s %10s %8s\n" "bench" "n" "states/sec"
    "t-optimal s" "generated" "length";
  List.iter
    (fun b ->
      Printf.printf "%-18s %3d %15.0f %12.4f %10d %8s\n" b.bench b.bn
        b.states_per_sec b.time_to_optimal_s b.generated
        (match b.optimal_length with
        | Some l -> string_of_int l
        | None -> "-"))
    rows;
  (* Sanity: the synthesis rows must land the known optima. *)
  List.iter
    (fun b ->
      match (b.bench, b.optimal_length) with
      | "n3-best-astar", l when l <> Some 11 ->
          prerr_endline "n=3 bench did not find the optimal length 11";
          exit 1
      | _ -> ())
    rows;
  let failures =
    match check with
    | None -> []
    | Some baseline -> (
        match load_history baseline with
        | Error e ->
            Printf.eprintf "bench baseline unreadable: %s\n" e;
            exit 1
        | Ok history ->
            let old = last_entry_rows history in
            if old = [] then begin
              Printf.eprintf "bench baseline %s has no entries\n" baseline;
              exit 1
            end;
            List.concat_map (check_row ~tolerance old) rows)
  in
  List.iter prerr_endline failures;
  (match out with
  | None -> ()
  | Some path ->
      let history =
        match load_history path with
        | Ok h -> h
        | Error e ->
            Printf.eprintf "cannot append to %s: %s\n" path e;
            exit 1
      in
      let entry =
        Json.Obj
          [
            ("rev", Json.Str rev);
            ("n5_sweep_depth", Json.Int n5_sweep_depth);
            ("entries", Json.Arr (List.map bench_row_json rows));
          ]
      in
      let json =
        Json.Obj
          [
            ("schema", Json.Str "sortsynth-bench-search/v1");
            ("history", Json.Arr (history @ [ entry ]));
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string json ^ "\n"));
      Printf.printf "wrote %s (%d history entries)\n" path
        (List.length history + 1));
  if failures <> [] then exit 1

let bench_search_cli rest =
  let out = ref None
  and rev = ref "local"
  and check = ref None
  and tolerance = ref 0.2 in
  let rec parse = function
    | [] -> ()
    | "--rev" :: v :: tl ->
        rev := v;
        parse tl
    | "--check" :: v :: tl ->
        check := Some v;
        parse tl
    | "--tolerance" :: v :: tl -> (
        (* The range check also rejects nan and the infinities. *)
        match float_of_string_opt v with
        | Some t when t >= 0. && t < 1. ->
            tolerance := t;
            parse tl
        | _ -> usage (Printf.sprintf "bad --tolerance %s: want 0 <= T < 1" v))
    | v :: tl when v = "-" || (v <> "" && v.[0] <> '-') ->
        out := Some v;
        parse tl
    | v :: _ -> usage ("unknown bench-search option " ^ v)
  in
  parse rest;
  let out = match !out with Some "-" -> None | o -> o in
  bench_search ~out ~rev:!rev ~check:!check ~tolerance:!tolerance

let () =
  match Array.to_list Sys.argv with
  | _ :: "--bench-search" :: rest -> bench_search_cli rest
  | _ -> usage "expected --bench-search"
