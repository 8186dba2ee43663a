(* Cross-engine equivalence: A*, sequential level-sync, and the parallel
   level engine all run on the shared expansion core (lib/search/expand.ml),
   so for a fixed option set they must agree. These tests pin that contract
   across an options grid (heuristics x cuts x filters x bounds) at n = 3
   and n = 4, and check the parallel engine's feature parity: every option
   honored, path-count solution semantics, populated prune counters. *)

let check = Alcotest.check
let verify cfg p = Machine.Exec.sorts_all_permutations cfg p

let opt_len = Alcotest.option Alcotest.int

let name_of opts =
  Printf.sprintf "h=%s cut=%s filter=%s bound=%s"
    (match opts.Search.heuristic with
    | Search.No_heuristic -> "none"
    | Search.Perm_count -> "perm"
    | Search.Assign_count -> "assign"
    | Search.Dist_bound -> "dist")
    (match opts.Search.cut with
    | Search.No_cut -> "off"
    | Search.Mult k -> Printf.sprintf "x%.1f" k
    | Search.Add d -> Printf.sprintf "+%d" d)
    (match opts.Search.action_filter with
    | Search.All_actions -> "all"
    | Search.Optimal_guided -> "guided")
    (match opts.Search.max_len with None -> "-" | Some l -> string_of_int l)

(* Everything a run reports but wall-clock artifacts: every counter and
   the per-level rows. *)
let strip (s : Search.stats) =
  ( s.Search.expanded,
    s.Search.generated,
    s.Search.deduped,
    s.Search.pruned_cut,
    s.Search.pruned_viability,
    s.Search.pruned_bound,
    s.Search.max_open,
    s.Search.levels )

(* Level-sync vs parallel on the same options: identical results and
   statistics by construction (same expansion core, same merge order,
   each node's delta merged when its node is). *)
let assert_level_parallel_agree ~mode cfg opts =
  let name = name_of opts in
  let seq =
    Search.run_mode ~opts:{ opts with Search.engine = Search.Level_sync } ~mode
      cfg
  in
  let par = Search.run_mode ~opts ~domains:3 ~mode cfg in
  check opt_len (name ^ ": optimal length") seq.Search.optimal_length
    par.Search.optimal_length;
  check Alcotest.int (name ^ ": solution count (paths)")
    seq.Search.solution_count par.Search.solution_count;
  check Alcotest.int
    (name ^ ": distinct finals")
    seq.Search.distinct_final_states par.Search.distinct_final_states;
  if seq.Search.programs <> par.Search.programs then
    Alcotest.failf "%s: parallel programs differ from sequential" name;
  List.iter
    (fun p -> if not (verify cfg p) then Alcotest.failf "%s: bad kernel" name)
    (seq.Search.programs @ par.Search.programs);
  if strip seq.Search.stats <> strip par.Search.stats then
    Alcotest.failf "%s: parallel statistics differ from sequential" name;
  (seq, par)

(* Prune counters on the parallel run must be populated whenever the
   corresponding pruning option can bite. *)
let assert_parallel_counters_populated opts (par : Search.result) =
  let name = name_of opts in
  let s = par.Search.stats in
  (match opts.Search.cut with
  | Search.No_cut -> ()
  | Search.Mult _ | Search.Add _ ->
      if s.Search.pruned_cut = 0 then
        Alcotest.failf "%s: parallel pruned_cut = 0 with the cut on" name);
  if
    (opts.Search.erasure_check || opts.Search.dist_viability)
    && s.Search.pruned_viability = 0
  then Alcotest.failf "%s: parallel pruned_viability = 0" name;
  (match opts.Search.max_len with
  | Some _ when opts.Search.dist_viability ->
      if s.Search.pruned_bound = 0 then
        Alcotest.failf "%s: parallel pruned_bound = 0 with a length bound" name
  | _ -> ());
  if s.Search.generated = 0 || s.Search.expanded = 0 then
    Alcotest.failf "%s: parallel expansion counters empty" name

let astar_finds cfg opts expected =
  let name = name_of opts in
  let r = Search.run ~opts:{ opts with Search.engine = Search.Astar } cfg in
  check opt_len (name ^ ": astar length") (Some expected)
    r.Search.optimal_length;
  match r.Search.programs with
  | p :: _ ->
      if not (verify cfg p) then Alcotest.failf "%s: astar bad kernel" name
  | [] -> Alcotest.failf "%s: astar found nothing" name

(* --- n = 3 grid --- *)

let filters = [ Search.All_actions; Search.Optimal_guided ]

(* Level-order engines ignore the heuristic, so the level-vs-parallel grid
   varies (cut, filter, bound). Loose cuts blow the level count up, so they
   ride with the guided filter or a length bound; No_cut rides with a bound,
   which also makes the bound pruner fire. *)
let level_grid =
  [
    (Search.Mult 1.0, Search.All_actions, None);
    (Search.Mult 1.0, Search.Optimal_guided, None);
    (Search.Mult 2.0, Search.Optimal_guided, None);
    (Search.Add 2, Search.All_actions, Some 12);
    (Search.Add 2, Search.Optimal_guided, None);
    (Search.No_cut, Search.All_actions, Some 11);
    (Search.No_cut, Search.Optimal_guided, Some 11);
    (Search.Mult 1.0, Search.All_actions, Some 11);
  ]

let test_n3_level_parallel_grid () =
  let cfg = Isa.Config.default 3 in
  List.iter
    (fun (cut, action_filter, max_len) ->
      let opts = { Search.best with Search.cut; action_filter; max_len } in
      let _, par = assert_level_parallel_agree ~mode:Search.Find_first cfg opts in
      check opt_len (name_of opts ^ ": n=3 optimum") (Some 11)
        par.Search.optimal_length;
      assert_parallel_counters_populated opts par)
    level_grid

let astar_cuts = [ (Search.Mult 1.0, filters); (Search.Add 2, filters);
                   (Search.Mult 2.0, [ Search.Optimal_guided ]) ]

let test_n3_astar_grid () =
  let cfg = Isa.Config.default 3 in
  List.iter
    (fun heuristic ->
      List.iter
        (fun (cut, fs) ->
          List.iter
            (fun action_filter ->
              astar_finds cfg
                { Search.best with Search.heuristic; cut; action_filter }
                11)
            fs)
        astar_cuts)
    [ Search.No_heuristic; Search.Perm_count; Search.Dist_bound ]

let test_n3_all_optimal_bit_equal () =
  (* The statistics must be bit-identical between the sequential and the
     parallel engine. *)
  let cfg = Isa.Config.default 3 in
  let opts =
    { Search.best with Search.action_filter = Search.All_actions; max_solutions = 50 }
  in
  let seq, par = assert_level_parallel_agree ~mode:Search.All_optimal cfg opts in
  let s = seq.Search.stats and p = par.Search.stats in
  check Alcotest.int "expanded" s.Search.expanded p.Search.expanded;
  check Alcotest.int "generated" s.Search.generated p.Search.generated;
  check Alcotest.int "deduped" s.Search.deduped p.Search.deduped;
  check Alcotest.int "pruned_cut" s.Search.pruned_cut p.Search.pruned_cut;
  check Alcotest.int "pruned_viability" s.Search.pruned_viability
    p.Search.pruned_viability;
  check Alcotest.int "pruned_bound" s.Search.pruned_bound p.Search.pruned_bound;
  (* Path-count semantics, not distinct-final-state counting: for n=3 there
     are far more optimal programs than final states. *)
  assert (par.Search.solution_count > par.Search.distinct_final_states);
  (* Per-level breakdowns agree too. *)
  if s.Search.levels <> p.Search.levels then
    Alcotest.fail "per-level stats differ between sequential and parallel"

(* Work-stealing determinism: results and statistics are independent of
   the domain count, and equal to the run without [~domains]. The steal
   schedule varies run to run, but the merge walks each chunk in node
   order after it drained, so nothing observable depends on which domain
   expanded which node. *)
let test_parallel_jobs_independent () =
  let cfg = Isa.Config.default 3 in
  let opts = { Search.best with Search.engine = Search.Level_sync } in
  List.iter
    (fun mode ->
      let first = Search.run_mode ~opts ~mode cfg in
      List.iter
        (fun domains ->
          let r = Search.run_mode ~opts ~domains ~mode cfg in
          check opt_len
            (Printf.sprintf "jobs=%d optimal length" domains)
            first.Search.optimal_length r.Search.optimal_length;
          check Alcotest.int
            (Printf.sprintf "jobs=%d solution count" domains)
            first.Search.solution_count r.Search.solution_count;
          if r.Search.programs <> first.Search.programs then
            Alcotest.failf "jobs=%d: programs differ" domains;
          if strip r.Search.stats <> strip first.Search.stats then
            Alcotest.failf "jobs=%d: statistics differ" domains)
        [ 1; 2; 3; 4 ])
    [ Search.Find_first; Search.All_optimal; Search.Prove_none 10 ]

(* A find-first run stops at the final's node, inside a chunk the workers
   drained past it ([1 + 256 * workers] nodes per chunk): the nodes after
   it were expanded but are never merged, so the last level counts only
   the nodes the run without [~domains] consumed. *)
let test_find_first_stops_inside_chunk () =
  let cfg = Isa.Config.default 3 in
  (* The last frontier holds 27,512 nodes; the final is the 2,323rd. *)
  let opts =
    { Search.best with Search.engine = Search.Level_sync; cut = Search.Add 2 }
  in
  let seq = Search.run_mode ~opts ~mode:Search.Find_first cfg in
  let levels = seq.Search.stats.Search.levels in
  let last = List.nth levels (List.length levels - 1) in
  let frontier = (List.nth levels (List.length levels - 2)).Search.open_after in
  List.iter
    (fun domains ->
      let chunk = 1 + (256 * (domains - 1)) in
      if frontier <= chunk || last.Search.nodes_expanded mod chunk = 0 then
        Alcotest.failf "jobs=%d: the stop is not inside a chunk" domains;
      let par = Search.run_mode ~opts ~domains ~mode:Search.Find_first cfg in
      if par.Search.programs <> seq.Search.programs then
        Alcotest.failf "jobs=%d: programs differ" domains;
      if strip par.Search.stats <> strip seq.Search.stats then
        Alcotest.failf "jobs=%d: statistics differ" domains)
    [ 2; 3; 4 ]

(* The deadline and budget checks run on main as each node is consumed,
   so a fault or a budget trips at the same consumed node whatever the
   domain count: [Fault.hits] counts the checks that ran. *)
let test_faults_fire_at_same_node () =
  let cfg = Isa.Config.default 3 in
  let opts = { Search.best with Search.engine = Search.Level_sync } in
  let with_plan spec f =
    match Fault.plan_of_string spec with
    | Error e -> Alcotest.fail e
    | Ok plan ->
        Fault.install plan;
        Fun.protect ~finally:Fault.disarm f
  in
  let hits () =
    (Fault.hits Fault.Search_deadline, Fault.hits Fault.Search_alloc_budget)
  in
  let trip ?domains ~opts spec =
    with_plan spec (fun () ->
        match Search.run_mode ~opts ?domains ~mode:Search.Find_first cfg with
        | exception Search.Timeout -> (-1, hits ())
        | exception Search.Resource_exhausted { live; _ } -> (live, hits ())
        | _ -> Alcotest.failf "%s: the search ran to completion" spec)
  in
  let budget = { opts with Search.state_budget = Some 1_000 } in
  List.iter
    (fun (name, opts, spec) ->
      let first = trip ~opts spec in
      List.iter
        (fun domains ->
          check
            Alcotest.(pair int (pair int int))
            (Printf.sprintf "%s, jobs=%d: live, deadline and budget checks"
               name domains)
            first (trip ~domains ~opts spec))
        [ 1; 2; 3; 4 ])
    [
      ("deadline fault", opts, "search.deadline=nth:300");
      ("budget fault", opts, "search.alloc_budget=nth:300");
      ("state budget", budget, "seed=1");
    ]

let test_n2_all_modes_agree () =
  let cfg = Isa.Config.default 2 in
  List.iter
    (fun mode ->
      List.iter
        (fun (cut, action_filter, max_len) ->
          let opts = { Search.best with Search.cut; action_filter; max_len } in
          ignore (assert_level_parallel_agree ~mode cfg opts))
        level_grid)
    [ Search.Find_first; Search.All_optimal; Search.Prove_none 3 ]

(* --- n = 4 (slow): the paper's optimum is 20 --- *)

let test_n4_three_engines_agree () =
  let cfg = Isa.Config.default 4 in
  let opts = { Search.best with Search.max_len = Some 20 } in
  let _, par = assert_level_parallel_agree ~mode:Search.Find_first cfg opts in
  check opt_len "n=4 optimum" (Some 20) par.Search.optimal_length;
  assert_parallel_counters_populated opts par;
  (* A* needs an admissible heuristic to certify 20 at n=4 (the perm-count
     heuristic is inadmissible and overshoots at this size). *)
  astar_finds cfg { opts with Search.heuristic = Search.Dist_bound } 20

(* --- n = 5 under a state budget: the engines agree on a bounded
   lower-bound sweep, and both honor (and trip) the budget identically. --- *)

let test_n5_engines_agree_under_budget () =
  let cfg = Isa.Config.default 5 in
  let mode = Search.Prove_none 3 in
  let opts =
    {
      Search.best with
      Search.cut = Search.No_cut;
      action_filter = Search.All_actions;
      dist_viability = false;
      state_budget = Some 200_000;
    }
  in
  let seq, par = assert_level_parallel_agree ~mode cfg opts in
  check opt_len "n=5 sweep proves nothing <= 3" None seq.Search.optimal_length;
  check opt_len "parallel agrees" None par.Search.optimal_length;
  if seq.Search.stats.Search.generated = 0 then
    Alcotest.fail "n=5 sweep generated nothing"

let test_n5_budget_trips_in_every_engine () =
  let cfg = Isa.Config.default 5 in
  let tiny = { Search.best with Search.state_budget = Some 500 } in
  let trips name f =
    match f () with
    | exception Search.Resource_exhausted { live; budget = Some b } ->
        if live <= b then
          Alcotest.failf "%s: reported live %d within budget %d" name live b
    | exception Search.Resource_exhausted { budget = None; _ } ->
        Alcotest.failf "%s: budget lost en route" name
    | _ -> Alcotest.failf "%s: n=5 search ran to completion under 500 states" name
  in
  trips "astar" (fun () ->
      Search.run ~opts:{ tiny with Search.engine = Search.Astar } cfg);
  trips "level-sync" (fun () ->
      Search.run_mode
        ~opts:{ tiny with Search.engine = Search.Level_sync }
        ~mode:Search.Find_first cfg);
  trips "parallel" (fun () ->
      Search.run_mode ~opts:tiny ~domains:3 ~mode:Search.Find_first cfg)

let () =
  Alcotest.run "engines-equiv"
    [
      ( "n3",
        [
          Alcotest.test_case "level vs parallel grid" `Slow
            test_n3_level_parallel_grid;
          Alcotest.test_case "astar grid finds 11" `Slow test_n3_astar_grid;
          Alcotest.test_case "all-optimal bit equality" `Quick
            test_n3_all_optimal_bit_equal;
          Alcotest.test_case "results independent of jobs" `Quick
            test_parallel_jobs_independent;
          Alcotest.test_case "find-first stops inside a chunk" `Quick
            test_find_first_stops_inside_chunk;
          Alcotest.test_case "faults fire at the same node" `Quick
            test_faults_fire_at_same_node;
        ] );
      ( "n2",
        [ Alcotest.test_case "all modes agree" `Quick test_n2_all_modes_agree ] );
      ( "n4",
        [
          Alcotest.test_case "three engines find 20" `Slow
            test_n4_three_engines_agree;
        ] );
      ( "n5",
        [
          Alcotest.test_case "engines agree under a state budget" `Slow
            test_n5_engines_agree_under_budget;
          Alcotest.test_case "budget trips in every engine" `Quick
            test_n5_budget_trips_in_every_engine;
        ] );
    ]
