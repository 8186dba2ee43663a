let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let verify cfg p = Machine.Exec.sorts_all_permutations cfg p

let test_n1_trivial () =
  let r = Search.run (Isa.Config.default 1) in
  check (Alcotest.option Alcotest.int) "length 0" (Some 0) r.Search.optimal_length

let test_n2_optimal_length () =
  let cfg = Isa.Config.default 2 in
  let r = Search.run_mode ~mode:Search.All_optimal cfg in
  check (Alcotest.option Alcotest.int) "n=2 optimum is 4" (Some 4)
    r.Search.optimal_length;
  assert (r.Search.solution_count > 0);
  List.iter (fun p -> assert (verify cfg p)) r.Search.programs

let test_n3_optimal_length_best () =
  let cfg = Isa.Config.default 3 in
  let r = Search.run ~opts:Search.best cfg in
  check (Alcotest.option Alcotest.int) "n=3 optimum is 11" (Some 11)
    r.Search.optimal_length;
  List.iter (fun p -> assert (verify cfg p)) r.Search.programs

let test_n3_dijkstra_certifies () =
  (* Level-sync with an admissible setup certifies the minimum. We bound the
     search at 11 to keep the test fast; finding any solution at 11 plus
     exhausting shallower levels is the certificate. *)
  let cfg = Isa.Config.default 3 in
  let opts =
    { Search.best with Search.engine = Search.Level_sync; max_len = Some 11 }
  in
  let r = Search.run ~opts cfg in
  check (Alcotest.option Alcotest.int) "certified 11" (Some 11)
    r.Search.optimal_length

let test_n3_all_configs_agree () =
  let cfg = Isa.Config.default 3 in
  List.iter
    (fun (name, opts) ->
      let r = Search.run ~opts cfg in
      match r.Search.programs with
      | p :: _ ->
          if not (verify cfg p) then Alcotest.failf "%s: incorrect kernel" name;
          if Array.length p <> 11 then
            Alcotest.failf "%s: non-optimal length %d" name (Array.length p)
      | [] -> Alcotest.failf "%s: no kernel found" name)
    [
      ("best", Search.best);
      ("best_preserving", Search.best_preserving);
      ("perm_count", { Search.default with Search.heuristic = Search.Perm_count });
      ( "assign_count",
        { Search.default with Search.heuristic = Search.Assign_count } );
      ( "dist_bound",
        { Search.default with Search.heuristic = Search.Dist_bound } );
      ( "cut_add2",
        {
          Search.default with
          Search.heuristic = Search.Perm_count;
          cut = Search.Add 2;
        } );
      ( "level_sync_cut1",
        {
          Search.best with
          Search.engine = Search.Level_sync;
          action_filter = Search.All_actions;
        } );
    ]

let test_prove_none_below_optimum () =
  (* No sorting kernel for n=3 of length <= 10 exists: the paper's
     lower-bound methodology at a size our test budget affords. *)
  let cfg = Isa.Config.default 3 in
  let opts = { Search.default with Search.max_len = Some 10 } in
  let r = Search.run_mode ~opts ~mode:(Search.Prove_none 10) cfg in
  check (Alcotest.option Alcotest.int) "no solution <= 10" None
    r.Search.optimal_length;
  check Alcotest.int "no programs" 0 (List.length r.Search.programs)

let test_n2_prove_none_3 () =
  let cfg = Isa.Config.default 2 in
  let r = Search.run_mode ~mode:(Search.Prove_none 3) cfg in
  check (Alcotest.option Alcotest.int) "no n=2 kernel of length 3" None
    r.Search.optimal_length

let test_all_optimal_counts_monotone_in_k () =
  let cfg = Isa.Config.default 3 in
  let count k =
    let opts =
      {
        Search.best with
        Search.engine = Search.Level_sync;
        action_filter = Search.All_actions;
        cut = k;
        max_solutions = 1;
      }
    in
    (Search.run_mode ~opts ~mode:Search.All_optimal cfg).Search.solution_count
  in
  let c1 = count (Search.Mult 1.0) in
  let c15 = count (Search.Mult 1.5) in
  assert (c1 > 0);
  assert (c1 <= c15)

let test_max_solutions_cap () =
  let cfg = Isa.Config.default 3 in
  let opts =
    { Search.best with Search.engine = Search.Level_sync; max_solutions = 7 }
  in
  let r = Search.run_mode ~opts ~mode:Search.All_optimal cfg in
  assert (List.length r.Search.programs <= 7);
  assert (r.Search.solution_count >= List.length r.Search.programs)

let test_trace_collection () =
  let cfg = Isa.Config.default 3 in
  let opts = { Search.best with Search.trace_every = Some 100 } in
  let r = Search.run ~opts cfg in
  assert (List.length r.Search.stats.Search.timeline > 0);
  (* Timeline is oldest-first and time-monotone. *)
  let ts = List.map (fun p -> p.Search.t) r.Search.stats.Search.timeline in
  assert (List.sort compare ts = ts)

let test_stats_sanity () =
  let cfg = Isa.Config.default 3 in
  let r = Search.run ~opts:Search.best cfg in
  let s = r.Search.stats in
  assert (s.Search.expanded > 0);
  assert (s.Search.generated >= s.Search.expanded);
  assert (s.Search.elapsed >= 0.)

let test_stats_json_well_formed () =
  let cfg = Isa.Config.default 3 in
  let r = Search.run ~opts:{ Search.best with Search.trace_every = Some 50 } cfg in
  (* Each representative engine run's snapshot must parse back to the
     value it was rendered from: A* with a timeline, level-sync
     enumeration, and the parallel engine. *)
  let runs =
    [
      ("astar-best-n3", r);
      ( "level-sync-all-optimal-n3",
        Search.run_mode
          ~opts:
            { Search.best with Search.engine = Search.Level_sync; max_solutions = 5 }
          ~mode:Search.All_optimal cfg );
      ( "parallel-best-n3",
        Search.run_mode ~opts:Search.best ~domains:2 ~mode:Search.Find_first cfg
      );
    ]
  in
  List.iter
    (fun (label, (run : Search.result)) ->
      let value = Search.Stats.to_json ~label run.Search.stats in
      let rendered = Json.to_string value in
      match Json.parse rendered with
      | Ok v when v = value -> ()
      | Ok _ -> Alcotest.failf "%s: stats JSON does not round-trip\n%s" label rendered
      | Error e -> Alcotest.failf "%s: stats JSON malformed: %s\n%s" label e rendered)
    runs;
  let json = Json.to_string (Search.Stats.to_json ~label:"test n=3" r.Search.stats) in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then
        Alcotest.failf "stats JSON missing %s" needle)
    [ {|"label"|}; {|"counters"|}; {|"timeline"|}; {|"levels"|};
      {|"pruned_cut"|}; {|"pruned_viability"|}; {|"pruned_bound"|};
      {|"succs_kept"|}; {|"finals_found"|}; {|"open_after"|} ]

let test_stats_levels_consistent () =
  (* The per-level breakdown must sum back to the aggregate counters. *)
  let cfg = Isa.Config.default 3 in
  let opts = { Search.best with Search.engine = Search.Level_sync } in
  let s = (Search.run ~opts cfg).Search.stats in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 s.Search.levels in
  assert (s.Search.levels <> []);
  check Alcotest.int "expanded" s.Search.expanded
    (sum (fun l -> l.Search.nodes_expanded));
  check Alcotest.int "generated" s.Search.generated
    (sum (fun l -> l.Search.succs_generated));
  check Alcotest.int "deduped" s.Search.deduped
    (sum (fun l -> l.Search.succs_deduped));
  check Alcotest.int "pruned_cut" s.Search.pruned_cut
    (sum (fun l -> l.Search.cut_pruned));
  check Alcotest.int "pruned_viability" s.Search.pruned_viability
    (sum (fun l -> l.Search.viability_pruned));
  check Alcotest.int "pruned_bound" s.Search.pruned_bound
    (sum (fun l -> l.Search.bound_pruned));
  (* Depths are 0,1,2,... in order. *)
  List.iteri
    (fun i l -> check Alcotest.int "depth" i l.Search.depth)
    s.Search.levels

let test_cut_threshold_rounding () =
  let with_cut cut = { Search.default with Search.cut } in
  let thr cut ~min_pc = Search.Expand.cut_threshold (with_cut cut) ~min_pc in
  (* Rounds to nearest instead of truncating toward zero: 1.15 * 20 =
     22.999...96 in floats, which [int_of_float] used to truncate to 22,
     silently pruning states that tie the intended threshold of 23. *)
  check Alcotest.int "x1.15 of 20 rounds up" 23 (thr (Search.Mult 1.15) ~min_pc:20);
  check Alcotest.int "x1.5 of 3 rounds up" 5 (thr (Search.Mult 1.5) ~min_pc:3);
  (* A multiplier below 1 clamps to the level minimum: the cut may never
     discard the minimal-count states themselves. *)
  check Alcotest.int "x0.5 clamps to min_pc" 10 (thr (Search.Mult 0.5) ~min_pc:10);
  check Alcotest.int "x1.0 exact" 20 (thr (Search.Mult 1.0) ~min_pc:20);
  check Alcotest.int "add" 22 (thr (Search.Add 2) ~min_pc:20);
  check Alcotest.int "no cut" max_int (thr Search.No_cut ~min_pc:20)

(* The vetting buckets are mutually exclusive and exhaustive: at every
   depth, every generated successor lands in exactly one of kept / final /
   cut / viability / bound. *)
let assert_level_identity name (s : Search.stats) =
  assert (s.Search.levels <> []);
  List.iter
    (fun (l : Search.level_stat) ->
      let rhs =
        l.Search.succs_kept + l.Search.finals_found + l.Search.cut_pruned
        + l.Search.viability_pruned + l.Search.bound_pruned
      in
      if l.Search.succs_generated <> rhs then
        Alcotest.failf "%s: depth %d: generated %d <> kept %d + finals %d + \
                        cut %d + viability %d + bound %d"
          name l.Search.depth l.Search.succs_generated l.Search.succs_kept
          l.Search.finals_found l.Search.cut_pruned l.Search.viability_pruned
          l.Search.bound_pruned)
    s.Search.levels

let test_prune_attribution_identity () =
  let cfg = Isa.Config.default 3 in
  (* All three engines, over options that make every pruner fire. *)
  let opts = { Search.best with Search.max_len = Some 11 } in
  assert_level_identity "astar"
    (Search.run ~opts:{ opts with Search.engine = Search.Astar } cfg)
      .Search.stats;
  assert_level_identity "level_sync"
    (Search.run ~opts:{ opts with Search.engine = Search.Level_sync } cfg)
      .Search.stats;
  assert_level_identity "parallel"
    (Search.run_mode ~opts ~domains:3 ~mode:Search.All_optimal cfg)
      .Search.stats;
  (* And with the cut off / no bound, where finals and kept dominate. *)
  let loose = { Search.default with Search.max_len = Some 11 } in
  assert_level_identity "astar-loose" (Search.run ~opts:loose cfg).Search.stats

(* The stats snapshot's floats must survive rendering: a value that needs
   17 significant digits comes back bit-identical through Json.parse. *)
let test_stats_json_floats_roundtrip () =
  let x = 0.1 +. 1e-12 and y = 1. /. 3. in
  let stats =
    {
      Search.Stats.expanded = 1;
      generated = 2;
      deduped = 0;
      pruned_cut = 0;
      pruned_viability = 0;
      pruned_bound = 0;
      max_open = 1;
      elapsed = x;
      timeline =
        [
          { Search.Stats.t = y; open_states = 1; solutions_found = 0 };
          { Search.Stats.t = x; open_states = 0; solutions_found = 1 };
        ];
      levels = [];
    }
  in
  let json = Json.to_string (Search.Stats.to_json stats) in
  let v =
    match Json.parse json with
    | Ok v -> v
    | Error e -> Alcotest.failf "stats JSON malformed: %s\n%s" e json
  in
  let float_at path j =
    match
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
    with
    | Some f -> (
        match Json.to_float f with
        | Ok f -> f
        | Error e -> Alcotest.fail e)
    | None -> Alcotest.failf "missing %s in %s" (String.concat "." path) json
  in
  let same what expect got =
    Alcotest.(check int64) what (Int64.bits_of_float expect)
      (Int64.bits_of_float got)
  in
  same "elapsed_s" x (float_at [ "counters"; "elapsed_s" ] v);
  match Json.member "timeline" v with
  | Some (Json.Arr [ p0; p1 ]) ->
      same "timeline[0].t" y (float_at [ "t" ] p0);
      same "timeline[1].t" x (float_at [ "t" ] p1)
  | _ -> Alcotest.failf "timeline not a 2-element array: %s" json

let test_validate_json_rejects_garbage () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad {|{"a":1,}|};
  bad {|[1, 2,]|};
  bad {|{"a" 1}|};
  bad {|"unterminated|};
  bad "nul";
  bad "1.2.3";
  bad {|{"a":1} trailing|};
  let good s =
    match Json.parse s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "rejected valid JSON %s: %s" s e
  in
  good "{}";
  good "[]";
  good {|{"a":[1,-2.5e3,true,false,null,"x\nA"]}|}

let test_bound_too_small_returns_none () =
  let cfg = Isa.Config.default 2 in
  let opts = { Search.default with Search.max_len = Some 2 } in
  let r = Search.run ~opts cfg in
  check Alcotest.int "no programs" 0 (List.length r.Search.programs)

(* A* holds the length bound for final successors too. Distance
   viability prunes every non-final state at the bound, which hid a final
   successor one step past it; without it, A* used to return a kernel of
   length 11 under a bound of 10. (The cut only keeps the run short: with
   no heuristic and no cut the same lapse took 1.9M expansions.) *)
let test_astar_bound_holds_for_finals () =
  let cfg = Isa.Config.default 3 in
  let opts =
    {
      Search.default with
      Search.heuristic = Search.Perm_count;
      cut = Search.Mult 1.0;
      max_len = Some 10;
      dist_viability = false;
    }
  in
  let r = Search.run ~opts cfg in
  check (Alcotest.option Alcotest.int) "no kernel within 10" None
    r.Search.optimal_length;
  check Alcotest.int "no programs" 0 (List.length r.Search.programs);
  assert (r.Search.stats.Search.pruned_bound > 0)

(* Every enumerated optimal program is distinct and correct. *)
let test_all_optimal_programs_distinct_correct () =
  let cfg = Isa.Config.default 3 in
  let opts =
    { Search.best with Search.engine = Search.Level_sync; max_solutions = 200 }
  in
  let r = Search.run_mode ~opts ~mode:Search.All_optimal cfg in
  let ps = r.Search.programs in
  assert (ps <> []);
  List.iter (fun p -> assert (verify cfg p)) ps;
  let distinct = List.sort_uniq compare ps in
  check Alcotest.int "programs distinct" (List.length ps) (List.length distinct)

(* The benchmark searches' full counters. A change to the expansion hot
   path (probe, canonicalization, dedup, the commit) must leave every one
   of them where it is: generated / expanded / deduped / pruned_cut /
   pruned_viability / max_open, and the kernel length. *)
let test_benchmark_search_stats_pinned () =
  let pin ?solutions name ~n ~opts ~mode (gen, exp, dd, cut, via, mo, len) =
    let r = Search.run_mode ~opts ~mode (Isa.Config.default n) in
    Option.iter
      (fun c -> check Alcotest.int (name ^ " solutions") c r.Search.solution_count)
      solutions;
    let s = r.Search.stats in
    let got =
      ( s.Search.generated,
        s.Search.expanded,
        s.Search.deduped,
        s.Search.pruned_cut,
        s.Search.pruned_viability,
        s.Search.max_open,
        r.Search.optimal_length )
    in
    let t7 =
      Alcotest.(
        pair
          (triple int int int)
          (pair (triple int int int) (option int)))
    in
    let shape (a, b, c, d, e, f, g) = ((a, b, c), ((d, e, f), g)) in
    check t7 name (shape (gen, exp, dd, cut, via, mo, len)) (shape got)
  in
  pin "n=3 best A*" ~n:3 ~opts:Search.best ~mode:Search.Find_first
    (53_812, 4_205, 12_611, 24_734, 11_900, 1_745, Some 11);
  pin "n=4 best A*" ~n:4 ~opts:Search.best ~mode:Search.Find_first
    (985_710, 42_241, 127_642, 539_347, 258_731, 32_195, Some 25);
  pin "n=5 level prove-none 4" ~n:5
    ~opts:
      {
        Search.default with
        Search.engine = Search.Level_sync;
        dist_viability = false;
        cut = Search.No_cut;
      }
    ~mode:(Search.Prove_none 4)
    (301_560, 2_872, 68_274, 0, 197_425, 32_990, None);
  (* Three serve-cold-style n=3 keys ([Registry.Key.options]): the A*
     length-bound path, a level-sync cut above 1, and the k=1.5 solution
     enumeration of EXPERIMENTS e3/e13. *)
  let key = { Search.best with Search.max_solutions = 50 } in
  pin "n=3 A* dist-bound len<=12" ~n:3
    ~opts:{ key with Search.heuristic = Search.Dist_bound; max_len = Some 12 }
    ~mode:Search.Find_first
    (50_910, 3_959, 10_844, 24_288, 11_461, 1_396, Some 11);
  pin "n=3 level assign-count x1.1" ~n:3
    ~opts:
      {
        key with
        Search.engine = Search.Level_sync;
        heuristic = Search.Assign_count;
        cut = Search.Mult 1.1;
      }
    ~mode:Search.Find_first
    (53_039, 4_138, 12_002, 24_682, 11_855, 1_623, Some 11);
  let all15 =
    {
      Search.best with
      Search.engine = Search.Level_sync;
      action_filter = Search.All_actions;
      cut = Search.Mult 1.5;
      max_solutions = 4_000;
    }
  in
  pin "n=3 all-optimal x1.5" ~n:3 ~opts:all15 ~mode:Search.All_optimal
    ~solutions:3_682
    (8_162_112, 194_336, 2_041_208, 1_191_214, 4_611_201, 124_128, Some 11)

let prop_synthesized_kernels_sort_random_inputs =
  let cfg = Isa.Config.default 3 in
  let p =
    match Search.synthesize 3 with Some p -> p | None -> failwith "no kernel"
  in
  QCheck.Test.make ~name:"synthesized n=3 kernel sorts arbitrary ints" ~count:500
    QCheck.(triple small_signed_int small_signed_int small_signed_int)
    (fun (a, b, c) ->
      let input = [| a; b; c |] in
      let output = Machine.Exec.run cfg p input in
      Machine.Exec.output_correct ~input ~output)

let () =
  Alcotest.run "search"
    [
      ( "find-first",
        [
          Alcotest.test_case "n=1 trivial" `Quick test_n1_trivial;
          Alcotest.test_case "n=2 optimal length 4" `Quick test_n2_optimal_length;
          Alcotest.test_case "n=3 best finds 11" `Quick test_n3_optimal_length_best;
          Alcotest.test_case "n=3 dijkstra certifies 11" `Quick
            test_n3_dijkstra_certifies;
          Alcotest.test_case "all configs agree" `Slow test_n3_all_configs_agree;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "stats JSON well-formed" `Quick
            test_stats_json_well_formed;
          Alcotest.test_case "per-level stats consistent" `Quick
            test_stats_levels_consistent;
          Alcotest.test_case "cut threshold rounds, never truncates" `Quick
            test_cut_threshold_rounding;
          Alcotest.test_case "prune attribution identity" `Quick
            test_prune_attribution_identity;
          Alcotest.test_case "JSON validator rejects garbage" `Quick
            test_validate_json_rejects_garbage;
          Alcotest.test_case "stats JSON floats round-trip" `Quick
            test_stats_json_floats_roundtrip;
          Alcotest.test_case "trace collection" `Quick test_trace_collection;
          Alcotest.test_case "bound too small" `Quick
            test_bound_too_small_returns_none;
          Alcotest.test_case "A* bound holds for finals" `Quick
            test_astar_bound_holds_for_finals;
          Alcotest.test_case "benchmark search stats pinned" `Quick
            test_benchmark_search_stats_pinned;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "prove none n=3 <= 10" `Slow
            test_prove_none_below_optimum;
          Alcotest.test_case "prove none n=2 <= 3" `Quick test_n2_prove_none_3;
          Alcotest.test_case "cut monotone" `Slow
            test_all_optimal_counts_monotone_in_k;
          Alcotest.test_case "max_solutions cap" `Quick test_max_solutions_cap;
          Alcotest.test_case "all-optimal distinct+correct" `Quick
            test_all_optimal_programs_distinct_correct;
        ] );
      ("properties", [ qtest prop_synthesized_kernels_sort_random_inputs ]);
    ]
