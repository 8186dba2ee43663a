let check = Alcotest.check

let verify n p = Machine.Exec.sorts_all_permutations (Isa.Config.default n) p

(* --- Planner --- *)

let test_blind_uniform_n2_optimal () =
  let r =
    Planning.Planner.solve ~heuristic:Planning.Planner.Blind
      ~strategy:Planning.Planner.Uniform 2
  in
  match r.Planning.Planner.plan with
  | Some p ->
      check Alcotest.int "optimal plan length" 4 (Array.length p);
      assert (verify 2 p)
  | None -> Alcotest.fail "blind search must solve n=2"

let test_goal_count_greedy_n2 () =
  let r = Planning.Planner.solve ~max_expansions:200_000 2 in
  match r.Planning.Planner.plan with
  | Some p -> assert (verify 2 p)
  | None -> Alcotest.fail "greedy goal-count should solve n=2"

let test_goal_count_plateaus_on_n3 () =
  (* The goal-count heuristic is too flat for n=3: almost no state has any
     register file fully sorted until the very end, so greedy search
     wanders. This mirrors the paper's finding that only planners with
     strong heuristics (LAMA) solve n=3 quickly. *)
  let r = Planning.Planner.solve ~max_expansions:50_000 3 in
  assert (r.Planning.Planner.plan = None)

let test_greedy_pdb_n3_fast_but_long () =
  (* Greedy PDB finds a plan quickly but without optimality. *)
  let r =
    Planning.Planner.solve ~heuristic:Planning.Planner.Pdb
      ~strategy:Planning.Planner.Greedy ~max_expansions:200_000 3
  in
  match r.Planning.Planner.plan with
  | Some p ->
      assert (verify 3 p);
      assert (Array.length p >= 11);
      (* Pinned: the open list's tie order decides both. *)
      check Alcotest.(pair int int) "expanded, plan length" (3_514, 19)
        (r.Planning.Planner.expanded, Array.length p)
  | None -> Alcotest.fail "greedy pdb should solve n=3"

let test_pdb_wastar_n3 () =
  let r =
    Planning.Planner.solve ~heuristic:Planning.Planner.Pdb
      ~strategy:(Planning.Planner.Wastar 2) ~max_expansions:1_000_000 3
  in
  match r.Planning.Planner.plan with
  | Some p ->
      assert (verify 3 p);
      check Alcotest.(pair int int) "expanded, plan length" (29_244, 11)
        (r.Planning.Planner.expanded, Array.length p)
  | None -> Alcotest.fail "pdb wA* should solve n=3"

(* A dead state's PDB estimate is never weighted: [Wastar 4] used to
   overflow [g + 4 * (max_int / 4)] into a negative priority once g >= 4,
   so dead states were expanded first (84 expansions instead of 6 at n=2,
   no plan within 20,000 at n=3). *)
let test_wastar_dead_state_sorts_last () =
  List.iter
    (fun (n, expected) ->
      let r =
        Planning.Planner.solve ~heuristic:Planning.Planner.Pdb
          ~strategy:(Planning.Planner.Wastar 4) ~max_expansions:20_000 n
      in
      check
        Alcotest.(pair int (option int))
        (Printf.sprintf "n=%d expanded, plan length" n)
        expected
        ( r.Planning.Planner.expanded,
          Option.map Array.length r.Planning.Planner.plan ))
    [ (2, (6, Some 5)); (3, (194, Some 11)) ]

let test_expansion_budget_respected () =
  let r = Planning.Planner.solve ~max_expansions:10 3 in
  assert (r.Planning.Planner.plan = None);
  assert (r.Planning.Planner.expanded <= 11)

let test_max_len_bound () =
  (* With a length bound below the optimum, no plan exists. *)
  let r =
    Planning.Planner.solve ~heuristic:Planning.Planner.Blind
      ~strategy:Planning.Planner.Uniform ~max_len:3 2
  in
  assert (r.Planning.Planner.plan = None)

(* --- PDDL emitters --- *)

let test_pddl_wellformed () =
  let cfg = Isa.Config.default 3 in
  let dom = Planning.Pddl.domain cfg in
  let prob = Planning.Pddl.problem cfg in
  List.iter
    (fun (hay, needle) ->
      let found =
        let ln = String.length needle and lh = String.length hay in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "missing %S" needle)
    [
      (dom, "(define (domain sorting-kernels)");
      (dom, ":action cmovg");
      (dom, ":conditional-effects");
      (prob, "(define (problem sort-3)");
      (prob, "(holds p0 r0 v1)");
      (prob, "(:goal");
    ];
  (* Balanced parentheses. *)
  let balanced s =
    let d = ref 0 in
    String.iter (fun c -> if c = '(' then incr d else if c = ')' then decr d) s;
    !d = 0
  in
  assert (balanced dom);
  assert (balanced prob)

(* --- MCTS --- *)

let test_mcts_n2_finds_kernel () =
  let r = Mcts.search ~opts:{ (Mcts.default 2) with Mcts.simulations = 50_000 } 2 in
  assert r.Mcts.correct;
  match r.Mcts.best with
  | Some p -> assert (verify 2 p)
  | None -> Alcotest.fail "MCTS should find an n=2 kernel"

let test_mcts_budget_scaling () =
  (* More simulations never yields a longer best kernel (best only
     improves). *)
  let len sims =
    match
      (Mcts.search ~opts:{ (Mcts.default 2) with Mcts.simulations = sims } 2)
        .Mcts.best_length
    with
    | Some l -> l
    | None -> max_int
  in
  assert (len 60_000 <= len 2_000)

let test_mcts_reports_tree_growth () =
  let r = Mcts.search ~opts:{ (Mcts.default 2) with Mcts.simulations = 5_000 } 2 in
  assert (r.Mcts.tree_nodes > 1);
  assert (r.Mcts.simulations_run = 5_000)

let () =
  Alcotest.run "planning-mcts"
    [
      ( "planner",
        [
          Alcotest.test_case "blind uniform n=2 optimal" `Quick
            test_blind_uniform_n2_optimal;
          Alcotest.test_case "goal-count greedy n=2" `Quick
            test_goal_count_greedy_n2;
          Alcotest.test_case "goal-count plateaus on n=3" `Slow
            test_goal_count_plateaus_on_n3;
          Alcotest.test_case "greedy pdb n=3" `Slow test_greedy_pdb_n3_fast_but_long;
          Alcotest.test_case "pdb wA* n=3" `Slow test_pdb_wastar_n3;
          Alcotest.test_case "wA* dead state sorts last" `Quick
            test_wastar_dead_state_sorts_last;
          Alcotest.test_case "expansion budget" `Quick test_expansion_budget_respected;
          Alcotest.test_case "length bound" `Quick test_max_len_bound;
        ] );
      ("pddl", [ Alcotest.test_case "emitters well-formed" `Quick test_pddl_wellformed ]);
      ( "mcts",
        [
          Alcotest.test_case "n=2 finds kernel" `Slow test_mcts_n2_finds_kernel;
          Alcotest.test_case "budget scaling" `Slow test_mcts_budget_scaling;
          Alcotest.test_case "tree growth" `Quick test_mcts_reports_tree_growth;
        ] );
    ]
