let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Fd: the generic finite-domain solver --- *)

let test_fd_basic_propagation () =
  let t = Csp.Fd.create () in
  let x = Csp.Fd.new_var t ~lo:0 ~hi:5 in
  let y = Csp.Fd.new_var t ~lo:0 ~hi:5 in
  (* x = y + 3, via a propagator; solutions: (3,0) (4,1) (5,2). *)
  Csp.Fd.post t ~watch:[ x; y ] (fun t ->
      if Csp.Fd.is_fixed t y then Csp.Fd.assign t x (Csp.Fd.value t y + 3)
      else if Csp.Fd.is_fixed t x then Csp.Fd.assign t y (Csp.Fd.value t x - 3)
      else true);
  let count = ref 0 in
  let r =
    Csp.Fd.solve
      ~on_solution:(fun t ->
        assert (Csp.Fd.value t x = Csp.Fd.value t y + 3);
        incr count;
        false)
      t
  in
  check (Alcotest.option Alcotest.bool) "exhausted" (Some false) r;
  check Alcotest.int "solutions" 3 !count

let test_fd_wipeout_detected () =
  let t = Csp.Fd.create () in
  let x = Csp.Fd.new_var t ~lo:0 ~hi:2 in
  Csp.Fd.post t (fun t -> Csp.Fd.assign t x 1);
  Csp.Fd.post t (fun t -> Csp.Fd.remove_value t x 1);
  let r = Csp.Fd.solve t in
  check (Alcotest.option Alcotest.bool) "no solution" (Some false) r

let test_fd_node_limit () =
  let t = Csp.Fd.create () in
  for _ = 1 to 10 do
    ignore (Csp.Fd.new_var t ~lo:0 ~hi:9)
  done;
  let r = Csp.Fd.solve ~on_solution:(fun _ -> false) ~node_limit:50 t in
  check (Alcotest.option Alcotest.bool) "limit hit" None r

let test_fd_dom_values () =
  let t = Csp.Fd.create () in
  let x = Csp.Fd.new_var t ~lo:2 ~hi:4 in
  check (Alcotest.list Alcotest.int) "initial domain" [ 2; 3; 4 ]
    (Csp.Fd.dom_values t x);
  assert (Csp.Fd.remove_value t x 3);
  check (Alcotest.list Alcotest.int) "pruned" [ 2; 4 ] (Csp.Fd.dom_values t x)

(* --- Model: CP synthesis --- *)

let test_cp_n2_finds_4 () =
  match (Csp.Model.synth Csp.Model.cmov ~len:4 2).Csp.Model.outcome with
  | Csp.Model.Found p ->
      check Alcotest.int "length" 4 (Array.length p);
      assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)
  | _ -> Alcotest.fail "CP should find an n=2 kernel"

let test_cp_n2_len3_exhausted () =
  match (Csp.Model.synth Csp.Model.cmov ~len:3 2).Csp.Model.outcome with
  | Csp.Model.Exhausted -> ()
  | _ -> Alcotest.fail "no length-3 kernel exists"

let test_cp_all_solutions_match_enum () =
  let cp = Csp.Model.synth ~all_solutions:true Csp.Model.cmov ~len:4 2 in
  let enum =
    Search.run_mode
      ~opts:{ Search.default with Search.engine = Search.Level_sync }
      ~mode:Search.All_optimal (Isa.Config.default 2)
  in
  check Alcotest.int "CP count = enum count" enum.Search.solution_count
    (List.length cp.Csp.Model.solutions);
  List.iter
    (fun p -> assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p))
    cp.Csp.Model.solutions

let test_cp_goal_variants_agree () =
  List.iter
    (fun goal ->
      match
        (Csp.Model.synth
           ~opts:{ Csp.Model.default with Csp.Model.goal }
           Csp.Model.cmov ~len:4 2)
          .Csp.Model.outcome
      with
      | Csp.Model.Found p ->
          assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)
      | _ -> Alcotest.fail "goal variant failed")
    [ Csp.Model.Goal_exact; Csp.Model.Goal_ascending_present ]

let test_cp_node_limit () =
  match
    (Csp.Model.synth ~node_limit:50 Csp.Model.cmov ~len:11 3).Csp.Model.outcome
  with
  | Csp.Model.Node_limit -> ()
  | _ -> Alcotest.fail "n=3 in 50 nodes is impossible"

let test_cp_heuristics_reduce_nodes () =
  let nodes opts =
    (Csp.Model.synth ~opts Csp.Model.cmov ~len:4 2).Csp.Model.nodes
  in
  let with_h = nodes Csp.Model.default in
  let without =
    nodes
      {
        Csp.Model.default with
        Csp.Model.no_consecutive_cmp = false;
        cmp_symmetry = false;
        erasure_pruning = false;
      }
  in
  assert (with_h <= without)

(* --- ILP --- *)

let test_ilp_solver_basic () =
  let s = Ilp.Solver.create () in
  let x = Ilp.Solver.new_var s in
  let y = Ilp.Solver.new_var s in
  (* x + y >= 1, minimize x + 2y -> x=1, y=0. *)
  Ilp.Solver.add_ge s [ (1, x); (1, y) ] 1;
  Ilp.Solver.set_objective s [ (1, x); (2, y) ];
  match Ilp.Solver.solve s with
  | Ilp.Solver.Optimal (obj, a) ->
      check Alcotest.int "objective" 1 obj;
      assert a.(x);
      assert (not a.(y))
  | _ -> Alcotest.fail "should be optimal"

let test_ilp_infeasible () =
  let s = Ilp.Solver.create () in
  let x = Ilp.Solver.new_var s in
  Ilp.Solver.add_ge s [ (1, x) ] 1;
  Ilp.Solver.add_le s [ (1, x) ] 0;
  match Ilp.Solver.solve s with
  | Ilp.Solver.Infeasible -> ()
  | _ -> Alcotest.fail "should be infeasible"

let test_ilp_equality () =
  let s = Ilp.Solver.create () in
  let xs = List.init 4 (fun _ -> Ilp.Solver.new_var s) in
  (* Exactly two of four set; minimize nothing (feasibility). *)
  Ilp.Solver.add_eq s (List.map (fun v -> (1, v)) xs) 2;
  match Ilp.Solver.solve s with
  | Ilp.Solver.Optimal (_, a) ->
      check Alcotest.int "two set" 2
        (List.length (List.filter (fun v -> a.(v)) xs))
  | _ -> Alcotest.fail "should be feasible"

let test_ilp_model_n2 () =
  match (Ilp.Model.synth ~len:4 2).Ilp.Model.outcome with
  | Ilp.Model.Found p ->
      assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)
  | _ -> Alcotest.fail "ILP should solve n=2"

let test_ilp_model_n2_len3_infeasible () =
  match (Ilp.Model.synth ~len:3 2).Ilp.Model.outcome with
  | Ilp.Model.Infeasible -> ()
  | _ -> Alcotest.fail "length 3 should be infeasible"

let prop_ilp_knapsack_vs_brute =
  QCheck.Test.make ~name:"ILP optimum matches brute force on random knapsacks"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 2 + Random.State.int st 6 in
      let weights = Array.init n (fun _ -> 1 + Random.State.int st 9) in
      let values = Array.init n (fun _ -> 1 + Random.State.int st 9) in
      let cap = 5 + Random.State.int st 15 in
      (* maximize value = minimize -value, subject to weight <= cap. *)
      let s = Ilp.Solver.create () in
      let xs = Array.init n (fun _ -> Ilp.Solver.new_var s) in
      Ilp.Solver.add_le s (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs)) cap;
      Ilp.Solver.set_objective s
        (Array.to_list (Array.mapi (fun i x -> (-values.(i), x)) xs));
      let brute =
        let best = ref 0 in
        for mask = 0 to (1 lsl n) - 1 do
          let w = ref 0 and v = ref 0 in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then begin
              w := !w + weights.(i);
              v := !v + values.(i)
            end
          done;
          if !w <= cap && !v > !best then best := !v
        done;
        !best
      in
      match Ilp.Solver.solve s with
      | Ilp.Solver.Optimal (obj, _) -> -obj = brute
      | _ -> false)

let () =
  Alcotest.run "csp-ilp"
    [
      ( "fd",
        [
          Alcotest.test_case "propagation" `Quick test_fd_basic_propagation;
          Alcotest.test_case "wipeout" `Quick test_fd_wipeout_detected;
          Alcotest.test_case "node limit" `Quick test_fd_node_limit;
          Alcotest.test_case "domains" `Quick test_fd_dom_values;
        ] );
      ( "cp-model",
        [
          Alcotest.test_case "n=2 finds 4" `Quick test_cp_n2_finds_4;
          Alcotest.test_case "n=2 len 3 exhausted" `Quick test_cp_n2_len3_exhausted;
          Alcotest.test_case "all-solutions = enum" `Quick
            test_cp_all_solutions_match_enum;
          Alcotest.test_case "goal variants" `Quick test_cp_goal_variants_agree;
          Alcotest.test_case "node limit" `Quick test_cp_node_limit;
          Alcotest.test_case "heuristics reduce nodes" `Quick
            test_cp_heuristics_reduce_nodes;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "basic optimum" `Quick test_ilp_solver_basic;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "equality" `Quick test_ilp_equality;
          Alcotest.test_case "model n=2" `Slow test_ilp_model_n2;
          Alcotest.test_case "model n=2 len 3" `Quick test_ilp_model_n2_len3_infeasible;
        ] );
      ("properties", [ qtest prop_ilp_knapsack_vs_brute ]);
    ]
