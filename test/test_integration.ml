(* Cross-module integration tests: every synthesis technique against the
   same ground truth, synthesized kernels flowing through compilation,
   workloads and the cost model, and the paper's headline anchors. *)

let check = Alcotest.check

let verify n p = Machine.Exec.sorts_all_permutations (Isa.Config.default n) p

(* Anchor: the optimal kernel lengths the paper establishes. *)
let test_optimal_lengths_agree_across_techniques () =
  (* n=2: optimum 4, agreed by enum, SMT, CP, ILP and the planner. *)
  let enum =
    (Search.run_mode ~mode:Search.All_optimal (Isa.Config.default 2))
      .Search.optimal_length
  in
  check (Alcotest.option Alcotest.int) "enum" (Some 4) enum;
  (match (Smtlite.synth_perm Smtlite.cmov ~len:3 2).Smtlite.outcome with
  | Smtlite.Unsat_length -> ()
  | _ -> Alcotest.fail "SMT disagrees on the lower bound");
  (match (Csp.Model.synth Csp.Model.cmov ~len:3 2).Csp.Model.outcome with
  | Csp.Model.Exhausted -> ()
  | _ -> Alcotest.fail "CP disagrees on the lower bound");
  (match (Ilp.Model.synth ~len:3 2).Ilp.Model.outcome with
  | Ilp.Model.Infeasible -> ()
  | _ -> Alcotest.fail "ILP disagrees on the lower bound");
  let plan =
    (Planning.Planner.solve ~heuristic:Planning.Planner.Blind
       ~strategy:Planning.Planner.Uniform 2)
      .Planning.Planner.plan
  in
  match plan with
  | Some p -> check Alcotest.int "planner optimal" 4 (Array.length p)
  | None -> Alcotest.fail "planner failed"

let test_n3_optimum_is_11 () =
  let r = Search.run ~opts:Search.best (Isa.Config.default 3) in
  check (Alcotest.option Alcotest.int) "length 11" (Some 11) r.Search.optimal_length

(* Anchor: a synthesized kernel beats the network kernel end to end. *)
let test_synthesized_shorter_than_network () =
  let synth = Option.get (Search.synthesize 3) in
  let network = Sortnet.to_kernel (Isa.Config.default 3) (Sortnet.optimal 3) in
  assert (Array.length synth < Array.length network);
  assert (verify 3 synth)

(* Synthesized kernel -> compiled sorter -> quicksort/mergesort pipeline. *)
let test_kernel_through_workloads () =
  let kernel = Option.get (Search.synthesize 3) in
  let sorter = Perf.Compile.kernel (Isa.Config.default 3) kernel in
  assert (Perf.Compile.verify sorter);
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 20 do
    let input = Array.init (1 + Random.State.int st 300) (fun _ -> Random.State.int st 1000) in
    let q = Array.copy input and m = Array.copy input in
    Perf.Workload.quicksort ~base:sorter q;
    Perf.Workload.mergesort ~base:sorter m;
    assert (Machine.Exec.output_correct ~input ~output:q);
    assert (Machine.Exec.output_correct ~input ~output:m)
  done

(* The cost model ranks the known kernels sanely: the 11-instruction
   synthesized kernel at least matches the 12-instruction network. *)
let test_cost_model_ranks_kernels () =
  let cfg = Isa.Config.default 3 in
  let synth = Perf.Cost.predicted_cost cfg Perf.Kernels.paper_sort3 in
  let network = Perf.Cost.predicted_cost cfg (Perf.Kernels.network 3) in
  assert (synth <= network)

(* Stoke warm-started from a network keeps a correct kernel, and that
   kernel still runs through the whole perf pipeline. *)
let test_stoke_to_perf_pipeline () =
  let r =
    Stoke.warm
      ~opts:{ (Stoke.default 3) with Stoke.iterations = 60_000; seed = 2 }
      3 (Stoke.network_start 3)
  in
  assert r.Stoke.correct;
  let sorter = Perf.Compile.kernel (Isa.Config.default 3) r.Stoke.best in
  assert (Perf.Compile.verify sorter)

(* SMT-found and enum-found kernels are semantically interchangeable. *)
let test_smt_and_enum_kernels_equivalent () =
  match (Smtlite.synth_cegis Smtlite.cmov ~len:4 2).Smtlite.outcome with
  | Smtlite.Found smt_kernel ->
      let enum_kernel = Option.get (Search.synthesize 2) in
      let cfg = Isa.Config.default 2 in
      List.iter
        (fun perm ->
          check (Alcotest.array Alcotest.int) "same output"
            (Machine.Exec.run cfg enum_kernel perm)
            (Machine.Exec.run cfg smt_kernel perm))
        (Perms.all 2)
  | _ -> Alcotest.fail "SMT failed on n=2"

(* The min/max and cmov searches agree on the paper's size relations:
   min/max kernels are strictly shorter. *)
let test_minmax_shorter_than_cmov () =
  let mm = Option.get (Minmax.synthesize 3).Search.optimal_length in
  let cmov =
    Array.length (Option.get (Search.synthesize 3))
  in
  check Alcotest.int "minmax 8" 8 mm;
  check Alcotest.int "cmov 11" 11 cmov

(* The umbrella library exposes a coherent surface. *)
let test_umbrella () =
  (match Sortsynth.synthesize 3 with
  | Some p ->
      assert (verify 3 p);
      let asm = Sortsynth.to_x86 3 p in
      assert (String.length asm > 0)
  | None -> Alcotest.fail "umbrella synthesize failed");
  match Sortsynth.synthesize_minmax 3 with
  | Some p -> check Alcotest.int "minmax len" 8 (Array.length p)
  | None -> Alcotest.fail "umbrella minmax failed"

(* Determinism: two runs of the same search produce identical results. *)
let test_search_deterministic () =
  let run () =
    let r = Search.run ~opts:Search.best (Isa.Config.default 3) in
    (r.Search.programs, r.Search.optimal_length, r.Search.stats.Search.expanded)
  in
  let p1, l1, e1 = run () in
  let p2, l2, e2 = run () in
  assert (p1 = p2);
  assert (l1 = l2);
  check Alcotest.int "same expansions" e1 e2

let () =
  Alcotest.run "integration"
    [
      ( "cross-technique",
        [
          Alcotest.test_case "optimal lengths agree (n=2)" `Slow
            test_optimal_lengths_agree_across_techniques;
          Alcotest.test_case "n=3 optimum is 11" `Quick test_n3_optimum_is_11;
          Alcotest.test_case "SMT kernel = enum kernel" `Quick
            test_smt_and_enum_kernels_equivalent;
          Alcotest.test_case "minmax < cmov lengths" `Quick
            test_minmax_shorter_than_cmov;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "synth < network" `Quick
            test_synthesized_shorter_than_network;
          Alcotest.test_case "kernel through workloads" `Quick
            test_kernel_through_workloads;
          Alcotest.test_case "cost model ranking" `Quick test_cost_model_ranks_kernels;
          Alcotest.test_case "stoke -> perf" `Slow test_stoke_to_perf_pipeline;
          Alcotest.test_case "umbrella API" `Quick test_umbrella;
          Alcotest.test_case "determinism" `Quick test_search_deterministic;
        ] );
    ]
