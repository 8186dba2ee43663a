(* Tests for the extension surfaces: min/max solver encodings, the MiniZinc
   emitter, the pipeline simulator, the parallel search engine, and the
   artifact writer. *)

let check = Alcotest.check
let cfg3 = Isa.Config.default 3

(* --- SMT min/max --- *)

let test_smt_minmax_n2 () =
  match (Smtlite.synth_cegis Smtlite.minmax ~len:3 2).Smtlite.outcome with
  | Smtlite.Found p ->
      check Alcotest.int "3 instructions" 3 (Array.length p);
      assert (Minmax.Vexec.sorts_all_permutations (Isa.Config.default 2) p)
  | _ -> Alcotest.fail "SMT should solve minmax n=2"

let test_smt_minmax_n2_len2_unsat () =
  match (Smtlite.synth_perm Smtlite.minmax ~len:2 2).Smtlite.outcome with
  | Smtlite.Unsat_length -> ()
  | _ -> Alcotest.fail "no 2-instruction minmax kernel for n=2"

let test_smt_minmax_find_min_length () =
  let results = Smtlite.find_min_length ~max_len:5 Smtlite.minmax 2 in
  match List.rev results with
  | (3, { Smtlite.outcome = Smtlite.Found _; _ }) :: _ -> ()
  | _ -> Alcotest.fail "minimum should be 3"

(* Every CEGIS candidate is checked by the one counted n! loop,
   Machine.Exec.first_unsorted, whichever ISA it is written in. *)
let test_cegis_certifies_each_candidate () =
  let ticks f =
    let before = Machine.Exec.certifications () in
    let r = f () in
    (r, Machine.Exec.certifications () - before)
  in
  let cmov, cmov_ticks =
    ticks (fun () -> Smtlite.synth_cegis Smtlite.cmov ~len:4 2)
  in
  let minmax, minmax_ticks =
    ticks (fun () -> Smtlite.synth_cegis Smtlite.minmax ~len:3 2)
  in
  check Alcotest.int "cmov: one n! run per candidate"
    cmov.Smtlite.cegis_iterations cmov_ticks;
  check Alcotest.int "min/max: one n! run per candidate"
    minmax.Smtlite.cegis_iterations minmax_ticks;
  check Alcotest.bool "min/max checked its candidate" true (minmax_ticks > 0)

(* --- CP min/max --- *)

let minmax_opts =
  { Csp.Model.default with Csp.Model.goal = Csp.Model.Goal_exact }

let test_cp_minmax_n2 () =
  match
    (Csp.Model.synth ~opts:minmax_opts Csp.Model.minmax ~len:3 2)
      .Csp.Model.outcome
  with
  | Csp.Model.Found p ->
      assert (Minmax.Vexec.sorts_all_permutations (Isa.Config.default 2) p)
  | _ -> Alcotest.fail "CP should solve minmax n=2"

let test_cp_minmax_len2_exhausted () =
  match
    (Csp.Model.synth ~opts:minmax_opts Csp.Model.minmax ~len:2 2)
      .Csp.Model.outcome
  with
  | Csp.Model.Exhausted -> ()
  | _ -> Alcotest.fail "no 2-instruction minmax kernel"

let test_cp_minmax_agrees_with_enum () =
  (* The CP-found minimum equals the enumerative search's. *)
  let cp_len =
    match
      List.rev
        (Csp.Model.find_min_length ~opts:minmax_opts ~max_len:5
           Csp.Model.minmax 2)
    with
    | (l, { Csp.Model.outcome = Csp.Model.Found _; _ }) :: _ -> l
    | _ -> -1
  in
  check (Alcotest.option Alcotest.int) "both 3" (Some cp_len)
    (Minmax.synthesize 2).Search.optimal_length

(* --- MiniZinc emitter --- *)

let contains needle hay =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_minizinc_emits_model () =
  let m = Csp.Minizinc.emit ~len:11 3 in
  List.iter
    (fun needle ->
      if not (contains needle m) then Alcotest.failf "missing %S" needle)
    [
      "int: LEN = 11;";
      "array[STEP] of var 0..3: op;";
      "constraint forall (t in STEP) (dst[t] != src[t]);";
      "solve satisfy;";
      "v[0, 1, 1] = 1";
    ]

let test_minizinc_goal_variants_differ () =
  let exact =
    Csp.Minizinc.emit
      ~opts:{ Csp.Model.default with Csp.Model.goal = Csp.Model.Goal_exact }
      ~len:4 2
  in
  let asc = Csp.Minizinc.emit ~len:4 2 in
  assert (exact <> asc);
  assert (contains "v[LEN, p, r] = r" exact);
  assert (contains "v[LEN, p, r] <= v[LEN, p, r+1]" asc)

(* --- Pipeline simulator --- *)

let test_pipeline_paper_kernel () =
  let r = Perf.Pipeline.run ~iterations:50 cfg3 Perf.Kernels.paper_sort3 in
  assert (r.Perf.Pipeline.cycles > 0);
  assert (r.Perf.Pipeline.ipc > 0.);
  assert (r.Perf.Pipeline.cycles_per_iteration > 0.)

let test_pipeline_empty_program () =
  let r = Perf.Pipeline.run cfg3 [||] in
  check Alcotest.int "no cycles" 0 r.Perf.Pipeline.cycles

let test_pipeline_synth_not_worse_than_network () =
  (* Fewer instructions with comparable structure: the synthesized kernel's
     steady-state throughput must not lose to the 12-instruction network. *)
  let synth = Perf.Pipeline.run ~iterations:200 cfg3 Perf.Kernels.paper_sort3 in
  let net = Perf.Pipeline.run ~iterations:200 cfg3 (Perf.Kernels.network 3) in
  assert (
    synth.Perf.Pipeline.cycles_per_iteration
    <= net.Perf.Pipeline.cycles_per_iteration +. 0.001)

let test_pipeline_issue_width_matters () =
  let narrow = { Perf.Pipeline.default_core with Perf.Pipeline.issue_width = 1 } in
  let wide = Perf.Pipeline.default_core in
  let rn = Perf.Pipeline.run ~core:narrow ~iterations:100 cfg3 Perf.Kernels.paper_sort3 in
  let rw = Perf.Pipeline.run ~core:wide ~iterations:100 cfg3 Perf.Kernels.paper_sort3 in
  assert (rn.Perf.Pipeline.cycles >= rw.Perf.Pipeline.cycles)

let test_pipeline_single_iteration_latency_bound () =
  (* One iteration can never finish faster than the critical path. *)
  let a = Perf.Cost.analyze cfg3 Perf.Kernels.paper_sort3 in
  let r = Perf.Pipeline.run ~iterations:1 cfg3 Perf.Kernels.paper_sort3 in
  assert (r.Perf.Pipeline.cycles >= a.Perf.Cost.critical_path)

let test_compare_kernels_order () =
  let rs =
    Perf.Pipeline.compare_kernels cfg3
      [ ("a", Perf.Kernels.paper_sort3); ("b", Perf.Kernels.network 3) ]
  in
  check (Alcotest.list Alcotest.string) "names" [ "a"; "b" ] (List.map fst rs)

(* --- Parallel search --- *)

let test_parallel_n2 () =
  let r =
    Search.run_mode ~domains:2 ~mode:Search.Find_first (Isa.Config.default 2)
  in
  check (Alcotest.option Alcotest.int) "optimal 4" (Some 4) r.Search.optimal_length;
  match r.Search.programs with
  | p :: _ -> assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)
  | [] -> Alcotest.fail "no program"

let test_parallel_matches_sequential_n3 () =
  let opts = { Search.best with Search.action_filter = Search.All_actions } in
  let seq =
    Search.run ~opts:{ opts with Search.engine = Search.Level_sync }
      (Isa.Config.default 3)
  in
  let par =
    Search.run_mode ~opts ~domains:3 ~mode:Search.Find_first
      (Isa.Config.default 3)
  in
  check (Alcotest.option Alcotest.int) "same optimal length"
    seq.Search.optimal_length par.Search.optimal_length;
  (* Expansion accounting differs at the final level (the parallel engine
     batches a whole level before noticing a solution), so only demand the
     same order of magnitude. *)
  assert (
    par.Search.stats.Search.expanded <= 2 * seq.Search.stats.Search.expanded);
  assert (
    seq.Search.stats.Search.expanded <= 2 * par.Search.stats.Search.expanded)

let test_parallel_prove_none () =
  let r =
    Search.run_mode ~domains:2 ~mode:(Search.Prove_none 3)
      (Isa.Config.default 2)
  in
  check (Alcotest.option Alcotest.int) "no kernel of length 3" None
    r.Search.optimal_length

(* --- Artifacts --- *)

let test_artifacts_written () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sortsynth_artifacts" in
  let files = Harness.Artifacts.write ~full:false dir in
  assert (List.mem "sol3_h1.txt" files);
  assert (List.mem "domain.pddl" files);
  assert (List.mem "sort3_len11.mzn" files);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      assert (Sys.file_exists path);
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      assert (len > 0))
    files;
  (* The dumped kernel parses back and sorts. *)
  let ic = open_in (Filename.concat dir "sol3_h1.txt") in
  let buf = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Isa.Program.of_string cfg3 buf with
  | Ok p -> assert (Machine.Exec.sorts_all_permutations cfg3 p)
  | Error e -> Alcotest.fail e


(* --- 0-1 lemma gap (Section 2.3) --- *)

let test_zeroone_networks_equivalent () =
  (* For network-compiled kernels, binary correctness and permutation
     correctness agree (the 0-1 principle holds for compare-and-swap
     structure). *)
  for n = 2 to 4 do
    let cfg = Isa.Config.default n in
    let k = Sortnet.to_kernel cfg (Sortnet.optimal n) in
    assert (Machine.Zeroone.sorts_all_binary cfg k);
    assert (Machine.Zeroone.zero_one_gap cfg k = `Equivalent)
  done

let test_zeroone_gap_exists () =
  (* The paper's Section 2.3 claim: there are cmov programs correct on all
     binary inputs yet wrong on permutations, so the 0-1 lemma cannot
     replace the n! suite. *)
  let cfg = Isa.Config.default 2 in
  match Machine.Zeroone.find_counterexample_kernel cfg with
  | Some (p, perm) ->
      assert (Machine.Zeroone.sorts_all_binary cfg p);
      let out = Machine.Exec.run cfg p perm in
      assert (not (Perms.is_identity out))
  | None -> Alcotest.fail "gap witness should exist for n=2"

(* --- Hybrid kernels (Section 5.4) --- *)

let test_hybrid_n2_optimum () =
  let r = Hybrid.synthesize 2 in
  match r.Search.programs with
  | p :: _ ->
      assert (Hybrid.sorts_all_permutations (Isa.Config.default 2) p);
      (* The hybrid optimum cannot beat the pure cmov optimum (4): any use
         of the vector file pays transfers. *)
      check Alcotest.int "hybrid optimum = cmov optimum" 4 (Array.length p);
      (* The shared vetting attributes every generated successor once. *)
      List.iter
        (fun (l : Search.level_stat) ->
          check Alcotest.int
            (Printf.sprintf "depth %d: prune identity" l.Search.depth)
            l.Search.succs_generated
            (l.Search.succs_kept + l.Search.finals_found + l.Search.cut_pruned
           + l.Search.viability_pruned + l.Search.bound_pruned))
        r.Search.stats.Search.levels
  | [] -> Alcotest.fail "hybrid synthesis failed for n=2"

(* The hybrid machine runs on every engine of the dispatch: A* finds the
   same optimum as the level loop. *)
let test_hybrid_n2_astar () =
  let cfg = Isa.Config.default 2 in
  let r =
    Search.run_isa
      ~opts:{ Search.default with Search.cut = Search.Mult 1.0 }
      ~mode:Search.Find_first cfg (Hybrid.isa cfg)
  in
  check (Alcotest.option Alcotest.int) "A* finds 4" (Some 4) r.Search.optimal_length;
  match r.Search.programs with
  | p :: _ -> assert (Hybrid.sorts_all_permutations cfg p)
  | [] -> Alcotest.fail "no hybrid kernel"

let test_hybrid_transfer_accounting () =
  let p =
    [| Hybrid.To_vec (0, 0); Hybrid.Vec (Minmax.Vinstr.pmin 0 1);
       Hybrid.To_gp (0, 0); Hybrid.Gp (Isa.Instr.mov 1 0) |]
  in
  check Alcotest.int "two transfers" 2 (Hybrid.transfer_count p)

let test_hybrid_run_mixed_program () =
  (* Move both values into the vector file, min/max there, move back:
     a hand-written hybrid sort for n=2 (3-instr CAS + 4 transfers). *)
  let cfg = Isa.Config.default 2 in
  let p =
    [|
      Hybrid.To_vec (0, 0); Hybrid.To_vec (1, 1);
      Hybrid.Vec (Minmax.Vinstr.movdqa 2 0);
      Hybrid.Vec (Minmax.Vinstr.pmin 0 1);
      Hybrid.Vec (Minmax.Vinstr.pmax 1 2);
      Hybrid.To_gp (0, 0); Hybrid.To_gp (1, 1);
    |]
  in
  assert (Hybrid.sorts_all_permutations cfg p);
  (* ... and it is longer than the pure cmov kernel (4), demonstrating the
     paper's point that hybrids are not competitive. *)
  assert (Array.length p > 4)

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Search.Heap.create () in
  List.iter (fun (p, v) -> Search.Heap.push h p v) [ (5, "e"); (1, "a"); (3, "c"); (1, "b") ];
  let pop () = match Search.Heap.pop h with Some (_, v) -> v | None -> "-" in
  (* Equal priorities pop FIFO. *)
  check Alcotest.string "a first" "a" (pop ());
  check Alcotest.string "b second (FIFO tie)" "b" (pop ());
  check Alcotest.string "c third" "c" (pop ());
  check Alcotest.string "e last" "e" (pop ());
  assert (Search.Heap.pop h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in priority order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let h = Search.Heap.create () in
      List.iter (fun x -> Search.Heap.push h x x) xs;
      let rec drain acc =
        match Search.Heap.pop h with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* Interleaved pushes and pops against a model that keeps the held
   elements stably sorted by priority: every pop returns the model's
   head, so equal priorities leave in insertion order. Priorities mix
   negatives (min_int included), a few small values that tie often, and
   the extremes max_int / 2 and max_int. *)
let prop_open_list_stable_order =
  let prio =
    QCheck.Gen.(
      frequency
        [
          (3, int_range (-5) (-1));
          (1, return min_int);
          (6, int_range 0 4);
          (1, return (max_int / 2));
          (1, return max_int);
        ])
  in
  let op =
    QCheck.Gen.(frequency [ (3, map Option.some prio); (2, return None) ])
  in
  let show = function None -> "pop" | Some p -> Printf.sprintf "push %d" p in
  QCheck.Test.make ~name:"open list pops in stable priority order" ~count:300
    QCheck.(make ~print:(Print.list show) Gen.(list_size (int_bound 200) op))
    (fun ops ->
      let h = Search.Heap.create () in
      let model = ref [] and seq = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Some p ->
              Search.Heap.push h p !seq;
              model :=
                List.stable_sort
                  (fun (a, _) (b, _) -> compare a b)
                  (!model @ [ (p, !seq) ]);
              incr seq;
              true
          | None -> (
              match (Search.Heap.pop h, !model) with
              | None, [] -> true
              | Some got, want :: rest ->
                  model := rest;
                  got = want
              | _ -> false))
          && Search.Heap.size h = List.length !model)
        ops)

let () =
  Alcotest.run "extensions"
    [
      ( "smt-minmax",
        [
          Alcotest.test_case "n=2 finds 3" `Quick test_smt_minmax_n2;
          Alcotest.test_case "len 2 unsat" `Quick test_smt_minmax_n2_len2_unsat;
          Alcotest.test_case "min length probe" `Quick test_smt_minmax_find_min_length;
          Alcotest.test_case "CEGIS certifies each candidate" `Quick
            test_cegis_certifies_each_candidate;
        ] );
      ( "cp-minmax",
        [
          Alcotest.test_case "n=2 finds 3" `Quick test_cp_minmax_n2;
          Alcotest.test_case "len 2 exhausted" `Quick test_cp_minmax_len2_exhausted;
          Alcotest.test_case "agrees with enum" `Quick test_cp_minmax_agrees_with_enum;
        ] );
      ( "minizinc",
        [
          Alcotest.test_case "emits model" `Quick test_minizinc_emits_model;
          Alcotest.test_case "goal variants" `Quick test_minizinc_goal_variants_differ;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "paper kernel" `Quick test_pipeline_paper_kernel;
          Alcotest.test_case "empty program" `Quick test_pipeline_empty_program;
          Alcotest.test_case "synth <= network" `Quick
            test_pipeline_synth_not_worse_than_network;
          Alcotest.test_case "issue width" `Quick test_pipeline_issue_width_matters;
          Alcotest.test_case "latency bound" `Quick
            test_pipeline_single_iteration_latency_bound;
          Alcotest.test_case "compare order" `Quick test_compare_kernels_order;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "n=2" `Quick test_parallel_n2;
          Alcotest.test_case "matches sequential n=3" `Slow
            test_parallel_matches_sequential_n3;
          Alcotest.test_case "prove none" `Quick test_parallel_prove_none;
        ] );
      ( "artifacts",
        [ Alcotest.test_case "files written" `Slow test_artifacts_written ] );
      ( "zeroone",
        [
          Alcotest.test_case "networks equivalent" `Quick
            test_zeroone_networks_equivalent;
          Alcotest.test_case "gap witness exists" `Quick test_zeroone_gap_exists;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "n=2 optimum" `Slow test_hybrid_n2_optimum;
          Alcotest.test_case "n=2 optimum under A*" `Quick test_hybrid_n2_astar;
          Alcotest.test_case "transfer accounting" `Quick
            test_hybrid_transfer_accounting;
          Alcotest.test_case "mixed program" `Quick test_hybrid_run_mixed_program;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_open_list_stable_order;
        ] );
    ]
