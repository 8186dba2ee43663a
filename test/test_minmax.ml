let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let cfg3 = Isa.Config.default 3

(* One run of the engine dispatch over the min/max machine. *)
let run ?(opts = Minmax.default) ?domains ~engine ~mode n =
  let cfg = Isa.Config.default n in
  Search.run_isa ~opts:{ opts with Search.engine } ?domains ~mode cfg
    (Minmax.isa cfg)

let engines = [ ("astar", Search.Astar); ("level", Search.Level_sync) ]

let test_paper_kernel_sorts () =
  assert (Minmax.Vexec.sorts_all_permutations cfg3 Minmax.paper_sort3);
  check Alcotest.int "8 instructions" 8 (Array.length Minmax.paper_sort3)

let test_paper_kernel_semantics () =
  (* Section 2.1: x2 = max(min(max(c,b),a), min(b,c)); x1 = min(a,min(b,c))
     where a,b,c are the initial xmm0..xmm2. *)
  List.iter
    (fun p ->
      let a = p.(0) and b = p.(1) and c = p.(2) in
      let out = Minmax.Vexec.run cfg3 Minmax.paper_sort3 p in
      check Alcotest.int "x1 = min(a,min(b,c))" (min a (min b c)) out.(0);
      check Alcotest.int "x2 = max(min(max(c,b),a),min(b,c))"
        (max (min (max c b) a) (min b c))
        out.(1))
    (Perms.all 3)

let test_synth_sizes () =
  (* Paper: optimal min/max kernels have 8 (n=3) and 15 (n=4) instructions. *)
  check (Alcotest.option Alcotest.int) "n=2" (Some 3)
    (Minmax.synthesize 2).Search.optimal_length;
  check (Alcotest.option Alcotest.int) "n=3" (Some 8)
    (Minmax.synthesize 3).Search.optimal_length

let test_synth_n4_size () =
  check (Alcotest.option Alcotest.int) "n=4" (Some 15)
    (Minmax.synthesize 4).Search.optimal_length

let test_synth_correct () =
  List.iter
    (fun n ->
      match (Minmax.synthesize n).Search.programs with
      | p :: _ ->
          assert (Minmax.Vexec.sorts_all_permutations (Isa.Config.default n) p)
      | [] -> Alcotest.failf "no kernel for n=%d" n)
    [ 2; 3 ]

let test_network_sizes () =
  (* 3 instructions per comparator: 9 / 15 / 27 for n=3..5. *)
  check Alcotest.int "n=3" 9 (Array.length (Minmax.network_kernel 3));
  check Alcotest.int "n=4" 15 (Array.length (Minmax.network_kernel 4));
  check Alcotest.int "n=5" 27 (Array.length (Minmax.network_kernel 5))

let test_network_correct () =
  for n = 2 to 5 do
    assert (
      Minmax.Vexec.sorts_all_permutations (Isa.Config.default n)
        (Minmax.network_kernel n))
  done

let test_synth_beats_network_n3 () =
  (* The paper's headline for Section 5.4: synthesis saves one instruction
     on the network for n = 3 (8 vs 9). *)
  let synth = Option.get (Minmax.synthesize 3).Search.optimal_length in
  assert (synth < Array.length (Minmax.network_kernel 3))

(* The exact counts are order-independent facts of the level search:
   which states each level holds, and so the path count and the number of
   expansions of a full enumeration, do not depend on the order a level
   is walked in. *)
let test_all_solutions_enumeration () =
  List.iter
    (fun (k, paths, expanded) ->
      let r =
        Minmax.synthesize ~mode:Search.All_optimal
          ~opts:{ Minmax.default with Search.cut = Search.Mult k }
          3
      in
      let what = Printf.sprintf "cut %.1f" k in
      check Alcotest.int (what ^ ": paths") paths r.Search.solution_count;
      check Alcotest.int (what ^ ": expanded") expanded
        r.Search.stats.Search.expanded;
      check Alcotest.int (what ^ ": programs") paths (List.length r.Search.programs);
      List.iter
        (fun p -> assert (Minmax.Vexec.sorts_all_permutations cfg3 p))
        r.Search.programs;
      (* All enumerated programs distinct. *)
      check Alcotest.int (what ^ ": distinct") paths
        (List.length (List.sort_uniq compare r.Search.programs)))
    [ (1.0, 288, 489); (2.0, 604, 933) ]

let test_prune_identity () =
  List.iter
    (fun (name, (r : Minmax.Vinstr.t Search.outcome)) ->
      let st = r.Search.stats in
      (* Every bucket the minmax machine can fill is exercised. *)
      assert (st.Search.pruned_cut > 0 && st.Search.pruned_viability > 0);
      assert (st.Search.deduped > 0);
      List.iter
        (fun (l : Search.level_stat) ->
          check Alcotest.int
            (Printf.sprintf "%s depth %d: generated = kept + finals + pruned" name
               l.Search.depth)
            l.Search.succs_generated
            (l.Search.succs_kept + l.Search.finals_found + l.Search.cut_pruned
           + l.Search.viability_pruned + l.Search.bound_pruned))
        st.Search.levels)
    [
      ("level", Minmax.synthesize ~mode:Search.All_optimal 3);
      ("astar", run ~engine:Search.Astar ~mode:Search.Find_first 4);
    ]

let test_max_len_bound () =
  List.iter
    (fun (name, engine) ->
      let r =
        run ~opts:{ Minmax.default with Search.max_len = Some 7 } ~engine
          ~mode:Search.Find_first 3
      in
      check (Alcotest.option Alcotest.int) (name ^ ": no length-7 kernel") None
        r.Search.optimal_length)
    engines

(* A* with the perm-count heuristic and the certified-minimal level loop
   agree on the paper's optima. *)
let test_engines_agree () =
  List.iter
    (fun (n, len) ->
      List.iter
        (fun (name, engine) ->
          let r = run ~engine ~mode:Search.Find_first n in
          check (Alcotest.option Alcotest.int)
            (Printf.sprintf "n=%d %s" n name)
            (Some len) r.Search.optimal_length;
          match r.Search.programs with
          | p :: _ ->
              assert (Minmax.Vexec.sorts_all_permutations (Isa.Config.default n) p)
          | [] -> Alcotest.failf "n=%d %s: no kernel" n name)
        engines)
    [ (2, 3); (3, 8); (4, 15) ]

(* The pool merges in the sequential loop's order, so a full enumeration
   is the same run whatever the domain count. *)
let test_pool_matches_level () =
  let strip (r : Minmax.Vinstr.t Search.outcome) =
    (r.Search.programs, { r.Search.stats with Search.elapsed = 0.; timeline = [] })
  in
  List.iter
    (fun (k, paths) ->
      let opts = { Minmax.default with Search.cut = Search.Mult k } in
      let level domains =
        run ~opts ?domains ~engine:Search.Level_sync ~mode:Search.All_optimal 3
      in
      let seq = level None in
      check Alcotest.int (Printf.sprintf "cut %.0f: paths" k) paths
        seq.Search.solution_count;
      List.iter
        (fun d ->
          let par = level (Some d) in
          check Alcotest.int
            (Printf.sprintf "cut %.0f, %d domains: paths" k d)
            paths par.Search.solution_count;
          if strip par <> strip seq then
            Alcotest.failf "cut %.0f, %d domains: run differs from sequential" k d)
        [ 1; 2; 4 ])
    [ (1.0, 288); (2.0, 604) ]

(* One min/max certification is one run of the counted n! loop. *)
let test_certification_counted () =
  let before = Machine.Exec.certifications () in
  assert (Minmax.Vexec.sorts_all_permutations cfg3 Minmax.paper_sort3);
  check Alcotest.int "one certification" (before + 1)
    (Machine.Exec.certifications ())

let test_to_sorter () =
  match (Minmax.synthesize 3).Search.programs with
  | p :: _ -> assert (Perf.Compile.verify (Minmax.to_sorter 3 p))
  | [] -> Alcotest.fail "no kernel"

let test_x86_rendering () =
  let s = Minmax.Vexec.to_x86 cfg3 Minmax.paper_sort3 in
  assert (String.length s > 0);
  (* The paper's example uses xmm7 as the temporary. *)
  let contains needle hay =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  assert (contains "movdqa xmm7, xmm1" s);
  assert (contains "pminsd" s);
  assert (contains "pmaxsd" s)

let prop_packed_matches_reference =
  let instrs = Minmax.Vinstr.all cfg3 in
  QCheck.Test.make ~name:"packed minmax executor = reference" ~count:300
    QCheck.(pair (int_bound 100000) (int_range 0 12))
    (fun (seed, len) ->
      let st = Random.State.make [| seed |] in
      let p =
        Array.init len (fun _ -> instrs.(Random.State.int st (Array.length instrs)))
      in
      List.for_all
        (fun perm ->
          let code =
            Minmax.Vexec.run_code p (Minmax.Vexec.of_permutation cfg3 perm)
          in
          let packed = Array.init 3 (fun k -> Minmax.Vexec.reg code k) in
          packed = Minmax.Vexec.run cfg3 p perm)
        (Perms.all 3))

let prop_synthesized_sorts_arbitrary_ints =
  let kernel =
    match (Minmax.synthesize 3).Search.programs with
    | p :: _ -> p
    | [] -> failwith "no kernel"
  in
  QCheck.Test.make ~name:"minmax kernel sorts arbitrary ints" ~count:300
    QCheck.(triple small_signed_int small_signed_int small_signed_int)
    (fun (a, b, c) ->
      let input = [| a; b; c |] in
      let out = Minmax.Vexec.run cfg3 kernel input in
      Machine.Exec.output_correct ~input ~output:out)

let () =
  Alcotest.run "minmax"
    [
      ( "unit",
        [
          Alcotest.test_case "paper kernel sorts" `Quick test_paper_kernel_sorts;
          Alcotest.test_case "paper kernel semantics" `Quick
            test_paper_kernel_semantics;
          Alcotest.test_case "synthesis sizes" `Quick test_synth_sizes;
          Alcotest.test_case "synthesis n=4 size" `Slow test_synth_n4_size;
          Alcotest.test_case "synthesis correct" `Quick test_synth_correct;
          Alcotest.test_case "network sizes" `Quick test_network_sizes;
          Alcotest.test_case "network correct" `Quick test_network_correct;
          Alcotest.test_case "synth beats network" `Quick test_synth_beats_network_n3;
          Alcotest.test_case "all solutions" `Quick test_all_solutions_enumeration;
          Alcotest.test_case "prune identity" `Quick test_prune_identity;
          Alcotest.test_case "length bound" `Quick test_max_len_bound;
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          Alcotest.test_case "pool = level" `Quick test_pool_matches_level;
          Alcotest.test_case "certification counted" `Quick
            test_certification_counted;
          Alcotest.test_case "to_sorter" `Quick test_to_sorter;
          Alcotest.test_case "x86 rendering" `Quick test_x86_rendering;
        ] );
      ( "properties",
        [ qtest prop_packed_matches_reference; qtest prop_synthesized_sorts_arbitrary_ints ]
      );
    ]
