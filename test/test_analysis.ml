let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let cfg2 = Isa.Config.default 2
let cfg3 = Isa.Config.default 3

let parse cfg s =
  match Isa.Program.of_string cfg s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* The optimal n=2 kernel: save r1, compare, conditionally swap. *)
let sort2 = "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"

let rule = Alcotest.testable (fun fmt r -> Fmt.string fmt (Analysis.Lint.rule_id r)) ( = )

let finding_coords fs =
  List.map (fun f -> (f.Analysis.Lint.rule, f.Analysis.Lint.index)) fs

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Dataflow core.                                                      *)

let test_dataflow_sort2 () =
  let p = parse cfg2 sort2 in
  let df = Analysis.Dataflow.analyze cfg2 p in
  (* Flags: only gt is ever consumed. *)
  assert (Analysis.Dataflow.gt_live_after df 1);
  assert (not (Analysis.Dataflow.lt_live_after df 1));
  (* Reaching cmp: nothing before instruction 1, cmp@1 at both cmovs. *)
  assert (Analysis.Dataflow.reaching_cmp df 0 = None);
  assert (Analysis.Dataflow.reaching_cmp df 2 = Some 1);
  assert (Analysis.Dataflow.reaching_cmp df 3 = Some 1);
  (* Scratch starts unwritten; the mov at 0 defines it. *)
  assert (not (Analysis.Dataflow.reg_written_before df 0 2));
  assert (Analysis.Dataflow.reg_written_before df 1 2);
  (* Value registers count as defined at entry. *)
  assert (Analysis.Dataflow.reg_written_before df 0 0);
  for i = 0 to 3 do
    assert (Analysis.Dataflow.is_effective df i)
  done

let test_dataflow_cmov_keeps_dst_live () =
  (* A conditional move must NOT kill its destination: when the flag is
     clear the old value flows through. "mov r1 s1" would be dead before an
     unconditional overwrite of r1, but stays live before a cmov of r1. *)
  let conditional = parse cfg2 (sort2 ^ "cmp r1 r2\ncmovg r1 s1\n") in
  let df = Analysis.Dataflow.analyze cfg2 conditional in
  (* r1 (register 0) written by cmovg@2 is still live after it even though
     cmovg@5 also targets r1. *)
  assert (Analysis.Dataflow.reg_live_after df 2 0);
  let unconditional = parse cfg2 (sort2 ^ "mov r1 s1\n") in
  let df = Analysis.Dataflow.analyze cfg2 unconditional in
  (* Now the overwrite at 4 is unconditional, so the cmovg@2 def of r1
     never reaches a reader. *)
  assert (not (Analysis.Dataflow.reg_live_after df 2 0));
  assert (not (Analysis.Dataflow.is_effective df 2))

(* ------------------------------------------------------------------ *)
(* Golden lints on hand-written defective kernels.                     *)

let test_lint_clean_sort2 () =
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "sort2 is lint-clean" []
    (finding_coords (Analysis.Lint.check_all cfg2 (parse cfg2 sort2)))

let test_lint_dead_mov () =
  let p = parse cfg2 (sort2 ^ "mov s1 r1\n") in
  let fs = Analysis.Lint.check_all cfg2 p in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "dead trailing mov"
    [ (Analysis.Lint.Dead_write, Some 4); (Analysis.Lint.Trailing_code, Some 4) ]
    (finding_coords fs);
  List.iter (fun f -> assert (f.Analysis.Lint.severity = Analysis.Lint.Error)) fs

let test_lint_orphan_cmov () =
  (* A cmov before any cmp: both flags still hold their cleared initial
     state, so the move can never fire. *)
  let p = parse cfg2 ("cmovl r1 r2\n" ^ sort2) in
  let fs = Analysis.Lint.check_all cfg2 p in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "orphan cmov"
    [ (Analysis.Lint.Orphan_cmov, Some 0) ]
    (finding_coords fs)

let test_lint_clobbered_cmp () =
  (* Two identical back-to-back cmps: the first one's flags are clobbered
     before any consumer (dataflow), and the second re-compares an
     unchanged operand pair (redundant-cmp, which as an Error suppresses
     the semantic-noop finding on the same instruction). *)
  let p = parse cfg2 "mov s1 r1\ncmp r1 r2\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n" in
  let fs = Analysis.Lint.check_all cfg2 p in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "clobbered cmp + redundant recompute"
    [ (Analysis.Lint.Dead_cmp, Some 1); (Analysis.Lint.Redundant_cmp, Some 2) ]
    (finding_coords fs)

let test_lint_redundant_cmp () =
  (* The golden redundant-cmp cases. A mov of an unrelated register between
     the cmps does not break the pattern; a flag reader or a write to
     either operand does. *)
  let fire = parse cfg3 "cmp r1 r2\nmov s1 r3\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n" in
  let coords p = finding_coords (Analysis.Lint.check cfg3 p) in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "unrelated mov between the cmps still fires"
    [ (Analysis.Lint.Redundant_cmp, Some 2) ]
    (List.filter
       (fun (r, _) -> r = Analysis.Lint.Redundant_cmp)
       (coords fire));
  (* An intervening cmov reads the flags (and may write an operand):
     quiet. *)
  let broken_by_cmov =
    parse cfg3 "cmp r1 r2\ncmovg r1 r2\ncmp r1 r2\ncmovl r2 r1\nmov s1 r3\n"
  in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "flag reader between the cmps breaks the pattern" []
    (List.filter
       (fun (r, _) -> r = Analysis.Lint.Redundant_cmp)
       (coords broken_by_cmov));
  (* A mov overwriting an operand invalidates the comparison: quiet. *)
  let broken_by_write =
    parse cfg3 "cmp r1 r2\nmov r1 r3\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 r1\n"
  in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "operand write between the cmps breaks the pattern" []
    (List.filter
       (fun (r, _) -> r = Analysis.Lint.Redundant_cmp)
       (coords broken_by_write));
  (* Stable identifier: scripts grep for it. *)
  check Alcotest.string "rule id" "redundant-cmp"
    (Analysis.Lint.rule_id Analysis.Lint.Redundant_cmp)

let test_lint_uninit_scratch () =
  (* Comparing r2 against never-written s1 compares against the constant 0,
     which every input value exceeds: the cmovl can never fire. The reads
     are warnings; the provably-dead cmovl is an error. *)
  let p = parse cfg2 ("cmp r2 s1\ncmovl r2 s1\n" ^ sort2) in
  let fs = Analysis.Lint.check_all cfg2 p in
  check (Alcotest.list (Alcotest.pair rule (Alcotest.option Alcotest.int)))
    "uninit scratch reads + impossible cmovl"
    [
      (Analysis.Lint.Uninit_scratch_read, Some 0);
      (Analysis.Lint.Semantic_noop, Some 1);
      (Analysis.Lint.Uninit_scratch_read, Some 1);
    ]
    (finding_coords fs);
  check Alcotest.int "one error"
    1
    (List.length (Analysis.Lint.errors fs));
  check Alcotest.string "summary" "3 findings (1 error, 2 warnings)"
    (Analysis.Lint.summary fs)

let test_lint_not_sorting () =
  (* The identity program computes nothing: not a sorting kernel. *)
  let fs = Analysis.Lint.check_all cfg2 (parse cfg2 "cmp r1 r2\n") in
  assert (
    List.exists
      (fun f -> f.Analysis.Lint.rule = Analysis.Lint.Not_sorting)
      fs)

let test_lint_json () =
  let p = parse cfg2 (sort2 ^ "mov s1 r1\n") in
  let fs = Analysis.Lint.check_all cfg2 p in
  List.iter
    (fun f ->
      let one = Json.to_string (Analysis.Lint.report_json [ f ]) in
      match Json.parse one with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("finding JSON invalid: " ^ m))
    fs;
  let report =
    Json.to_string
      (Analysis.Lint.report_json ~file:"k.txt" ~lines:[| 1; 2; 3; 4; 5 |] fs)
  in
  (match Json.parse report with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("report JSON invalid: " ^ m));
  assert (contains report "\"file\":\"k.txt\"");
  assert (contains report "\"errors\":2");
  (* Instruction 4 sits on source line 5. *)
  assert (contains report "\"line\":5")

(* ------------------------------------------------------------------ *)
(* Abstract interpretation.                                            *)

(* Sortedness of every reachable final assignment: what the final row
   says about the kernel. *)
let final_row_sorted cfg p =
  Array.for_all
    (Machine.Assign.is_sorted cfg)
    (Analysis.Absint.reachable cfg p).(Array.length p)

let test_absint_sort2 () =
  let p = parse cfg2 sort2 in
  let sizes = Analysis.Absint.set_sizes cfg2 p in
  check Alcotest.int "points" 5 (Array.length sizes);
  check Alcotest.int "initial set = n!" 2 sizes.(0);
  Array.iter (fun s -> assert (s >= 1 && s <= 2)) sizes;
  check Alcotest.bool "final row sorted" true (final_row_sorted cfg2 p);
  check (Alcotest.list Alcotest.int) "no noops" []
    (Analysis.Absint.semantic_noops cfg2 p)

let test_absint_rejects_non_sorting () =
  check Alcotest.bool "final row has an unsorted assignment" false
    (final_row_sorted cfg2 (parse cfg2 "cmp r1 r2\n"))

let prop_certifier_equivalence =
  (* Absint's final row (which semantic_noops reads) and the one
     certifier must agree on every program — they are two routes to the
     same n!-image. *)
  let gen =
    QCheck.Gen.(
      tup3 (int_range 2 4) (int_range 0 2)
        (list_size (int_bound 15) (int_bound 1_000_000)))
  in
  QCheck.Test.make ~name:"abstract certifier = brute-force certifier"
    ~count:200 (QCheck.make gen) (fun (n, m, picks) ->
      let cfg = Isa.Config.make ~n ~m in
      let univ = Isa.Instr.all cfg in
      let p =
        Array.of_list
          (List.map (fun k -> univ.(k mod Array.length univ)) picks)
      in
      final_row_sorted cfg p = Result.is_ok (Machine.Exec.certify cfg p))

(* ------------------------------------------------------------------ *)
(* Proof-carrying DCE.                                                 *)

let same_outputs cfg p q =
  List.for_all
    (fun input -> Machine.Exec.run cfg p input = Machine.Exec.run cfg q input)
    (Perms.all cfg.Isa.Config.n)

let test_dce_removes_padding () =
  let padded = parse cfg2 (sort2 ^ "mov s1 r1\n") in
  let d = Analysis.Dce.run cfg2 padded in
  check Alcotest.int "one removal" 1 (List.length d.Analysis.Dce.removed);
  check Alcotest.int "shrunk to optimal" 4
    (Isa.Program.length d.Analysis.Dce.optimized);
  assert d.Analysis.Dce.certified;
  assert (not d.Analysis.Dce.refused);
  assert (Isa.Program.equal d.Analysis.Dce.optimized (parse cfg2 sort2));
  (* Removal records carry original indices and the justifying rule. *)
  match d.Analysis.Dce.removed with
  | [ r ] ->
      check Alcotest.int "original index" 4 r.Analysis.Dce.index;
      check rule "rule" Analysis.Lint.Dead_write r.Analysis.Dce.rule
  | _ -> Alcotest.fail "expected exactly one removal"

let test_dce_cascade () =
  (* The uninit-scratch prefix needs two alternating passes: the cmovl is a
     semantic no-op, and only once it is gone does the cmp become dead. *)
  let p = parse cfg2 ("cmp r2 s1\ncmovl r2 s1\n" ^ sort2) in
  let d = Analysis.Dce.run cfg2 p in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int rule))
    "both prefix instructions removed"
    [
      (0, Analysis.Lint.Dead_cmp); (1, Analysis.Lint.Semantic_noop);
    ]
    (List.map
       (fun r -> (r.Analysis.Dce.index, r.Analysis.Dce.rule))
       d.Analysis.Dce.removed);
  check Alcotest.int "shrunk to optimal" 4
    (Isa.Program.length d.Analysis.Dce.optimized);
  assert d.Analysis.Dce.certified;
  assert (same_outputs cfg2 p d.Analysis.Dce.optimized)

let test_dce_empty_and_non_sorting () =
  let d = Analysis.Dce.run cfg2 [||] in
  check Alcotest.int "empty stays empty" 0
    (Isa.Program.length d.Analysis.Dce.optimized);
  assert (not d.Analysis.Dce.certified);
  assert (not d.Analysis.Dce.refused);
  (* DCE preserves behavior even of non-sorting programs. *)
  let p = parse cfg2 "cmp r1 r2\ncmovg r1 r2\nmov s1 r2\n" in
  let d = Analysis.Dce.run cfg2 p in
  assert (not d.Analysis.Dce.certified);
  assert (same_outputs cfg2 p d.Analysis.Dce.optimized)

let prop_dce_preserves_behavior =
  (* On arbitrary programs (sorting or not) the optimized kernel is never
     longer and produces bit-identical value-register outputs on every
     input permutation. *)
  let gen = QCheck.Gen.(list_size (int_bound 25) (int_bound 1_000_000)) in
  QCheck.Test.make ~name:"DCE output is shorter and bit-identical" ~count:150
    (QCheck.make gen) (fun picks ->
      let univ = Isa.Instr.all cfg3 in
      let p =
        Array.of_list
          (List.map (fun k -> univ.(k mod Array.length univ)) picks)
      in
      let d = Analysis.Dce.run cfg3 p in
      Isa.Program.length d.Analysis.Dce.optimized <= Isa.Program.length p
      && (not d.Analysis.Dce.refused)
      && same_outputs cfg3 p d.Analysis.Dce.optimized
      && d.Analysis.Dce.certified
         = Machine.Exec.sorts_all_permutations cfg3 p)

(* ------------------------------------------------------------------ *)
(* Synthesized kernels are lint-clean.                                 *)

let test_optimal_kernels_lint_clean () =
  (* An optimal kernel cannot contain a provably removable instruction —
     otherwise a shorter kernel would exist. Assert the analyzer agrees on
     every optimal n=3 kernel the enumerator can produce. *)
  let opts =
    {
      Search.default with
      Search.heuristic = Search.Perm_count;
      cut = Search.Mult 2.0;
      max_solutions = 50;
    }
  in
  let r = Search.run_mode ~opts ~mode:Search.All_optimal cfg3 in
  assert (r.Search.programs <> []);
  List.iter
    (fun p ->
      (match Analysis.Lint.check_all cfg3 p with
      | [] -> ()
      | fs ->
          Alcotest.failf "optimal kernel has findings: %s"
            (Analysis.Lint.summary fs));
      let d = Analysis.Dce.run cfg3 p in
      assert (d.Analysis.Dce.removed = []);
      assert d.Analysis.Dce.certified)
    r.Search.programs;
  (* The single fast-path kernel too. *)
  match Search.synthesize 3 with
  | Some p -> assert (Analysis.Lint.check_all cfg3 p = [])
  | None -> Alcotest.fail "synthesize 3 found nothing"

let () =
  Alcotest.run "analysis"
    [
      ( "dataflow",
        [
          Alcotest.test_case "sort2 chains + flags" `Quick test_dataflow_sort2;
          Alcotest.test_case "cmov keeps dst live" `Quick
            test_dataflow_cmov_keeps_dst_live;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean kernel" `Quick test_lint_clean_sort2;
          Alcotest.test_case "dead mov" `Quick test_lint_dead_mov;
          Alcotest.test_case "orphan cmov" `Quick test_lint_orphan_cmov;
          Alcotest.test_case "clobbered cmp" `Quick test_lint_clobbered_cmp;
          Alcotest.test_case "redundant cmp" `Quick test_lint_redundant_cmp;
          Alcotest.test_case "uninit scratch" `Quick test_lint_uninit_scratch;
          Alcotest.test_case "not sorting" `Quick test_lint_not_sorting;
          Alcotest.test_case "json" `Quick test_lint_json;
        ] );
      ( "absint",
        [
          Alcotest.test_case "sort2 reachable sets" `Quick test_absint_sort2;
          Alcotest.test_case "rejects non-sorting" `Quick
            test_absint_rejects_non_sorting;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes padding" `Quick test_dce_removes_padding;
          Alcotest.test_case "alternating cascade" `Quick test_dce_cascade;
          Alcotest.test_case "empty + non-sorting" `Quick
            test_dce_empty_and_non_sorting;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "optimal n=3 kernels lint-clean" `Slow
            test_optimal_kernels_lint_clean;
        ] );
      ( "properties",
        [ qtest prop_certifier_equivalence; qtest prop_dce_preserves_behavior ] );
    ]
