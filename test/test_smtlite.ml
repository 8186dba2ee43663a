let check = Alcotest.check

let get_found (r : _ Smtlite.result) =
  match r.Smtlite.outcome with
  | Smtlite.Found p -> p
  | Smtlite.Unsat_length -> Alcotest.fail "unexpected UNSAT"
  | Smtlite.Budget_exhausted -> Alcotest.fail "unexpected budget exhaustion"

let test_perm_n2_finds_4 () =
  let p = get_found (Smtlite.synth_perm Smtlite.cmov ~len:4 2) in
  check Alcotest.int "length" 4 (Array.length p);
  assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)

let test_perm_n2_len3_unsat () =
  match (Smtlite.synth_perm Smtlite.cmov ~len:3 2).Smtlite.outcome with
  | Smtlite.Unsat_length -> ()
  | _ -> Alcotest.fail "length 3 should be UNSAT"

let test_perm_n1_len0 () =
  (* Width 1 is already sorted: the empty program works. *)
  let p = get_found (Smtlite.synth_perm Smtlite.cmov ~len:0 1) in
  check Alcotest.int "empty" 0 (Array.length p)

let test_cegis_n2 () =
  let r = Smtlite.synth_cegis Smtlite.cmov ~len:4 2 in
  let p = get_found r in
  assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p);
  (* CEGIS should need at most n! = 2 encoded inputs. *)
  assert (r.Smtlite.encoded_inputs <= 2)

let test_cegis_ascending_goal () =
  let p =
    get_found
      (Smtlite.synth_cegis ~goal:Smtlite.Goal_ascending_present Smtlite.cmov
         ~len:4 2)
  in
  assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)

let test_no_heuristics_still_works () =
  let p =
    get_found
      (Smtlite.synth_perm ~heuristics:Smtlite.no_heuristics Smtlite.cmov
         ~len:4 2)
  in
  assert (Machine.Exec.sorts_all_permutations (Isa.Config.default 2) p)

let test_budget_exhaustion_reported () =
  match
    (Smtlite.synth_cegis ~conflict_limit:5 Smtlite.cmov ~len:11 3)
      .Smtlite.outcome
  with
  | Smtlite.Budget_exhausted -> ()
  | Smtlite.Found _ -> Alcotest.fail "cannot find n=3 in 5 conflicts"
  | Smtlite.Unsat_length -> Alcotest.fail "cannot refute n=3 in 5 conflicts"

let test_find_min_length_n2 () =
  let results =
    Smtlite.find_min_length ~strategy:`Cegis ~max_len:6 Smtlite.cmov 2
  in
  (* Lengths 1..3 UNSAT, length 4 found. *)
  check Alcotest.int "probed lengths" 4 (List.length results);
  (match List.rev results with
  | (4, { Smtlite.outcome = Smtlite.Found _; _ }) :: _ -> ()
  | _ -> Alcotest.fail "expected success at length 4");
  List.iter
    (fun (len, r) ->
      if len < 4 then
        match r.Smtlite.outcome with
        | Smtlite.Unsat_length -> ()
        | _ -> Alcotest.failf "length %d should be UNSAT" len)
    results

let test_first_is_cmp_heuristic () =
  let h = { Smtlite.default_heuristics with Smtlite.first_is_cmp = true } in
  let p = get_found (Smtlite.synth_perm ~heuristics:h Smtlite.cmov ~len:4 2) in
  assert (p.(0).Isa.Instr.op = Isa.Instr.Cmp)

let () =
  Alcotest.run "smtlite"
    [
      ( "synthesis",
        [
          Alcotest.test_case "SMT-PERM n=2 finds length 4" `Quick test_perm_n2_finds_4;
          Alcotest.test_case "SMT-PERM n=2 length 3 UNSAT" `Quick test_perm_n2_len3_unsat;
          Alcotest.test_case "n=1 length 0" `Quick test_perm_n1_len0;
          Alcotest.test_case "SMT-CEGIS n=2" `Quick test_cegis_n2;
          Alcotest.test_case "ascending goal" `Quick test_cegis_ascending_goal;
          Alcotest.test_case "no heuristics" `Quick test_no_heuristics_still_works;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion_reported;
          Alcotest.test_case "find_min_length" `Slow test_find_min_length_n2;
          Alcotest.test_case "first-is-cmp skeleton" `Quick test_first_is_cmp_heuristic;
        ] );
    ]
