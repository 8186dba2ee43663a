let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let cfg = Isa.Config.default 3

let test_initial () =
  let s = Sstate.initial cfg in
  check Alcotest.int "6 distinct assignments" 6 (Sstate.size s);
  check Alcotest.int "6 distinct perms" 6 (Sstate.distinct_perms cfg s);
  assert (Sstate.all_viable cfg s);
  assert (not (Sstate.is_final cfg s))

let test_canonical_sorted_dedup () =
  let c1 = Machine.Assign.of_values cfg [| 1; 2; 3; 0 |] in
  let c2 = Machine.Assign.of_values cfg [| 3; 2; 1; 0 |] in
  let s = Sstate.of_codes [| c2; c1; c2; c1; c2 |] in
  check Alcotest.int "deduplicated" 2 (Sstate.size s);
  let arr = Sstate.codes s in
  assert (arr.(0) < arr.(1))

let test_of_codes_does_not_mutate () =
  let input = [| 5; 3; 3; 1 |] in
  let copy = Array.copy input in
  ignore (Sstate.of_codes input);
  check (Alcotest.array Alcotest.int) "input untouched" copy input

let test_apply_converges () =
  (* cmp r1 r2; cmovl ... on n=2: the two permutations converge. *)
  let cfg2 = Isa.Config.default 2 in
  let s = Sstate.initial cfg2 in
  check Alcotest.int "initially 2 perms" 2 (Sstate.distinct_perms cfg2 s);
  let s = Sstate.apply cfg2 (Isa.Instr.mov 2 1) s in
  let s = Sstate.apply cfg2 (Isa.Instr.cmp 0 1) s in
  let s = Sstate.apply cfg2 (Isa.Instr.cmovg 1 0) s in
  let s = Sstate.apply cfg2 (Isa.Instr.cmovg 0 2) s in
  assert (Sstate.is_final cfg2 s);
  check Alcotest.int "converged to 1 perm" 1 (Sstate.distinct_perms cfg2 s)

let test_distinct_perms_vs_assignments () =
  (* Two codes equal on value registers but different scratch. *)
  let c1 = Machine.Assign.of_values cfg [| 1; 2; 3; 0 |] in
  let c2 = Machine.Assign.of_values cfg [| 1; 2; 3; 2 |] in
  let s = Sstate.of_codes [| c1; c2 |] in
  check Alcotest.int "2 assignments" 2 (Sstate.distinct_assignments s);
  check Alcotest.int "1 perm" 1 (Sstate.distinct_perms cfg s)

let test_viability_state () =
  let dead = Machine.Assign.of_values cfg [| 1; 1; 3; 3 |] in
  let ok = Machine.Assign.of_values cfg [| 1; 2; 3; 0 |] in
  assert (not (Sstate.all_viable cfg (Sstate.of_codes [| ok; dead |])))

let test_hash_equal_consistency () =
  let s1 = Sstate.initial cfg in
  let s2 = Sstate.of_codes (Array.copy (Sstate.codes s1 :> int array)) in
  assert (Sstate.equal s1 s2);
  check Alcotest.int "hash agrees" (Sstate.hash s1) (Sstate.hash s2)

let test_tbl () =
  let tbl = Sstate.Tbl.create 4 in
  Sstate.Tbl.replace tbl (Sstate.initial cfg) 42;
  check (Alcotest.option Alcotest.int) "lookup" (Some 42)
    (Sstate.Tbl.find_opt tbl (Sstate.initial cfg))

(* Canonicalization is execution-order congruent: applying an instruction
   commutes with canonicalization. *)
let prop_apply_congruent =
  let instrs = Isa.Instr.all cfg in
  QCheck.Test.make ~name:"apply commutes with canonicalization" ~count:300
    QCheck.(pair (int_bound 100000) (int_bound (Array.length instrs - 1)))
    (fun (seed, k) ->
      let st = Random.State.make [| seed |] in
      (* Random multiset of assignments. *)
      let codes =
        Array.init
          (1 + Random.State.int st 10)
          (fun _ ->
            Machine.Assign.of_values cfg
              (Array.init 4 (fun _ -> Random.State.int st 4)))
      in
      let i = instrs.(k) in
      let via_state = Sstate.apply cfg i (Sstate.of_codes codes) in
      let via_codes =
        Sstate.of_codes (Array.map (Machine.Assign.apply cfg i) codes)
      in
      Sstate.equal via_state via_codes)

(* ------------------------------------------------------------------ *)
(* Observational equivalence of the packed representation against a
   straightforward reference model: a sorted, deduplicated code list with
   every derived fact recomputed from scratch (the pre-packed
   semantics). *)

module Ref = struct
  let canon codes = List.sort_uniq compare (Array.to_list codes)
  let apply cfg i codes = List.map (Machine.Assign.apply cfg i) codes
  let is_final cfg codes = List.for_all (Machine.Assign.is_sorted cfg) codes
  let all_viable cfg codes = List.for_all (Machine.Assign.viable cfg) codes

  let distinct_perms cfg codes =
    List.length
      (List.sort_uniq compare (List.map (Machine.Assign.perm_key cfg) codes))
end

let random_codes cfgn st =
  let nregs = Isa.Config.nregs cfgn in
  Array.init
    (1 + Random.State.int st 12)
    (fun _ ->
      Machine.Assign.of_values cfgn
        (Array.init nregs (fun _ -> Random.State.int st (cfgn.Isa.Config.n + 1))))

let random_instr_seq cfgn st =
  let instrs = Isa.Instr.all cfgn in
  List.init
    (Random.State.int st 7)
    (fun _ -> instrs.(Random.State.int st (Array.length instrs)))

(* Packed states agree with the reference model on every observable, for
   random code multisets driven through random instruction sequences at
   n = 2..5. *)
let prop_packed_equals_reference =
  QCheck.Test.make ~name:"packed state tracks reference model" ~count:200
    QCheck.(pair (int_range 2 5) (int_bound 1000000))
    (fun (n, seed) ->
      let cfgn = Isa.Config.default n in
      let st = Random.State.make [| seed |] in
      let codes = random_codes cfgn st in
      let s = ref (Sstate.of_codes codes) in
      let r = ref (Ref.canon codes) in
      let agree () =
        let cs = Array.to_list (Sstate.codes !s) in
        cs = !r
        && Sstate.size !s = List.length !r
        && Sstate.is_final cfgn !s = Ref.is_final cfgn !r
        && Sstate.all_viable cfgn !s = Ref.all_viable cfgn !r
        && Sstate.distinct_perms cfgn !s = Ref.distinct_perms cfgn !r
        (* Hash is canonical: rebuilding from the emitted codes gives an
           equal state with an equal hash. *)
        && Sstate.equal !s (Sstate.of_codes (Sstate.codes !s))
        && Sstate.hash !s = Sstate.hash (Sstate.of_codes (Sstate.codes !s))
      in
      List.for_all
        (fun i ->
          s := Sstate.apply cfgn i !s;
          r := Ref.canon (Array.of_list (Ref.apply cfgn i !r));
          agree ())
        (random_instr_seq cfgn st)
      && agree ())

(* The arena probe/commit fast path is observationally identical to the
   plain [apply] path: same canonical state, and the fused-pass caches
   (pc / final / viable) match the recomputed facts. *)
let prop_arena_probe_matches_apply =
  QCheck.Test.make ~name:"arena probe/commit equals apply" ~count:200
    QCheck.(triple (int_range 2 5) (int_range 0 2) (int_bound 1000000))
    (fun (n, m, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let arena = Sstate.Arena.create cfgn in
      let instrs = Isa.Instr.all cfgn in
      (* Walk a random path from the initial state so arena inputs are
         realistic (sorted slices of arbitrary length). *)
      let s = ref (Sstate.initial cfgn) in
      let steps = 1 + Random.State.int st 8 in
      let ok = ref true in
      for _ = 1 to steps do
        let i = instrs.(Random.State.int st (Array.length instrs)) in
        let via_apply = Sstate.apply cfgn i !s in
        (match Sstate.Arena.probe arena i !s with
        | Sstate.Arena.Unchanged ->
            if not (Sstate.equal via_apply !s) then ok := false
        | Sstate.Arena.Changed ->
            if Sstate.Arena.probe_size arena <> Sstate.size via_apply then
              ok := false;
            if
              Sstate.Arena.probe_distinct_perms arena
              <> Sstate.distinct_perms cfgn via_apply
            then ok := false;
            if Sstate.Arena.probe_is_final arena <> Sstate.is_final cfgn via_apply
            then ok := false;
            if
              Sstate.Arena.probe_all_viable arena
              <> Sstate.all_viable cfgn via_apply
            then ok := false;
            let committed = Sstate.Arena.commit arena in
            if not (Sstate.equal committed via_apply) then ok := false;
            if Sstate.hash committed <> Sstate.hash via_apply then ok := false;
            if Sstate.compare committed via_apply <> 0 then ok := false);
        s := via_apply
      done;
      !ok)

(* The whole-array instruction map agrees with the per-code [apply] for
   every opcode, on codes with random flags and repeated values (so [cmp]
   also meets equal operands), and writes only the requested range. *)
let prop_map_sub_matches_apply =
  QCheck.Test.make ~name:"Assign.map_sub equals Array.map apply" ~count:300
    QCheck.(triple (int_range 2 5) (int_range 0 2) (int_bound 1000000))
    (fun (n, m, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let codes =
        Array.map
          (fun c -> c lor Random.State.int st 3)
          (random_codes cfgn st)
      in
      let len = Array.length codes in
      Array.for_all
        (fun i ->
          let dst = Array.make (len + 2) (-1) in
          Machine.Assign.map_sub cfgn i codes 0 dst 1 len;
          dst.(0) = -1
          && dst.(len + 1) = -1
          && Array.sub dst 1 len = Array.map (Machine.Assign.apply cfgn i) codes)
        (Isa.Instr.all cfgn))

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonicalization idempotent" ~count:300
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let codes =
        Array.init
          (1 + Random.State.int st 12)
          (fun _ ->
            Machine.Assign.of_values cfg
              (Array.init 4 (fun _ -> Random.State.int st 4)))
      in
      let s = Sstate.of_codes codes in
      Sstate.equal s (Sstate.of_codes (Sstate.codes s :> int array)))

let () =
  Alcotest.run "sstate"
    [
      ( "unit",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "canonical form" `Quick test_canonical_sorted_dedup;
          Alcotest.test_case "of_codes pure" `Quick test_of_codes_does_not_mutate;
          Alcotest.test_case "apply converges" `Quick test_apply_converges;
          Alcotest.test_case "perms vs assignments" `Quick
            test_distinct_perms_vs_assignments;
          Alcotest.test_case "viability" `Quick test_viability_state;
          Alcotest.test_case "hash/equal" `Quick test_hash_equal_consistency;
          Alcotest.test_case "Tbl" `Quick test_tbl;
        ] );
      ( "properties",
        [
          qtest prop_apply_congruent;
          qtest prop_canonical_idempotent;
          qtest prop_packed_equals_reference;
          qtest prop_arena_probe_matches_apply;
          qtest prop_map_sub_matches_apply;
        ] );
    ]
