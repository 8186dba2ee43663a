let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let get n =
  match Sygus.synthesize n with
  | Some r -> r
  | None -> Alcotest.failf "SyGuS failed for n=%d" n

let test_n2_expressions () =
  let r = get 2 in
  check Alcotest.int "out1 is one min" 1 (Sygus.size r.Sygus.outputs.(0));
  check Alcotest.int "out2 is one max" 1 (Sygus.size r.Sygus.outputs.(1))

let test_n3_median_size () =
  (* The median of three needs at least 4 min/max operators; enumerative
     SyGuS with observational dedup finds a size-4 formula. *)
  let r = get 3 in
  check Alcotest.int "min chain" 2 (Sygus.size r.Sygus.outputs.(0));
  check Alcotest.int "median" 4 (Sygus.size r.Sygus.outputs.(1));
  check Alcotest.int "max chain" 2 (Sygus.size r.Sygus.outputs.(2))

let test_outputs_compute_order_statistics () =
  List.iter
    (fun n ->
      let r = get n in
      let st = Random.State.make [| 31 * n |] in
      for _ = 1 to 200 do
        let a = Array.init n (fun _ -> Random.State.int st 1000 - 500) in
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Array.iteri
          (fun k e ->
            if Sygus.eval e a <> sorted.(k) then
              Alcotest.failf "output %d wrong for n=%d" k n)
          r.Sygus.outputs
      done)
    [ 2; 3; 4 ]

let test_budget_exhaustion () =
  (* A size budget of 1 cannot express the n=3 median. *)
  match Sygus.synthesize ~max_size:1 3 with
  | None -> ()
  | Some _ -> Alcotest.fail "size-1 budget cannot suffice for n=3"

let test_lower_n2 () =
  let r = get 2 in
  match Sygus.lower (Isa.Config.default 2) r with
  | Some p ->
      assert (Minmax.Vexec.sorts_all_permutations (Isa.Config.default 2) p);
      (* Lowered SyGuS code is strictly longer than the optimal kernel. *)
      let opt = Option.get (Minmax.synthesize 2).Search.optimal_length in
      assert (Array.length p > opt)
  | None -> Alcotest.fail "n=2 lowering should fit"

let test_lower_n3_register_pressure () =
  (* With a single scratch register the three order-statistic expressions
     cannot be scheduled — the machine-level wall the paper's SyGuS hits. *)
  match Sygus.lower (Isa.Config.default 3) (get 3) with
  | None -> ()
  | Some _ -> Alcotest.fail "n=3 lowering should spill with m=1"

let test_lower_n3_even_more_scratch_spills () =
  (* Even three scratch registers do not rescue the naive tree scheduler:
     the median tree needs two simultaneously live temporaries on top of
     the two parked outputs. Turning the SyGuS expressions into compact
     code needs exactly the machine-level reasoning (operand ordering,
     result reuse, destructive updates) that the enumerative kernel search
     performs and functional synthesis cannot see. *)
  let cfg = Isa.Config.make ~n:3 ~m:3 in
  match Sygus.lower cfg (get 3) with
  | None -> ()
  | Some p ->
      (* If a future smarter scheduler makes it fit, it must be correct and
         still longer than the optimal kernel. *)
      assert (Minmax.Vexec.sorts_all_permutations cfg p);
      assert (Array.length p > 8)

let test_unbounded_lowering_counts () =
  let r = get 3 in
  (* 2 + 4 + 2 operators + 3 root copies. *)
  check Alcotest.int "unbounded" 11 (Sygus.lower_unbounded r)

let test_to_string () =
  check Alcotest.string "pretty" "min(a1, max(a2, a3))"
    (Sygus.to_string (Sygus.Min (Sygus.Input 0, Sygus.Max (Sygus.Input 1, Sygus.Input 2))))

let prop_eval_monotone =
  (* min/max expressions are monotone: raising any input never lowers the
     output. *)
  QCheck.Test.make ~name:"expressions are monotone" ~count:300
    QCheck.(pair (int_bound 100000) (int_bound 2))
    (fun (seed, idx) ->
      let r = get 3 in
      let st = Random.State.make [| seed |] in
      let a = Array.init 3 (fun _ -> Random.State.int st 100) in
      let b = Array.copy a in
      b.(idx) <- b.(idx) + 1 + Random.State.int st 10;
      Array.for_all
        (fun e -> Sygus.eval e b >= Sygus.eval e a)
        r.Sygus.outputs)

let () =
  Alcotest.run "sygus"
    [
      ( "unit",
        [
          Alcotest.test_case "n=2 expressions" `Quick test_n2_expressions;
          Alcotest.test_case "n=3 median size" `Quick test_n3_median_size;
          Alcotest.test_case "order statistics" `Quick
            test_outputs_compute_order_statistics;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "lower n=2" `Quick test_lower_n2;
          Alcotest.test_case "lower n=3 spills" `Quick
            test_lower_n3_register_pressure;
          Alcotest.test_case "lower n=3, m=3 still spills" `Quick
            test_lower_n3_even_more_scratch_spills;
          Alcotest.test_case "unbounded count" `Quick test_unbounded_lowering_counts;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ("properties", [ qtest prop_eval_monotone ]);
    ]
