(* Characterization pins for the SMT (Section 4.1) and CP (Section 4.2)
   formulations on both ISAs: outcome, kernel, SAT conflicts, encoded inputs,
   CEGIS iterations (cmov), CP nodes and solution counts. The numbers are
   what the encodings produced when they were pinned; any change to clause
   order, variable order or propagation order moves at least one of them. *)

open Baseline_probe

let smt_cases =
  [
    ( "perm cmov n=2 len=1",
      (fun () -> smt Cmov `Perm ~len:1 2),
      "unsat conflicts=0 inputs=2 iters=1" );
    ( "perm cmov n=2 len=2",
      (fun () -> smt Cmov `Perm ~len:2 2),
      "unsat conflicts=9 inputs=2 iters=1" );
    ( "perm cmov n=2 len=3",
      (fun () -> smt Cmov `Perm ~len:3 2),
      "unsat conflicts=93 inputs=2 iters=1" );
    ( "perm cmov n=2 len=4",
      (fun () -> smt Cmov `Perm ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] conflicts=243 inputs=2 iters=1" );
    ( "cegis cmov n=2 len=1",
      (fun () -> smt Cmov `Cegis ~len:1 2),
      "unsat conflicts=0 inputs=1 iters=1" );
    ( "cegis cmov n=2 len=2",
      (fun () -> smt Cmov `Cegis ~len:2 2),
      "unsat conflicts=9 inputs=1 iters=1" );
    ( "cegis cmov n=2 len=3",
      (fun () -> smt Cmov `Cegis ~len:3 2),
      "unsat conflicts=116 inputs=2 iters=2" );
    ( "cegis cmov n=2 len=4",
      (fun () -> smt Cmov `Cegis ~len:4 2),
      "found len=4 kernel=[mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1] conflicts=123 inputs=2 iters=2" );
    ( "cegis cmov n=2 len=4 ascending goal",
      (fun () -> smt Cmov `Cegis ~variant:Smt_ascending ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r2 s1; cmovl r1 r2; cmovl r2 s1] conflicts=145 inputs=2 iters=2" );
    ( "perm cmov n=2 len=4 no heuristics",
      (fun () -> smt Cmov `Perm ~variant:Smt_no_heuristics ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] conflicts=243 inputs=2 iters=1" );
    ( "perm cmov n=2 len=4 first is cmp",
      (fun () -> smt Cmov `Perm ~variant:Smt_first_cmp ~len:4 2),
      "found len=4 kernel=[cmp r1 r2; cmovg s1 r2; cmovg r2 r1; cmovg r1 s1] conflicts=169 inputs=2 iters=1" );
    ( "cegis cmov n=3 len=11 budget 2000",
      (fun () -> smt Cmov `Cegis ~conflict_limit:2000 ~len:11 3),
      "budget conflicts=2000 inputs=2 iters=2" );
    ( "perm minmax n=2 len=1",
      (fun () -> smt Minmax `Perm ~len:1 2),
      "unsat conflicts=0 inputs=2 iters=-" );
    ( "perm minmax n=2 len=2",
      (fun () -> smt Minmax `Perm ~len:2 2),
      "unsat conflicts=12 inputs=2 iters=-" );
    ( "perm minmax n=2 len=3",
      (fun () -> smt Minmax `Perm ~len:3 2),
      "found len=3 kernel=[pmax t1 x2; pmax x2 x1; pmin x1 t1] conflicts=12 inputs=2 iters=-" );
    ( "cegis minmax n=2 len=1",
      (fun () -> smt Minmax `Cegis ~len:1 2),
      "unsat conflicts=0 inputs=1 iters=-" );
    ( "cegis minmax n=2 len=2",
      (fun () -> smt Minmax `Cegis ~len:2 2),
      "unsat conflicts=12 inputs=1 iters=-" );
    ( "cegis minmax n=2 len=3",
      (fun () -> smt Minmax `Cegis ~len:3 2),
      "found len=3 kernel=[pmax t1 x2; pmax x2 x1; pmin x1 t1] conflicts=10 inputs=1 iters=-" );
    ( "cegis minmax n=3 len=8",
      (fun () -> smt Minmax `Cegis ~len:8 3),
      "found len=8 kernel=[movdqa t1 x2; pmax x2 x1; pmin t1 x1; pmin x1 x3; pmin x1 t1; pmax t1 x3; pmax x3 x2; pmin x2 t1] conflicts=23233 inputs=3 iters=-" );
  ]

let cp_cases =
  [
    ( "cmov n=2 len=1",
      (fun () -> cp Cmov ~len:1 2),
      "exhausted nodes=15 solutions=0" );
    ( "cmov n=2 len=2",
      (fun () -> cp Cmov ~len:2 2),
      "exhausted nodes=264 solutions=0" );
    ( "cmov n=2 len=3",
      (fun () -> cp Cmov ~len:3 2),
      "exhausted nodes=4200 solutions=0" );
    ( "cmov n=2 len=4",
      (fun () -> cp Cmov ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=1334 solutions=1" );
    ( "cmov n=2 len=4 exact goal",
      (fun () -> cp Cmov ~variant:Cp_exact ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=1334 solutions=1" );
    ( "cmov n=2 len=4 no (I)",
      (fun () -> cp Cmov ~variant:Cp_no_i ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=1405 solutions=1" );
    ( "cmov n=2 len=4 no (II)",
      (fun () -> cp Cmov ~variant:Cp_no_ii ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=1644 solutions=1" );
    ( "cmov n=2 len=4 no (I)(II)",
      (fun () -> cp Cmov ~variant:Cp_no_i_ii ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=1846 solutions=1" );
    ( "cmov n=2 len=4 first is cmp",
      (fun () -> cp Cmov ~variant:Cp_first_cmp ~len:4 2),
      "found len=4 kernel=[cmp r1 r2; mov s1 r1; cmovg r1 r2; cmovg r2 s1] nodes=194 solutions=1" );
    ( "cmov n=2 len=4 no erasure",
      (fun () -> cp Cmov ~variant:Cp_no_erasure ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=28946 solutions=1" );
    ( "cmov n=2 len=4 all solutions",
      (fun () -> cp Cmov ~all_solutions:true ~len:4 2),
      "found len=4 kernel=[mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1] nodes=66902 solutions=8" );
    ( "cmov n=3 len=11 limit 20000",
      (fun () -> cp Cmov ~node_limit:20_000 ~len:11 3),
      "node-limit nodes=20001 solutions=0" );
    ( "minmax n=2 len=1",
      (fun () -> cp Minmax ~len:1 2),
      "exhausted nodes=13 solutions=0" );
    ( "minmax n=2 len=2",
      (fun () -> cp Minmax ~len:2 2),
      "exhausted nodes=117 solutions=0" );
    ( "minmax n=2 len=3",
      (fun () -> cp Minmax ~len:3 2),
      "found len=3 kernel=[movdqa t1 x1; pmin x1 x2; pmax x2 t1] nodes=77 solutions=1" );
    ( "minmax n=2 len=3 all solutions",
      (fun () -> cp Minmax ~all_solutions:true ~len:3 2),
      "found len=3 kernel=[movdqa t1 x1; pmin x1 x2; pmax x2 t1] nodes=1161 solutions=4" );
    ( "minmax n=3 len=8 limit 100000",
      (fun () -> cp Minmax ~node_limit:100_000 ~len:8 3),
      "node-limit nodes=100001 solutions=0" );
  ]

let case (name, run, expected) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (run ()))

let () =
  Alcotest.run "baseline_pins"
    [ ("smt", List.map case smt_cases); ("cp", List.map case cp_cases) ]
