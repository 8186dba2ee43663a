let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let cfg = Isa.Config.default 3
let d3 = Distance.compute cfg

let test_sorted_is_zero () =
  List.iter
    (fun scratch ->
      let c = Machine.Assign.of_values cfg [| 1; 2; 3; scratch |] in
      check Alcotest.int "dist 0" 0 (Distance.dist d3 c))
    [ 0; 1; 2; 3 ]

let test_known_distances () =
  (* One transposition away, fixable by a 3-instruction swap via scratch. *)
  let c = Machine.Assign.of_permutation cfg [| 2; 1; 3 |] in
  check Alcotest.int "swap needs 3" 3 (Distance.dist d3 c);
  (* A 3-cycle needs 4 moves through the scratch register. *)
  let c = Machine.Assign.of_permutation cfg [| 3; 1; 2 |] in
  check Alcotest.int "3-cycle" 4 (Distance.dist d3 c)

let test_dead_assignment_infinite () =
  let c = Machine.Assign.of_values cfg [| 2; 2; 3; 3 |] in
  (* 1 erased — reachable (e.g. via mov) and unsortable. *)
  check Alcotest.int "infinite" Distance.infinity (Distance.dist d3 c)

let test_initial_lower_bound () =
  let lb = Distance.state_lower_bound d3 (Sstate.initial cfg) in
  check Alcotest.int "initial lb" 4 lb;
  (* Admissibility anchor: the optimal kernel for n=3 has 11 instructions,
     so any lower bound must be <= 11. *)
  assert (lb <= 11)

let test_max_finite () =
  assert (Distance.max_finite_dist d3 >= 4);
  assert (Distance.max_finite_dist d3 <= 11)

let test_optimal_actions_nonempty () =
  let instrs = Isa.Instr.all cfg in
  let marks = Distance.optimal_actions d3 instrs (Sstate.initial cfg) in
  assert (Array.exists Fun.id marks);
  (* All comparisons must be admitted (see interface note). *)
  Array.iteri
    (fun k i -> if i.Isa.Instr.op = Isa.Instr.Cmp then assert marks.(k))
    instrs

(* Admissibility: for random reachable assignments, greedily following
   dist-decreasing instructions reaches sorted in exactly [dist] steps. *)
let prop_dist_realizable =
  let instrs = Isa.Instr.all cfg in
  QCheck.Test.make ~name:"distance realizable by greedy descent" ~count:200
    QCheck.(pair (int_bound 100000) (int_range 0 6))
    (fun (seed, len) ->
      let st = Random.State.make [| seed |] in
      let perm = Perms.random st 3 in
      let c0 = Machine.Assign.of_permutation cfg perm in
      let c =
        ref
          (Array.fold_left
             (fun c _ ->
               Machine.Assign.apply cfg
                 instrs.(Random.State.int st (Array.length instrs))
                 c)
             c0
             (Array.make len ()))
      in
      let d = Distance.dist d3 !c in
      if d >= Distance.infinity then true
      else begin
        let steps = ref 0 in
        while not (Machine.Assign.is_sorted cfg !c) do
          let found = ref false in
          Array.iter
            (fun i ->
              if not !found then
                let c' = Machine.Assign.apply cfg i !c in
                if Distance.dist d3 c' = Distance.dist d3 !c - 1 then begin
                  c := c';
                  found := true
                end)
            instrs;
          if not !found then failwith "stuck";
          incr steps
        done;
        !steps = d
      end)

(* Consistency: one instruction changes the distance by at most 1 upward
   never more than... formally dist(c) <= dist(apply i c) + 1. *)
let prop_dist_triangle =
  let instrs = Isa.Instr.all cfg in
  QCheck.Test.make ~name:"dist(c) <= dist(succ) + 1" ~count:300
    QCheck.(pair (int_bound 100000) (int_bound (Array.length instrs - 1)))
    (fun (seed, k) ->
      let st = Random.State.make [| seed |] in
      let c0 = Machine.Assign.of_permutation cfg (Perms.random st 3) in
      let c =
        Array.fold_left
          (fun c _ ->
            Machine.Assign.apply cfg
              instrs.(Random.State.int st (Array.length instrs))
              c)
          c0
          (Array.make (Random.State.int st 6) ())
      in
      let c' = Machine.Assign.apply cfg instrs.(k) c in
      let d = Distance.dist d3 c and d' = Distance.dist d3 c' in
      d' >= Distance.infinity || d <= d' + 1)

let test_cached_shares () =
  let a = Distance.compute_cached (Isa.Config.default 2) in
  let b = Distance.compute_cached (Isa.Config.default 2) in
  assert (a == b)

(* Concurrent first calls on a configuration nobody has asked for yet must
   all receive the one table the cache keeps. *)
let test_cached_domain_safe () =
  let cfg32 = Isa.Config.make ~n:3 ~m:2 in
  let ds =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Distance.compute_cached cfg32))
  in
  match List.map Domain.join ds with
  | [] -> assert false
  | t :: rest -> List.iter (fun t' -> assert (t' == t)) rest

(* The reference oracle: the plain backward rounds over every reachable
   code and every instruction, kept verbatim from the original table
   builder. Returns the raw table (-2 unreachable, -1 dead). *)
module Ref = struct
  let reachable_codes cfg instrs =
    let seen = Bytes.make (Machine.Assign.max_code cfg) '\000' in
    let stack = ref [] in
    let push c =
      if Bytes.get seen c = '\000' then begin
        Bytes.set seen c '\001';
        stack := c :: !stack
      end
    in
    List.iter
      (fun p -> push (Machine.Assign.of_permutation cfg p))
      (Perms.all cfg.Isa.Config.n);
    let acc = ref [] in
    let rec loop () =
      match !stack with
      | [] -> ()
      | c :: rest ->
          stack := rest;
          acc := c :: !acc;
          Array.iter (fun i -> push (Machine.Assign.apply cfg i c)) instrs;
          loop ()
    in
    loop ();
    Array.of_list !acc

  let table cfg =
    let instrs = Isa.Instr.all cfg in
    let reachable = reachable_codes cfg instrs in
    let table = Array.make (Machine.Assign.max_code cfg) (-2) in
    Array.iter
      (fun c -> table.(c) <- (if Machine.Assign.is_sorted cfg c then 0 else -1))
      reachable;
    let max_finite = ref 0 in
    let progress = ref true in
    let round = ref 0 in
    while !progress do
      incr round;
      progress := false;
      Array.iter
        (fun c ->
          if table.(c) = -1 then
            let best = ref max_int in
            Array.iter
              (fun i ->
                let d = table.(Machine.Assign.apply cfg i c) in
                if d >= 0 && d < !best then best := d)
              instrs;
            if !best = !round - 1 then begin
              table.(c) <- !round;
              max_finite := !round;
              progress := true
            end)
        reachable
    done;
    (table, Array.length reachable, !max_finite)
end

let oracle_configs =
  List.concat_map
    (fun n -> List.map (fun m -> Isa.Config.make ~n ~m) [ 0; 1; 2 ])
    [ 2; 3; 4 ]

let oracle_tables = lazy (List.map (fun c -> (c, Distance.compute c)) oracle_configs)

let test_matches_reference () =
  List.iter
    (fun (c, t) ->
      let name = Format.asprintf "%a" Isa.Config.pp c in
      let table, reachable, max_finite = Ref.table c in
      check Alcotest.int (name ^ " reachable") reachable
        (Distance.reachable_count t);
      check Alcotest.int (name ^ " radius") max_finite
        (Distance.max_finite_dist t);
      Array.iteri
        (fun code d ->
          match Distance.dist t code with
          | got ->
              let want = if d = -1 then Distance.infinity else d in
              if got <> want then
                Alcotest.failf "%s code %d: dist %d, reference %d" name code
                  got want
          | exception Invalid_argument _ ->
              if d <> -2 then
                Alcotest.failf "%s code %d: rejected, reference %d" name code
                  d)
        table)
    (Lazy.force oracle_tables)

(* The invariant behind vetting a [cmp] successor with its parent's bound:
   a [cmp] rewrites only the flags, and a code's distance does not depend
   on them, so every [cmp] maps every reachable code to a reachable code at
   the same distance. *)
let check_cmp_keeps_distance (c, t) =
  let name = Format.asprintf "%a" Isa.Config.pp c in
  let cmps =
    List.filter
      (fun i -> i.Isa.Instr.op = Isa.Instr.Cmp)
      (Array.to_list (Isa.Instr.all c))
  in
  for code = 0 to Machine.Assign.max_code c - 1 do
    match Distance.dist t code with
    | exception Invalid_argument _ -> ()
    | d ->
        List.iter
          (fun i ->
            let code' = Machine.Assign.apply c i code in
            match Distance.dist t code' with
            | d' when d' = d -> ()
            | d' ->
                Alcotest.failf "%s: %s moves code %d (dist %d) to dist %d" name
                  (Isa.Instr.to_string c i) code d d'
            | exception Invalid_argument _ ->
                Alcotest.failf "%s: %s takes reachable code %d off the table"
                  name (Isa.Instr.to_string c i) code)
          cmps
  done

let test_cmp_keeps_distance () =
  List.iter check_cmp_keeps_distance
    (List.map
       (fun m ->
         let c = Isa.Config.make ~n:1 ~m in
         (c, Distance.compute c))
       [ 0; 1; 2 ]
    @ Lazy.force oracle_tables)

let test_cmp_keeps_distance_n5 () =
  let c = Isa.Config.make ~n:5 ~m:1 in
  check_cmp_keeps_distance (c, Distance.compute_cached c)

let test_pinned_sizes () =
  List.iter
    (fun (n, reachable, radius) ->
      let t = Distance.compute (Isa.Config.make ~n ~m:1) in
      check Alcotest.int "reachable" reachable (Distance.reachable_count t);
      check Alcotest.int "radius" radius (Distance.max_finite_dist t))
    [ (4, 9_086, 6); (5, 138_167, 7) ]

(* The table's certificate: [d x = 0] on every sorted reachable code, and
   [d x <= 1 + d (i x)] for every reachable code [x] and every instruction
   [i], a dead code counting as infinite. Along any sorting sequence [d]
   then falls by at most 1 per step and ends at 0, so it never
   overestimates (the bound is admissible) and a code it calls dead
   cannot be sorted. The no-viable-dead fact is checked against a direct
   scan. Returns the first violation. *)
let certificate_violation cfg ~dist ~no_viable_dead =
  let instrs = Isa.Instr.all cfg in
  let reachable = Ref.reachable_codes cfg instrs in
  let inf = Distance.infinity in
  let bad = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt
  in
  Array.iter
    (fun c ->
      let d = dist c in
      if Machine.Assign.is_sorted cfg c && d <> 0 then
        fail "sorted code %d at distance %d" c d;
      Array.iter
        (fun i ->
          let d' = dist (Machine.Assign.apply cfg i c) in
          if d' < inf && d > d' + 1 then
            fail "code %d at %d, %s leads to %d" c d
              (Isa.Instr.to_string cfg i) d')
        instrs)
    reachable;
  let scan =
    Array.for_all
      (fun c -> (not (Machine.Assign.viable cfg c)) || dist c < inf)
      reachable
  in
  if scan <> no_viable_dead then
    fail "no_viable_dead says %b, the scan %b" no_viable_dead scan;
  !bad

let certificate_tables () =
  List.map
    (fun n ->
      let c = Isa.Config.make ~n ~m:1 in
      (c, Distance.compute_cached c))
    [ 1; 5 ]
  @ List.map
      (fun m ->
        let c = Isa.Config.make ~n:1 ~m in
        (c, Distance.compute c))
      [ 0; 2 ]
  @ Lazy.force oracle_tables

let test_certificate () =
  List.iter
    (fun (c, t) ->
      let name = Format.asprintf "%a" Isa.Config.pp c in
      (match
         certificate_violation c ~dist:(Distance.dist t)
           ~no_viable_dead:(Distance.no_viable_dead t)
       with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" name m);
      (* m = 0 leaves no room to swap: every unsorted permutation is a
         viable dead code once n >= 2. *)
      check Alcotest.bool (name ^ " no viable dead code")
        (c.Isa.Config.m > 0 || c.Isa.Config.n < 2)
        (Distance.no_viable_dead t))
    (certificate_tables ())

(* Raising one entry by 1 — a code one step from sorted, or a sorted
   code — breaks the certificate. *)
let test_certificate_catches_raise () =
  let t = d3 in
  let reachable = Ref.reachable_codes cfg (Isa.Instr.all cfg) in
  let pick p =
    match List.find_opt p (Array.to_list reachable) with
    | Some c -> c
    | None -> Alcotest.fail "no such code"
  in
  List.iter
    (fun victim ->
      let dist c = Distance.dist t c + if c = victim then 1 else 0 in
      match
        certificate_violation cfg ~dist
          ~no_viable_dead:(Distance.no_viable_dead t)
      with
      | Some _ -> ()
      | None -> Alcotest.failf "raising code %d went unnoticed" victim)
    [
      pick (fun c -> Distance.dist t c = 1);
      pick (fun c -> Distance.dist t c = Distance.max_finite_dist t);
      pick (Machine.Assign.is_sorted cfg);
    ]

(* The mask-based action filter agrees with its definition — comparisons,
   plus every instruction optimal for some assignment — on random-walk
   states, for a shuffled subset of the instruction set (so a mask read by
   array position instead of by instruction fails). *)
let prop_optimal_actions_definition =
  QCheck.Test.make ~name:"optimal_actions = cmp or some optimal code"
    ~count:300
    QCheck.(pair (int_bound (List.length oracle_configs - 1)) (int_bound 1_000_000))
    (fun (k, seed) ->
      let c, t = List.nth (Lazy.force oracle_tables) k in
      let st = Random.State.make [| seed |] in
      let all = Isa.Instr.all c in
      let s = ref (Sstate.initial c) in
      for _ = 1 to Random.State.int st 12 do
        s := Sstate.apply c all.(Random.State.int st (Array.length all)) !s
      done;
      let shuffled = Array.copy all in
      for i = Array.length shuffled - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- x
      done;
      let instrs =
        Array.sub shuffled 0 (1 + Random.State.int st (Array.length shuffled))
      in
      let marks = Distance.optimal_actions t instrs !s in
      let codes = Sstate.codes !s in
      Array.for_all2
        (fun i mark ->
          mark
          = (i.Isa.Instr.op = Isa.Instr.Cmp
            || Array.exists (Distance.is_optimal_action t i) codes))
        instrs marks)

let test_reachable_counts () =
  assert (Distance.reachable_count d3 > 6);
  let d2 = Distance.compute (Isa.Config.default 2) in
  assert (Distance.reachable_count d2 > 2);
  check Alcotest.int "n=2 radius" 3 (Distance.max_finite_dist d2)

let () =
  Alcotest.run "distance"
    [
      ( "unit",
        [
          Alcotest.test_case "sorted = 0" `Quick test_sorted_is_zero;
          Alcotest.test_case "known distances" `Quick test_known_distances;
          Alcotest.test_case "dead = infinity" `Quick test_dead_assignment_infinite;
          Alcotest.test_case "initial lower bound" `Quick test_initial_lower_bound;
          Alcotest.test_case "max finite" `Quick test_max_finite;
          Alcotest.test_case "optimal actions" `Quick test_optimal_actions_nonempty;
          Alcotest.test_case "cache" `Quick test_cached_shares;
          Alcotest.test_case "reachable counts" `Quick test_reachable_counts;
          Alcotest.test_case "cache domain-safe" `Quick test_cached_domain_safe;
          Alcotest.test_case "matches reference rounds" `Quick
            test_matches_reference;
          Alcotest.test_case "pinned n=4/n=5 sizes" `Quick test_pinned_sizes;
          Alcotest.test_case "table certificate" `Quick test_certificate;
          Alcotest.test_case "certificate catches a raised entry" `Quick
            test_certificate_catches_raise;
          Alcotest.test_case "cmp keeps distance, n<=4" `Quick
            test_cmp_keeps_distance;
          Alcotest.test_case "cmp keeps distance, n=5" `Slow
            test_cmp_keeps_distance_n5;
        ] );
      ( "properties",
        [
          qtest prop_dist_realizable;
          qtest prop_dist_triangle;
          qtest prop_optimal_actions_definition;
        ] );
    ]
