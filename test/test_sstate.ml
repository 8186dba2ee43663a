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

(* The probe answers every vetting question without canonicalizing: right
   after [probe] returns [Changed], before any [probe_view], [probe_size]
   or [commit], its count, finality, viability and distance bound are those
   of the canonical successor ([apply]). Canonicalization then happens
   once, lazily: the view and the committed state equal [apply] in codes
   and hash. Runs with and without a distance table attached. *)
let prop_probe_order_free_matches_canonical =
  QCheck.Test.make ~name:"order-free probe answers equal the canonical state's"
    ~count:200
    QCheck.(
      quad (int_range 3 4) (int_range 0 2) bool (int_bound 1000000))
    (fun (n, m, with_table, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let arena = Sstate.Arena.create cfgn in
      let dist = Distance.compute_cached cfgn in
      if with_table then Distance.attach dist arena;
      let instrs = Isa.Instr.all cfgn in
      let s = ref (Sstate.initial cfgn) in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int st 12 do
        let i = instrs.(Random.State.int st (Array.length instrs)) in
        let via_apply = Sstate.apply cfgn i !s in
        (match Sstate.Arena.probe arena i !s with
        | Sstate.Arena.Unchanged ->
            if not (Sstate.equal via_apply !s) then ok := false
        | Sstate.Arena.Changed ->
            let lb =
              if with_table then Distance.state_lower_bound dist via_apply
              else -1
            in
            if
              Sstate.Arena.probe_distinct_perms arena
              <> Sstate.distinct_perms cfgn via_apply
              || Sstate.Arena.probe_is_final arena
                 <> Sstate.is_final cfgn via_apply
              || Sstate.Arena.probe_all_viable arena
                 <> Sstate.all_viable cfgn via_apply
              || Sstate.Arena.probe_lower_bound arena <> lb
            then ok := false;
            if Random.State.bool st then begin
              let v = Sstate.Arena.probe_view arena in
              if
                Sstate.codes v <> Sstate.codes via_apply
                || Sstate.hash v <> Sstate.hash via_apply
              then ok := false
            end;
            let c = Sstate.Arena.commit arena in
            if
              Sstate.codes c <> Sstate.codes via_apply
              || Sstate.hash c <> Sstate.hash via_apply
            then ok := false);
        s := via_apply
      done;
      !ok)

(* A probe with a limit keeps every fact vetting reads before the cut.
   Along a random walk, each step probes one instruction twice — with a
   random limit and without — in two arenas: they agree on viability, the
   distance bound and finality (a stopped probe has counted two distinct
   permutations), and on whether the count exceeds the limit; when it does
   not, they agree on everything, committed state included. An unchanged
   successor's facts are its parent's. *)
let prop_probe_limit_keeps_vetting_facts =
  QCheck.Test.make ~name:"limited probe keeps the vetting facts" ~count:300
    QCheck.(
      quad (int_range 3 4) (int_range 0 2) bool (int_bound 1000000))
    (fun (n, m, with_table, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let dist = Distance.compute_cached cfgn in
      let full = Sstate.Arena.create cfgn and lim = Sstate.Arena.create cfgn in
      if with_table then begin
        Distance.attach dist full;
        Distance.attach dist lim
      end;
      let facts arena s = function
        | Sstate.Arena.Unchanged ->
            ( Sstate.distinct_perms cfgn s,
              Sstate.is_final cfgn s,
              Sstate.all_viable cfgn s,
              if with_table then Distance.state_lower_bound dist s else -1 )
        | Sstate.Arena.Changed ->
            ( Sstate.Arena.probe_distinct_perms arena,
              Sstate.Arena.probe_is_final arena,
              Sstate.Arena.probe_all_viable arena,
              Sstate.Arena.probe_lower_bound arena )
      in
      let instrs = Isa.Instr.all cfgn in
      let s = ref (Sstate.initial cfgn) in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int st 12 do
        let i = instrs.(Random.State.int st (Array.length instrs)) in
        let limit = Random.State.int st (Perms.factorial n + 2) - 1 in
        let o_full = Sstate.Arena.probe full i !s in
        let o_lim = Sstate.Arena.probe ~limit lim i !s in
        let ((pc, final, viable, lb) as f) = facts full !s o_full in
        let ((pc', final', viable', lb') as f') = facts lim !s o_lim in
        if
          viable <> viable' || lb <> lb'
          || pc > limit <> (pc' > limit)
          || final <> final'
        then ok := false;
        if pc <= limit then begin
          if o_full <> o_lim || f <> f' then ok := false
          else if o_full = Sstate.Arena.Changed then begin
            let a = Sstate.Arena.commit full and b = Sstate.Arena.commit lim in
            if Sstate.codes a <> Sstate.codes b || Sstate.hash a <> Sstate.hash b
            then ok := false
          end
        end;
        s := Sstate.apply cfgn i !s
      done;
      !ok)

(* Staging a [cmp] successor from the parent answers as a full probe
   does. Along random walks, every [cmp] of the state reached is staged in
   one arena and probed in another: the unchanged verdict, and for a
   changed successor the view's codes, length and hash and the count,
   finality, viability and distance bound, all agree, and the committed
   state equals [apply]'s. The parent's bound is cached on half the
   steps, so both the cached bound and the table's are read. *)
let prop_stage_cmp_matches_probe =
  QCheck.Test.make ~name:"cmp staging equals probe then view" ~count:200
    QCheck.(triple (int_range 2 5) (int_range 0 2) (int_bound 1000000))
    (fun (n, m, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let staged = Sstate.Arena.create cfgn
      and probed = Sstate.Arena.create cfgn in
      let dist =
        if n <= 4 && Random.State.bool st then begin
          let d = Distance.compute_cached cfgn in
          Distance.attach d staged;
          Distance.attach d probed;
          Some d
        end
        else None
      in
      let instrs = Isa.Instr.all cfgn in
      let cmps =
        List.filter
          (fun i -> i.Isa.Instr.op = Isa.Instr.Cmp)
          (Array.to_list instrs)
      in
      let s = ref (Sstate.initial cfgn) in
      let ok = ref true in
      for _ = 0 to Random.State.int st 12 do
        let parent = !s in
        (match dist with
        | Some d when Random.State.bool st ->
            ignore (Distance.state_lower_bound d parent)
        | _ -> ());
        List.iter
          (fun i ->
            let via_apply = Sstate.apply cfgn i parent in
            match
              ( Sstate.Arena.stage_cmp staged i parent,
                Sstate.Arena.probe probed i parent )
            with
            | Sstate.Arena.Unchanged, Sstate.Arena.Unchanged ->
                if not (Sstate.equal via_apply parent) then ok := false
            | Sstate.Arena.Changed, Sstate.Arena.Changed ->
                let facts a =
                  ( Sstate.Arena.probe_distinct_perms a,
                    Sstate.Arena.probe_is_final a,
                    Sstate.Arena.probe_all_viable a,
                    Sstate.Arena.probe_lower_bound a )
                in
                (* Facts first: the probe computes them before any view. *)
                let f = facts staged and f' = facts probed in
                let v = Sstate.Arena.probe_view staged
                and v' = Sstate.Arena.probe_view probed in
                if
                  f <> f'
                  || Sstate.Arena.probe_size staged
                     <> Sstate.Arena.probe_size probed
                  || Sstate.codes v <> Sstate.codes v'
                  || Sstate.size v <> Sstate.size v'
                  || Sstate.hash v <> Sstate.hash v'
                then ok := false;
                let c = Sstate.Arena.commit staged in
                if
                  not (Sstate.equal c via_apply)
                  || Sstate.hash c <> Sstate.hash via_apply
                  || Sstate.distinct_perms cfgn c
                     <> Sstate.distinct_perms cfgn via_apply
                  || Sstate.is_final cfgn c <> Sstate.is_final cfgn via_apply
                  || Sstate.all_viable cfgn c
                     <> Sstate.all_viable cfgn via_apply
                then ok := false
            | _ -> ok := false)
          cmps;
        let step = instrs.(Random.State.int st (Array.length instrs)) in
        s := Sstate.apply cfgn step parent
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

(* ------------------------------------------------------------------ *)
(* Every cell width against an int-array model. Codes run up to 29 bits
   (n = 6, m = 3), so states whose largest code needs 24 bits or fewer
   and states that need more meet in one property. Each way of making a
   state — [of_codes], [initial], [apply] and an arena [commit] — must
   agree with the model on the codes, [fold], [size], [equal], [compare]
   and [hash]; [equal] and [compare] are also checked across pairs. *)

module Model = struct
  let canon codes = Array.of_list (List.sort_uniq Int.compare (Array.to_list codes))

  (* FNV-1a over the canonical codes, as [Sstate.hash] documents it. *)
  let hash codes =
    Array.fold_left
      (fun h c -> (h lxor c) * 0x100000001b3)
      0x1bf29ce484222325 codes
    land max_int

  (* Length first, then elementwise. *)
  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i = la then 0
        else
          let c = Int.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
end

let sign x = if x < 0 then -1 else if x > 0 then 1 else 0

(* Random codes over every register of [cfgn], with random flags: the
   top register's field reaches bit [2 + 3 * nregs - 1]. *)
let wide_codes cfgn st =
  let nregs = Isa.Config.nregs cfgn in
  Array.init
    (1 + Random.State.int st 16)
    (fun _ ->
      Machine.Assign.of_values cfgn
        (Array.init nregs (fun _ -> Random.State.int st (cfgn.Isa.Config.n + 1)))
      lor Random.State.int st 3)

let agrees_with_model s model =
  Sstate.codes s = model
  && List.rev (Sstate.fold (fun acc c -> c :: acc) [] s) = Array.to_list model
  && Sstate.size s = Array.length model
  && Sstate.hash s = Model.hash model
  && Sstate.equal s (Sstate.of_codes model)
  && Sstate.compare s (Sstate.of_codes model) = 0

let prop_cell_widths_match_model =
  QCheck.Test.make ~name:"every cell width matches the int model" ~count:300
    QCheck.(triple (int_range 2 6) (int_range 0 3) (int_bound 1000000))
    (fun (n, m, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let instrs = Isa.Instr.all cfgn in
      let pick () = instrs.(Random.State.int st (Array.length instrs)) in
      (* (state, model) pairs made every way a state can be made. *)
      let made = ref [] in
      let keep s model = made := (s, model) :: !made in
      for _ = 1 to 3 do
        let codes = wide_codes cfgn st in
        keep (Sstate.of_codes codes) (Model.canon codes)
      done;
      let init = Sstate.initial cfgn in
      let init_model =
        Model.canon
          (Array.of_list
             (List.map (Machine.Assign.of_permutation cfgn) (Perms.all n)))
      in
      keep init init_model;
      let s = ref (Sstate.of_codes (wide_codes cfgn st)) in
      let model = ref (Sstate.codes !s) in
      for _ = 1 to 4 do
        let i = pick () in
        s := Sstate.apply cfgn i !s;
        model := Model.canon (Array.map (Machine.Assign.apply cfgn i) !model);
        keep !s !model
      done;
      let arena = Sstate.Arena.create cfgn in
      let s =
        ref
          (if Random.State.bool st then init
           else Sstate.of_codes (wide_codes cfgn st))
      in
      let model = ref (Sstate.codes !s) in
      for _ = 1 to 6 do
        let i = pick () in
        match Sstate.Arena.probe arena i !s with
        | Sstate.Arena.Unchanged -> ()
        | Sstate.Arena.Changed ->
            if Random.State.bool st then
              ignore (Sstate.Arena.probe_view arena);
            s := Sstate.Arena.commit arena;
            model := Model.canon (Array.map (Machine.Assign.apply cfgn i) !model);
            keep !s !model
      done;
      let made = Array.of_list !made in
      Array.for_all (fun (s, model) -> agrees_with_model s model) made
      && Array.for_all
           (fun (a, ma) ->
             Array.for_all
               (fun (b, mb) ->
                 Sstate.equal a b = (ma = mb)
                 && sign (Sstate.compare a b) = sign (Model.compare ma mb))
               made)
           made)

(* The arena's sole-holder pass (a table at up to 7 registers, computed
   per code above) against [Machine.Assign.sole_holders], its
   definition: all codes, lt codes and gt codes, packed as documented. *)
let prop_sole_holders_match_assign =
  QCheck.Test.make ~name:"arena sole holders = Assign.sole_holders" ~count:300
    QCheck.(triple (int_range 2 6) (int_range 0 3) (int_bound 1000000))
    (fun (n, m, seed) ->
      let cfgn = Isa.Config.make ~n ~m in
      let st = Random.State.make [| seed |] in
      let arena = Sstate.Arena.create cfgn in
      List.for_all
        (fun s ->
          let over flag =
            Sstate.fold
              (fun acc c ->
                if flag < 0 || Machine.Assign.flags c = flag then
                  acc lor Machine.Assign.sole_holders cfgn c
                else acc)
              0 s
          in
          Sstate.Arena.sole_holders arena s
          = over (-1)
            lor (over Machine.Assign.flag_lt lsl 10)
            lor (over Machine.Assign.flag_gt lsl 20))
        [
          Sstate.of_codes (wide_codes cfgn st);
          Sstate.of_codes (wide_codes cfgn st);
          Sstate.initial cfgn;
        ])

(* [Sstate.hash] values, pinned: the level loop's [Sstate.Tbl.fold] order
   (and so every level-engine pin) follows them. *)
let test_hash_pins () =
  List.iter
    (fun (n, want) ->
      check Alcotest.int
        (Printf.sprintf "initial n=%d" n)
        want
        (Sstate.hash (Sstate.initial (Isa.Config.default n))))
    [ (2, 1720713740332468745); (3, 882303583384700269); (4, 697558359554331701); (5, 3838331216494134565) ];
  let committed cfgn instrs =
    let arena = Sstate.Arena.create cfgn in
    List.fold_left
      (fun s i ->
        match Sstate.Arena.probe arena i s with
        | Sstate.Arena.Unchanged -> s
        | Sstate.Arena.Changed -> Sstate.Arena.commit arena)
      (Sstate.initial cfgn) instrs
  in
  let open Isa.Instr in
  List.iter
    (fun (name, cfgn, instrs, want) ->
      let s = committed cfgn instrs in
      check Alcotest.int name want (Sstate.hash s);
      check Alcotest.int (name ^ ", rebuilt") want
        (Sstate.hash (Sstate.of_codes (Sstate.codes s))))
    [
      ("n=3 mov s1 r1; cmp r1 r2", Isa.Config.default 3, [ mov 3 0; cmp 0 1 ], 1704960698607601060);
      ( "n=4 mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovl r2 s1",
        Isa.Config.default 4,
        [ mov 4 0; cmp 0 1; cmovg 0 1; cmovl 1 4 ],
        486960034547829973 );
      ("n=6 m=3 mov s3 r6 (a 29-bit code)", Isa.Config.make ~n:6 ~m:3, [ mov 8 5 ], 3455206010268986533);
    ]

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
          Alcotest.test_case "hash pins" `Quick test_hash_pins;
        ] );
      ( "properties",
        [
          qtest prop_apply_congruent;
          qtest prop_canonical_idempotent;
          qtest prop_packed_equals_reference;
          qtest prop_arena_probe_matches_apply;
          qtest prop_probe_order_free_matches_canonical;
          qtest prop_probe_limit_keeps_vetting_facts;
          qtest prop_stage_cmp_matches_probe;
          qtest prop_map_sub_matches_apply;
          qtest prop_cell_widths_match_model;
          qtest prop_sole_holders_match_assign;
        ] );
    ]
