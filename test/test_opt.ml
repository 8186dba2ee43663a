let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let parse cfg s =
  match Isa.Program.of_string cfg s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* The optimal n=2 kernel and the naive n=3 compilation shipped as
   examples/kernels/sort3_unopt.txt (insertion network with a duplicated
   cmp in the middle comparator). *)
let sort2 = "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"

let sort3_unopt =
  "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"
  ^ "mov s1 r2\ncmp r2 r3\ncmp r2 r3\ncmovg r2 r3\ncmovg r3 s1\n"
  ^ "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n"

(* ------------------------------------------------------------------ *)
(* Random valid programs. Decoded deterministically from a list of
   ints so QCheck shrinking stays meaningful: each int picks an opcode
   and an ordered register pair, fixed up to satisfy Isa.Instr.valid. *)

let decode_instr cfg k =
  let k = abs k in
  let nregs = Isa.Config.nregs cfg in
  let a = k / 4 mod nregs in
  let b = k / (4 * nregs) mod nregs in
  let b = if a = b then (a + 1) mod nregs else b in
  let lo = min a b and hi = max a b in
  match k mod 4 with
  | 0 -> Isa.Instr.mov a b
  | 1 -> Isa.Instr.cmp lo hi
  | 2 -> Isa.Instr.cmovl a b
  | _ -> Isa.Instr.cmovg a b

let decode_program (n, ks) =
  let cfg = Isa.Config.make ~n ~m:2 in
  let p = Array.of_list (List.map (decode_instr cfg) ks) in
  assert (Array.for_all (Isa.Instr.valid cfg) p);
  (cfg, p)

let random_program =
  QCheck.(
    pair (int_range 2 4) (list_of_size (QCheck.Gen.int_range 0 24) small_nat))

(* Property 1 (the pipeline's whole contract): the optimized program is
   bit-identical to the input on the value registers for every one of the
   n! input permutations — checked by the independent equivalence engine,
   not by the certifier that gated the rewrites. *)
let prop_pipeline_preserves_behavior =
  QCheck.Test.make ~name:"pipeline output equivalent on all n! inputs"
    ~count:150 random_program (fun spec ->
      let cfg, p = decode_program spec in
      let rep = Opt.Pipeline.run cfg p in
      match Machine.Exec.equiv cfg p rep.Opt.Pipeline.optimized with
      | Machine.Exec.Equivalent -> true
      | Machine.Exec.Differs _ -> false)

(* Property 2: the cost gate. Optimization never increases the
   instruction count nor the simulated cycle count. *)
let prop_pipeline_never_worse =
  QCheck.Test.make ~name:"pipeline never increases length or cycles"
    ~count:150 random_program (fun spec ->
      let cfg, p = decode_program spec in
      let q = (Opt.Pipeline.run cfg p).Opt.Pipeline.optimized in
      Array.length q <= Array.length p
      && Perf.Cost.simulated_cycles cfg q <= Perf.Cost.simulated_cycles cfg p)

(* Property 3: comparator extraction round-trips on the lib/sortnet
   baselines — extract (to_kernel net) recovers net's comparators exactly,
   and recompiling the extracted network is equivalent to the original. *)
let extraction_roundtrip_on name net =
  let cfg = Isa.Config.make ~n:net.Sortnet.n ~m:1 in
  let k = Sortnet.to_kernel cfg net in
  match Opt.Extract.run cfg k with
  | Opt.Extract.Rejected { index; reason } ->
      Alcotest.failf "%s: not extractable at %d: %s" name index reason
  | Opt.Extract.Network net' ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (name ^ " comparators round-trip") net.Sortnet.comparators
        net'.Sortnet.comparators;
      check Alcotest.bool (name ^ " 0-1 certified") true
        (Sortnet.sorts_all_binary net');
      let recompiled = Sortnet.to_kernel cfg net' in
      check Alcotest.bool (name ^ " recompiled equivalent") true
        (Machine.Exec.equiv cfg k recompiled = Machine.Exec.Equivalent)

let test_extraction_roundtrip () =
  for n = 2 to 5 do
    extraction_roundtrip_on (Printf.sprintf "optimal %d" n) (Sortnet.optimal n);
    extraction_roundtrip_on
      (Printf.sprintf "bose_nelson %d" n)
      (Sortnet.bose_nelson n);
    extraction_roundtrip_on
      (Printf.sprintf "insertion %d" n)
      (Sortnet.insertion n)
  done

let test_extraction_rejects_non_network () =
  (* The paper's clever 11-instruction sort3 reuses the saved scratch
     across comparators: syntactically not a network, and extraction must
     say so rather than unsoundly applying the 0-1 shortcut. *)
  let cfg = Isa.Config.make ~n:2 ~m:1 in
  let p = parse cfg "cmp r1 r2\nmov s1 r1\ncmovl r1 r2\ncmovg r2 s1\n" in
  match Opt.Extract.run cfg p with
  | Opt.Extract.Network _ ->
      Alcotest.fail "descending comparator extracted as a network"
  | Opt.Extract.Rejected { index; _ } -> check Alcotest.int "index" 2 index

(* ------------------------------------------------------------------ *)
(* The certificate. *)

let test_cert_accepts_identity () =
  let cfg = Isa.Config.default 2 in
  let p = parse cfg sort2 in
  match Machine.Exec.prove_rewrite cfg ~pass:"id" p p with
  | Ok sorts -> check Alcotest.bool "input sorts" true sorts
  | Error e -> Alcotest.fail e

let test_cert_refuses_broken_rewrite () =
  let cfg = Isa.Config.default 2 in
  let p = parse cfg sort2 in
  (* "Optimizing" the kernel to nothing changes behavior on any unsorted
     input; the proof must name the pass and a concrete counterexample. *)
  match Machine.Exec.prove_rewrite cfg ~pass:"empty" p [||] with
  | Ok _ -> Alcotest.fail "empty rewrite certified"
  | Error e ->
      check Alcotest.string "names the pass and a counterexample"
        "pass empty is not behavior-preserving: on input [2 1] the rewrite \
         produces [2 1] where the original produces [1 2]"
        e

let test_pipeline_proves_once () =
  (* An optimum no pass changes: DCE proposes its fixpoint unproven, so
     the only n! run is the report's final certification. *)
  let cfg = Isa.Config.default 3 in
  let p =
    parse cfg
      "cmp r1 r2\nmov s1 r1\ncmovg r1 r2\ncmovg r2 s1\ncmp r2 r3\nmov s1 r3\n\
       cmovg r3 r2\ncmovg r2 s1\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n"
  in
  let before = Machine.Exec.certifications () in
  let rep = Opt.Pipeline.run cfg p in
  check Alcotest.bool "unchanged" true (Isa.Program.equal p rep.Opt.Pipeline.optimized);
  check Alcotest.int "one certification" 1 (Machine.Exec.certifications () - before)

(* ------------------------------------------------------------------ *)
(* The pipeline on the shipped naive kernel. *)

let test_pipeline_improves_naive_sort3 () =
  let cfg = Isa.Config.default 3 in
  let p = parse cfg sort3_unopt in
  let rep = Opt.Pipeline.run cfg p in
  let q = rep.Opt.Pipeline.optimized in
  check Alcotest.bool "strictly shorter" true
    (Array.length q < Array.length p);
  check Alcotest.bool "a delta was recorded" true
    (rep.Opt.Pipeline.deltas <> []);
  check Alcotest.bool "still certified" true rep.Opt.Pipeline.certified;
  check Alcotest.bool "equivalent" true
    (Machine.Exec.equiv cfg p q = Machine.Exec.Equivalent)

let test_pipeline_refuses_sabotage () =
  (* Arm the opt.break_pass fault site: every proposal is mutated into a
     semantics-changing program before certification. The certifier must
     refuse every one; the kernel must come out untouched. *)
  Fault.install
    { Fault.seed = 1; warp = 0.; rules = [ (Fault.Opt_break_pass, Fault.Always) ] };
  Fun.protect ~finally:Fault.disarm (fun () ->
      let cfg = Isa.Config.default 3 in
      let p = parse cfg sort3_unopt in
      let rep = Opt.Pipeline.run cfg p in
      check Alcotest.bool "program untouched" true
        (Isa.Program.equal p rep.Opt.Pipeline.optimized);
      check
        (Alcotest.list Alcotest.string)
        "no rewrite applied" []
        (List.map (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass)
           rep.Opt.Pipeline.deltas);
      check Alcotest.bool "refusals recorded" true
        (rep.Opt.Pipeline.refusals <> []))

(* ------------------------------------------------------------------ *)
(* Individual passes. *)

let find_pass name =
  match Opt.Passes.find name with
  | Some p -> p
  | None -> Alcotest.failf "pass %s not registered" name

let test_schedule_fills_stall_slots () =
  (* Four independent saves ahead of a comparator: issued in program
     order they fill cycle 1 entirely (4-wide), pushing the cmp to cycle
     2 and its cmovs to cycle 3. Hoisting the cmp into cycle 1 lets the
     cmovs issue a cycle earlier. *)
  let cfg = Isa.Config.make ~n:4 ~m:3 in
  let p =
    parse cfg
      "mov s1 r3\nmov s2 r4\nmov s3 r3\nmov s1 r4\ncmp r1 r2\ncmovg r1 \
       r2\ncmovl r2 s3\n"
  in
  let q = (find_pass "schedule").Opt.Passes.apply cfg p in
  check Alcotest.bool "strictly fewer simulated cycles" true
    (Perf.Cost.simulated_cycles cfg q < Perf.Cost.simulated_cycles cfg p);
  check Alcotest.bool "still equivalent" true
    (Machine.Exec.equiv cfg p q = Machine.Exec.Equivalent)

let test_redundant_cmp_pass () =
  let cfg = Isa.Config.default 2 in
  let p = parse cfg "cmp r1 r2\ncmp r1 r2\nmov s1 r1\ncmovg r1 r2\ncmovg r2 s1\n" in
  let q = (find_pass "redundant-cmp").Opt.Passes.apply cfg p in
  check Alcotest.int "one cmp dropped" 4 (Array.length q)

let test_coalesce_cmov_pass () =
  (* cmovl + cmovg on the same (dst, src) under flags from cmp dst src is
     an unconditional move (on equality the copy is the identity). *)
  let cfg = Isa.Config.default 2 in
  let p = parse cfg "cmp r1 r2\ncmovl r1 r2\ncmovg r1 r2\nmov s1 r2\n" in
  let q = (find_pass "coalesce-cmov").Opt.Passes.apply cfg p in
  check Alcotest.int "pair collapsed" 3 (Array.length q);
  check Alcotest.bool "collapsed to a mov" true
    (Array.exists (fun i -> i.Isa.Instr.op = Isa.Instr.Mov && i.Isa.Instr.dst = 0) q);
  check Alcotest.bool "equivalent" true
    (Machine.Exec.equiv cfg p q = Machine.Exec.Equivalent)

let test_canonicalize_pass () =
  (* Scratch registers renumber in first-write order: a kernel using s2
     before s1 canonicalizes to the same bytes as its s1-first twin. *)
  let cfg = Isa.Config.make ~n:2 ~m:2 in
  let twisted = parse cfg "mov s2 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s2\n" in
  let straight = parse cfg "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\n" in
  let c = (find_pass "canonicalize").Opt.Passes.apply cfg twisted in
  check Alcotest.bool "canonical form" true (Isa.Program.equal c straight)

(* ------------------------------------------------------------------ *)
(* The equivalence engine itself. *)

let test_equiv_counterexample () =
  let cfg = Isa.Config.default 2 in
  let sorts = parse cfg sort2 in
  let id = [||] in
  (match Machine.Exec.equiv cfg sorts sorts with
  | Machine.Exec.Equivalent -> ()
  | Machine.Exec.Differs _ -> Alcotest.fail "kernel differs from itself");
  match Machine.Exec.equiv cfg sorts id with
  | Machine.Exec.Equivalent -> Alcotest.fail "sort2 equivalent to the identity"
  | Machine.Exec.Differs { input; out_a; out_b } ->
      (* The counterexample must be a genuine witness. *)
      check
        (Alcotest.array Alcotest.int)
        "identity echoes the input" input out_b;
      check Alcotest.bool "outputs differ" true (out_a <> out_b)

(* ------------------------------------------------------------------ *)
(* Characterization: one digest over every kernel judgment the
   optimizer, DCE, lint, the cost models, the pipeline simulator and the
   scheduler hand out, over the k=1 n=3 optima, a padded copy of each,
   and seeded random programs at n=2..4. A refactor of any of them must
   leave the digest unchanged. *)

let judgments buf cfg p =
  let add fmt = Printf.bprintf buf fmt in
  let prog q = String.concat ";" (Array.to_list (Array.map (Isa.Instr.to_string cfg) q)) in
  add "P %s\n" (prog p);
  let r = Opt.Pipeline.run cfg p in
  add "opt %s r=%d c=%b\n" (prog r.Opt.Pipeline.optimized) r.Opt.Pipeline.rounds
    r.Opt.Pipeline.certified;
  List.iter
    (fun (d : Opt.Pipeline.delta) ->
      add "delta %s %d %d>%d %d>%d %d>%d\n" d.pass d.round d.instructions_before
        d.instructions_after d.cycles_before d.cycles_after d.critical_before
        d.critical_after)
    r.Opt.Pipeline.deltas;
  List.iter
    (fun (x : Opt.Pipeline.refusal) -> add "refusal %s %d %s\n" x.pass x.round x.reason)
    r.Opt.Pipeline.refusals;
  let d = Analysis.Dce.run cfg p in
  add "dce %s p=%d c=%b r=%b [%s]\n" (prog d.Analysis.Dce.optimized) d.Analysis.Dce.passes
    d.Analysis.Dce.certified d.Analysis.Dce.refused
    (String.concat ","
       (List.map
          (fun (x : Analysis.Dce.removal) ->
            Printf.sprintf "%d:%s" x.index (Analysis.Lint.rule_id x.rule))
          d.Analysis.Dce.removed));
  List.iter
    (fun (f : Analysis.Lint.finding) ->
      add "lint %s %s %s %s\n" (Analysis.Lint.rule_id f.rule)
        (Analysis.Lint.severity_to_string f.severity)
        (match f.index with Some i -> string_of_int i | None -> "-")
        f.message)
    (Analysis.Lint.check_all cfg p);
  let a = Perf.Cost.analyze cfg p in
  add "cost %d %d %d %h %h %h %d\n" a.Perf.Cost.instructions a.Perf.Cost.total_uops
    a.Perf.Cost.critical_path a.Perf.Cost.throughput a.Perf.Cost.latency_bound
    (Perf.Cost.predicted_cost cfg p)
    (Perf.Cost.simulated_cycles cfg p);
  add "edges %s\n"
    (String.concat " "
       (List.map (fun (x, y) -> Printf.sprintf "%d>%d" x y) (Perf.Cost.dependence_edges cfg p)));
  let s = Perf.Pipeline.run cfg p in
  add "pipe %d %h %h %s\n" s.Perf.Pipeline.cycles s.Perf.Pipeline.ipc
    s.Perf.Pipeline.cycles_per_iteration s.Perf.Pipeline.bottleneck;
  add "sched %s\n" (prog ((find_pass "schedule").Opt.Passes.apply cfg p))

let characterization_corpus () =
  let cfg3 = Isa.Config.default 3 in
  let opts =
    {
      Search.default with
      Search.heuristic = Search.Perm_count;
      cut = Search.Mult 1.0;
      max_solutions = 100_000;
    }
  in
  let optima = (Search.run_mode ~opts ~mode:Search.All_optimal cfg3).Search.programs in
  let st = Random.State.make [| 2025 |] in
  let univ = Isa.Instr.all cfg3 in
  let padded =
    List.map
      (fun p ->
        let at = Random.State.int st (Array.length p + 1) in
        let x = univ.(Random.State.int st (Array.length univ)) in
        Array.concat [ Array.sub p 0 at; [| x |]; Array.sub p at (Array.length p - at) ])
      optima
  in
  let random =
    List.init 300 (fun _ ->
        let n = 2 + Random.State.int st 3 in
        let len = Random.State.int st 25 in
        decode_program (n, List.init len (fun _ -> Random.State.int st 1_000_000)))
  in
  (List.length optima,
   List.map (fun p -> (cfg3, p)) optima @ List.map (fun p -> (cfg3, p)) padded @ random)

let test_characterization_digest () =
  let count, corpus = characterization_corpus () in
  check Alcotest.int "k=1 n=3 optima" 234 count;
  let buf = Buffer.create (1 lsl 20) in
  List.iter (fun (cfg, p) -> judgments buf cfg p) corpus;
  (* Sabotaged proposals pin the refusal texts. *)
  Fault.install
    { Fault.seed = 1; warp = 0.; rules = [ (Fault.Opt_break_pass, Fault.Always) ] };
  Fun.protect ~finally:Fault.disarm (fun () ->
      List.iteri
        (fun i (cfg, p) ->
          if i mod 16 = 0 then
            List.iter
              (fun (x : Opt.Pipeline.refusal) ->
                Printf.bprintf buf "sabotage %s %d %s\n" x.pass x.round x.reason)
              (Opt.Pipeline.run cfg p).Opt.Pipeline.refusals)
        corpus);
  check Alcotest.string "digest of every judgment" "7e9845af6717bc921002d563329f9a9e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "opt"
    [
      ( "properties",
        [
          qtest prop_pipeline_preserves_behavior;
          qtest prop_pipeline_never_worse;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "round-trips sortnet baselines" `Quick
            test_extraction_roundtrip;
          Alcotest.test_case "rejects non-networks" `Quick
            test_extraction_rejects_non_network;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "accepts identity" `Quick test_cert_accepts_identity;
          Alcotest.test_case "refuses broken rewrite" `Quick
            test_cert_refuses_broken_rewrite;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "improves naive sort3" `Quick
            test_pipeline_improves_naive_sort3;
          Alcotest.test_case "refuses sabotaged passes" `Quick
            test_pipeline_refuses_sabotage;
          Alcotest.test_case "proves an unchanged optimum once" `Quick
            test_pipeline_proves_once;
        ] );
      ( "passes",
        [
          Alcotest.test_case "schedule fills stalls" `Quick
            test_schedule_fills_stall_slots;
          Alcotest.test_case "redundant-cmp" `Quick test_redundant_cmp_pass;
          Alcotest.test_case "coalesce-cmov" `Quick test_coalesce_cmov_pass;
          Alcotest.test_case "canonicalize" `Quick test_canonicalize_pass;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "self + counterexample" `Quick
            test_equiv_counterexample;
        ] );
      (* Group names stay no longer than "certificate": Alcotest pads the
         group column to the longest one and truncates test names to fit. *)
      ( "golden",
        [
          Alcotest.test_case "outputs digest" `Quick
            test_characterization_digest;
        ] );
    ]
