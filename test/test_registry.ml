let check = Alcotest.check

let fresh_root =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.temp_dir "sortsynth-registry" (string_of_int !counter)

let key3 = Registry.Key.make 3
let key2 = Registry.Key.make 2

let program_testable cfg =
  Alcotest.testable (Isa.Program.pp cfg) Isa.Program.equal

(* ------------------------------------------------------------------ *)
(* Keys.                                                               *)

let test_key_canonical () =
  check Alcotest.string "canonical"
    "v1;isa=cmov;n=3;m=1;engine=astar;heuristic=perm;cut=mult:1.000;len=-"
    (Registry.Key.canonical key3);
  check Alcotest.int "hash is 32 hex chars" 32
    (String.length (Registry.Key.hash key3));
  (* Any field change must change the address. *)
  let variants =
    [
      Registry.Key.make 4;
      Registry.Key.make ~m:2 3;
      Registry.Key.make ~engine:Registry.Key.Level 3;
      Registry.Key.make ~engine:Registry.Key.Parallel 3;
      Registry.Key.make ~heuristic:Search.No_heuristic 3;
      Registry.Key.make ~cut:Search.No_cut 3;
      Registry.Key.make ~cut:(Search.Add 2) 3;
      Registry.Key.make ~max_len:11 3;
    ]
  in
  let hashes = Registry.Key.hash key3 :: List.map Registry.Key.hash variants in
  check Alcotest.int "all hashes distinct" (List.length hashes)
    (List.length (List.sort_uniq compare hashes))

let test_key_strings () =
  List.iter
    (fun (s, e) ->
      check Alcotest.string "engine roundtrip" s (Registry.Key.engine_to_string e);
      match Registry.Key.engine_of_string s with
      | Ok e' -> assert (e = e')
      | Error m -> Alcotest.fail m)
    Registry.Key.engine_assoc;
  List.iter
    (fun c ->
      match Registry.Key.cut_of_string (Registry.Key.cut_to_string c) with
      | Ok c' -> assert (c = c')
      | Error m -> Alcotest.fail m)
    [ Search.No_cut; Search.Mult 1.0; Search.Mult 2.5; Search.Add 2 ];
  (match Registry.Key.heuristic_of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted unknown heuristic"
  | Error _ -> ());
  assert (Registry.Key.cut_of_factor 0. = Search.No_cut);
  assert (Registry.Key.cut_of_factor 2. = Search.Mult 2.)

(* A cut factor that is not a finite number > 0 has no canonical string
   that reads back, so no key may carry one. Finite keys keep their
   canonical strings and hashes. *)
let test_key_rejects_bad_cut () =
  List.iter
    (fun k ->
      match Registry.Key.make ~cut:(Search.Mult k) 3 with
      | _ -> Alcotest.failf "Key.make accepted cut factor %g" k
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -1. ];
  List.iter
    (fun s ->
      match Registry.Key.cut_of_string s with
      | Ok _ -> Alcotest.fail ("cut_of_string accepted " ^ s)
      | Error _ -> ())
    [ "mult:nan"; "mult:inf"; "mult:infinity"; "mult:-inf"; "mult:0" ];
  List.iter
    (fun job ->
      match Result.bind (Registry.Json.parse job) Registry.Key.of_json with
      | Ok _ -> Alcotest.fail ("of_json accepted " ^ job)
      | Error _ -> ())
    [ {|{"n":3,"cut":1e999}|}; {|{"n":3,"cut":-1e999}|}; {|{"n":3,"cut":"mult:nan"}|} ];
  let k = Registry.Key.make ~cut:(Registry.Key.cut_of_factor 1e9) 3 in
  check Alcotest.string "large finite factor"
    "v1;isa=cmov;n=3;m=1;engine=astar;heuristic=perm;cut=mult:1000000000.000;len=-"
    (Registry.Key.canonical k);
  check Alcotest.string "default key hash" "d1f77cf64a9a2eacafdd16d8e60285e8"
    (Registry.Key.hash (Registry.Key.make 3))

let test_key_json () =
  let k =
    Registry.Key.make ~m:2 ~engine:Registry.Key.Level
      ~heuristic:Search.Dist_bound ~cut:(Search.Add 1) ~max_len:20 4
  in
  (match Registry.Key.of_json (Registry.Key.to_json k) with
  | Ok k' -> assert (Registry.Key.equal k k')
  | Error m -> Alcotest.fail m);
  (* Batch-job shorthand: only "n" required, numeric cut factor allowed. *)
  (match Result.bind (Registry.Json.parse {|{"n": 3, "cut": 0}|}) Registry.Key.of_json with
  | Ok k' ->
      assert (Registry.Key.equal k' (Registry.Key.make ~cut:Search.No_cut 3))
  | Error m -> Alcotest.fail m);
  match Result.bind (Registry.Json.parse {|{"m": 1}|}) Registry.Key.of_json with
  | Ok _ -> Alcotest.fail "accepted job without n"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON values.                                                        *)

let test_json_roundtrip () =
  let v =
    Registry.Json.(
      Obj
        [
          ("a", Arr [ Int 1; Float 2.5; Null; Bool true ]);
          ("s", Str "line\n\"quoted\"\tend");
          ("nested", Obj [ ("empty", Arr []); ("eo", Obj []) ]);
        ])
  in
  let s = Registry.Json.to_string v in
  (match Registry.Json.parse s with
  | Ok v' -> assert (v = v')
  | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match Registry.Json.parse bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "nul" ]

(* ------------------------------------------------------------------ *)
(* Store.                                                              *)

let synth_result key = (Registry.Scheduler.run_key key).Registry.Scheduler.result

let test_store_roundtrip () =
  let root = fresh_root () in
  let counters = Registry.Store.fresh_counters () in
  check Alcotest.bool "initial miss" true
    (Registry.Store.lookup ~counters ~root key3 = Registry.Store.Miss);
  let r = synth_result key3 in
  let entry =
    match Registry.Store.insert ~counters ~root key3 r with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  check Alcotest.int "stored length" 11 entry.Registry.Store.length;
  (match Registry.Store.lookup ~counters ~root key3 with
  | Registry.Store.Hit e ->
      check
        (program_testable (Registry.Key.config key3))
        "same program" (List.hd r.Search.programs) e.Registry.Store.program;
      check Alcotest.int "solution count" r.Search.solution_count
        e.Registry.Store.solution_count;
      assert (e.Registry.Store.predicted_cost > 0.)
  | _ -> Alcotest.fail "expected hit");
  check Alcotest.int "hits" 1 counters.Registry.Store.hits;
  check Alcotest.int "misses" 1 counters.Registry.Store.misses;
  check Alcotest.int "inserted" 1 counters.Registry.Store.inserted;
  check Alcotest.int "quarantined" 0 counters.Registry.Store.quarantined;
  (match
     Registry.Json.parse
       (Registry.Json.to_string (Registry.Store.counters_json counters))
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* A key differing only in an option must miss. *)
  let other = Registry.Key.make ~heuristic:Search.No_heuristic 3 in
  assert (Registry.Store.lookup ~root other = Registry.Store.Miss)

(* The publish rule: the optimizer's rewrite is what gets stored, and the
   entry records the digest of the original kernel text plus the passes. *)
let test_polish_provenance () =
  let cfg = Registry.Key.config key3 in
  let unopt =
    let rel = "examples/kernels/sort3_unopt.txt" in
    let path = if Sys.file_exists rel then rel else Filename.concat ".." rel in
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Isa.Program.of_string cfg src with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  check Alcotest.int "example is the 13-instruction kernel" 13
    (Isa.Program.length unopt);
  let r = { (synth_result key3) with Search.programs = [ unopt ] } in
  let pol =
    match Registry.Scheduler.polish ~optimize:true key3 r with
    | Ok pol -> pol
    | Error m -> Alcotest.fail m
  in
  let kernel = pol.Registry.Scheduler.kernel in
  check Alcotest.int "redundant cmp dropped" 12 (Isa.Program.length kernel);
  check (program_testable cfg) "search head is the kernel" kernel
    (List.hd pol.Registry.Scheduler.search.Search.programs);
  let passes =
    match pol.Registry.Scheduler.report with
    | Some rep ->
        List.map
          (fun (d : Opt.Pipeline.delta) -> d.Opt.Pipeline.pass)
          rep.Opt.Pipeline.deltas
    | None -> Alcotest.fail "no optimizer report"
  in
  check Alcotest.bool "some pass applied" true (passes <> []);
  let digest = Digest.to_hex (Digest.string (Isa.Program.to_string cfg unopt)) in
  let prov =
    match pol.Registry.Scheduler.provenance with
    | Some p -> p
    | None -> Alcotest.fail "no provenance for a rewritten kernel"
  in
  check Alcotest.string "optimized_from" digest prov.Registry.Store.optimized_from;
  check Alcotest.(list string) "passes" passes prov.Registry.Store.passes;
  let root = fresh_root () in
  (match
     Registry.Store.insert ?provenance:pol.Registry.Scheduler.provenance ~root
       key3 pol.Registry.Scheduler.search
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let meta =
    let ic =
      open_in_bin
        (Filename.concat (Registry.Store.entry_dir ~root key3) "meta.json")
    in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Registry.Json.parse src with Ok j -> j | Error m -> Alcotest.fail m
  in
  check Alcotest.bool "meta.json optimized_from" true
    (Registry.Json.member "optimized_from" meta = Some (Registry.Json.Str digest));
  check Alcotest.bool "meta.json opt_passes" true
    (Registry.Json.member "opt_passes" meta
    = Some (Registry.Json.Arr (List.map (fun s -> Registry.Json.Str s) passes)));
  (match Registry.Store.lookup ~root key3 with
  | Registry.Store.Hit e ->
      check (program_testable cfg) "stored kernel" kernel e.Registry.Store.program;
      check Alcotest.bool "lookup provenance" true
        (e.Registry.Store.provenance = Some prov)
  | _ -> Alcotest.fail "expected hit");
  match Registry.Scheduler.polish ~optimize:false key3 r with
  | Ok pol ->
      check Alcotest.bool "no provenance unoptimized" true
        (pol.Registry.Scheduler.provenance = None);
      check (program_testable cfg) "kernel unchanged" unopt
        pol.Registry.Scheduler.kernel
  | Error m -> Alcotest.fail m

let corrupt_kernel ~root key text =
  let dir = Registry.Store.entry_dir ~root key in
  let oc = open_out (Filename.concat dir "kernel.txt") in
  output_string oc text;
  close_out oc

let test_store_quarantine () =
  let root = fresh_root () in
  let counters = Registry.Store.fresh_counters () in
  (match Registry.Store.insert ~root key2 (synth_result key2) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* Same length as the real kernel (4) and parses fine, but sorts
     nothing: the length cross-check passes and certification must be the
     layer that catches it. *)
  corrupt_kernel ~root key2 "mov s1 r1\nmov r1 r2\nmov r2 s1\ncmp r1 r2\n";
  (match Registry.Store.lookup ~counters ~root key2 with
  | Registry.Store.Quarantined reason ->
      check Alcotest.bool "reason mentions the failing input" true
        (String.length reason > 0)
  | Registry.Store.Hit _ -> Alcotest.fail "served a corrupted kernel"
  | Registry.Store.Miss -> Alcotest.fail "corrupted entry vanished");
  check Alcotest.int "quarantined counter" 1 counters.Registry.Store.quarantined;
  check Alcotest.int "quarantine dir" 1 (Registry.Store.scan ~root).Registry.Store.quarantined;
  (* The bad entry was moved aside: the key now misses and can be
     repopulated. *)
  assert (Registry.Store.lookup ~counters ~root key2 = Registry.Store.Miss);
  (match Registry.Store.insert ~root key2 (synth_result key2) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* Unparsable garbage quarantines too (second quarantine of this hash
     must not collide with the first). *)
  corrupt_kernel ~root key2 "totally not a kernel\n";
  (match Registry.Store.lookup ~root key2 with
  | Registry.Store.Quarantined _ -> ()
  | _ -> Alcotest.fail "expected quarantine of unparsable kernel");
  check Alcotest.int "two quarantined dirs" 2
    (Registry.Store.scan ~root).Registry.Store.quarantined

let test_store_lint_quarantine () =
  let root = fresh_root () in
  (match Registry.Store.insert ~root key2 (synth_result key2) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* A padded-but-correct kernel: still sorts both permutations, so plain
     certification passes — only the static analyzer can object to the
     provably dead trailing mov. Patch meta.json's length so the length
     cross-check passes too. *)
  corrupt_kernel ~root key2
    "mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\nmov s1 r1\n";
  let meta_path =
    Filename.concat (Registry.Store.entry_dir ~root key2) "meta.json"
  in
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match Registry.Json.parse (read_all meta_path) with
  | Ok (Registry.Json.Obj fields) ->
      let fields =
        List.map
          (function
            | "length", _ -> ("length", Registry.Json.Int 5)
            | kv -> kv)
          fields
      in
      let oc = open_out_bin meta_path in
      output_string oc (Registry.Json.to_string (Registry.Json.Obj fields));
      close_out oc
  | _ -> Alcotest.fail "meta.json unreadable");
  (* Without lint the tampered entry still certifies and is served. *)
  (match Registry.Store.verify_all ~root () with
  | [ (_, Ok e) ] -> check Alcotest.int "padded length" 5 e.Registry.Store.length
  | _ -> Alcotest.fail "expected one certified entry");
  (* The lint sweep quarantines it and says why. *)
  let counters = Registry.Store.fresh_counters () in
  (match Registry.Store.verify_all ~counters ~lint:true ~root () with
  | [ (_, Error reason) ] ->
      let contains sub =
        let n = String.length reason and k = String.length sub in
        let rec go i = i + k <= n && (String.sub reason i k = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "reason names the analyzer" true
        (contains "static analyzer");
      check Alcotest.bool "reason names the rule" true (contains "dead-write")
  | _ -> Alcotest.fail "lint sweep should quarantine the padded entry");
  check Alcotest.int "lint_errors counter" 1
    counters.Registry.Store.lint_errors;
  check Alcotest.int "quarantined counter" 1
    counters.Registry.Store.quarantined;
  check Alcotest.int "quarantine dir" 1 (Registry.Store.scan ~root).Registry.Store.quarantined;
  (* Quarantined means gone: the key misses and can be re-synthesized. *)
  assert (Registry.Store.lookup ~root key2 = Registry.Store.Miss)

let test_store_verify_gc () =
  let root = fresh_root () in
  List.iter
    (fun key ->
      match Registry.Store.insert ~root key (synth_result key) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    [ key2; key3 ];
  corrupt_kernel ~root key2 "mov s1 r1\nmov r1 r2\nmov r2 s1\ncmp r1 r2\n";
  let checked = Registry.Store.verify_all ~root () in
  check Alcotest.int "checked both" 2 (List.length checked);
  check Alcotest.int "one bad" 1
    (List.length (List.filter (fun (_, r) -> Result.is_error r) checked));
  (* Dry run first: reports the victims and reclaimable bytes but leaves
     the store alone — not even a quarantining side effect. *)
  let dry = Registry.Store.gc ~dry_run:true ~root () in
  check Alcotest.int "dry kept" 1 dry.Registry.Store.kept;
  check Alcotest.int "dry purged" 1 dry.Registry.Store.purged;
  check Alcotest.bool "dry reclaimable bytes" true
    (dry.Registry.Store.reclaimed_bytes > 0);
  (* verify_all above already quarantined the corrupt entry; the dry run
     must leave both areas exactly as it found them. *)
  check Alcotest.int "dry run leaves quarantine alone" 1
    (Registry.Store.scan ~root).Registry.Store.quarantined;
  check Alcotest.int "dry run removes nothing" 1
    (List.length (Registry.Store.scan ~root).Registry.Store.hashes);
  (match dry.Registry.Store.victims with
  | [ v ] ->
      check Alcotest.bool "victim is the quarantined entry" true
        (String.length v > 11 && String.sub v 0 11 = "quarantine/")
  | _ -> Alcotest.fail "expected exactly one dry-run victim");
  let report = Registry.Store.gc ~root () in
  check Alcotest.int "kept" 1 report.Registry.Store.kept;
  check Alcotest.int "purged" 1 report.Registry.Store.purged;
  check Alcotest.bool "reclaimed bytes" true
    (report.Registry.Store.reclaimed_bytes > 0);
  check Alcotest.int "one victim" 1 (List.length report.Registry.Store.victims);
  check Alcotest.int "quarantine emptied" 0 (Registry.Store.scan ~root).Registry.Store.quarantined

(* ------------------------------------------------------------------ *)
(* Scheduler and batch.                                                *)

let mixed_jobs () =
  [
    Registry.Key.make 2;
    Registry.Key.make 3;
    Registry.Key.make ~engine:Registry.Key.Level 3;
    Registry.Key.make ~engine:Registry.Key.Parallel 3;
    Registry.Key.make ~heuristic:Search.Assign_count 3;
    Registry.Key.make ~engine:Registry.Key.Level 2;
    Registry.Key.make ~max_len:11 3;
    Registry.Key.make ~engine:Registry.Key.Parallel 2;
  ]

(* A batch as the CLI runs it locally: an in-process server with no
   memory layer and a breaker that never trips, answering one [Batch]
   request. Returns the answers and the server's [registry] counters. *)
let local_batch ~root ~workers keys =
  let srv =
    Serve.Server.create
      {
        Serve.Server.socket_path = "unused.sock";
        root;
        capacity = 0;
        workers;
        max_conns = 1;
        max_queue = workers;
        breaker_threshold = max_int;
        breaker_cooldown = 0.;
        drain_grace = 0.;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.destroy srv) @@ fun () ->
  match
    Serve.Server.handle srv
      (Serve.Protocol.Batch (keys, Serve.Protocol.default_params))
  with
  | Serve.Protocol.Jobs served ->
      let registry =
        Option.get (Registry.Json.member "registry" (Serve.Server.snapshot srv))
      in
      let count name =
        match Registry.Json.member name registry with
        | Some (Registry.Json.Int n) -> n
        | _ -> Alcotest.fail ("missing registry counter " ^ name)
      in
      (served, count)
  | _ -> Alcotest.fail "expected a jobs response"

let test_batch_matches_sequential () =
  let jobs = mixed_jobs () in
  let root = fresh_root () in
  let served, count = local_batch ~root ~workers:2 jobs in
  check Alcotest.int "all jobs answered" (List.length jobs) (List.length served);
  List.iter2
    (fun key (s : Serve.Protocol.served) ->
      let cfg = Registry.Key.config key in
      check Alcotest.string "synthesized" "synthesized" s.Serve.Protocol.status;
      let sequential =
        List.hd
          (Registry.Scheduler.run_key key).Registry.Scheduler.result
            .Search.programs
      in
      check (Alcotest.option Alcotest.string) "batch = sequential"
        (Some (Isa.Program.to_string cfg sequential))
        s.Serve.Protocol.kernel)
    jobs served;
  check Alcotest.int "all were misses" (List.length jobs) (count "misses");
  check Alcotest.int "all inserted" (List.length jobs) (count "inserted");
  (* Second run over the same registry: everything served from the store,
     with the same kernels. *)
  let served2, count2 = local_batch ~root ~workers:3 jobs in
  List.iter2
    (fun (s1 : Serve.Protocol.served) (s2 : Serve.Protocol.served) ->
      check Alcotest.string "cached" "cached" s2.Serve.Protocol.status;
      check (Alcotest.option Alcotest.string) "from disk" (Some "disk")
        s2.Serve.Protocol.source;
      check (Alcotest.option Alcotest.string) "same kernel"
        s1.Serve.Protocol.kernel s2.Serve.Protocol.kernel)
    served served2;
  check Alcotest.int "all hits" (List.length jobs) (count2 "hits")

let test_batch_timeout_and_failure () =
  (* An n=4 certified-minimal search cannot finish in 2 ms: every attempt
     must hit the deadline, and the bounded retry must stop at 1 + retries
     attempts. *)
  let slow = Registry.Key.make ~engine:Registry.Key.Level 4 in
  let r =
    Registry.Scheduler.run_one ~timeout:(Some 0.002) ~retries:2 ~backoff:0.05
      ~budget:None slow
  in
  assert (r.Registry.Scheduler.status = Registry.Scheduler.Timed_out);
  check Alcotest.int "attempts" 3 r.Registry.Scheduler.attempts;
  assert (r.Registry.Scheduler.program = None);
  (* n=2 with no scratch register has no kernel in this ISA: a clean
     failure, not a crash, and nothing gets stored. *)
  let root = fresh_root () in
  let impossible = Registry.Key.make ~m:0 2 in
  let served, count = local_batch ~root ~workers:2 [ impossible ] in
  (match served with
  | [ s ] -> check Alcotest.string "failed" "failed" s.Serve.Protocol.status
  | _ -> Alcotest.fail "expected one result");
  check Alcotest.int "nothing stored" 0 (count "inserted");
  (* The search finished: retrying it would find nothing again. *)
  let r =
    Registry.Scheduler.run_one ~timeout:None ~retries:2 ~backoff:0.05 ~budget:None
      impossible
  in
  check Alcotest.int "a finished search is not retried" 1
    r.Registry.Scheduler.attempts

let test_exhaustion_is_final () =
  (* The search and its live-state count are deterministic: a key that
     exhausts a configured budget at every rung would exhaust it again,
     so the first exhaustion ends the job. *)
  let key = Registry.Key.make ~engine:Registry.Key.Level 4 in
  let r =
    Registry.Scheduler.run_one ~timeout:None ~retries:2 ~backoff:0.
      ~budget:(Some 10) key
  in
  (match r.Registry.Scheduler.status with
  | Registry.Scheduler.Exhausted { budget; _ } ->
      check (Alcotest.option Alcotest.int) "budget" (Some 10) budget
  | _ -> Alcotest.fail "expected an exhausted job");
  check Alcotest.int "one attempt" 1 r.Registry.Scheduler.attempts;
  check Alcotest.int "one log entry" 1
    (List.length r.Registry.Scheduler.attempt_log)

let test_parse_jobs () =
  (match
     Registry.Scheduler.parse_jobs
       {|[{"n":2},{"n":3,"engine":"level","max_len":11}]|}
   with
  | Ok [ a; b ] ->
      assert (Registry.Key.equal a key2);
      assert (
        Registry.Key.equal b
          (Registry.Key.make ~engine:Registry.Key.Level ~max_len:11 3))
  | Ok _ -> Alcotest.fail "wrong job count"
  | Error m -> Alcotest.fail m);
  (match Registry.Scheduler.parse_jobs "[]" with
  | Ok _ -> Alcotest.fail "accepted empty jobs"
  | Error _ -> ());
  match Registry.Scheduler.parse_jobs {|[{"n":2},{"n":99}]|} with
  | Ok _ -> Alcotest.fail "accepted out-of-range n"
  | Error m ->
      check Alcotest.bool "error names the job" true
        (String.length m > 0 && String.sub m 0 5 = "job 1")

let () =
  Alcotest.run "registry"
    [
      ( "key",
        [
          Alcotest.test_case "canonical + hash" `Quick test_key_canonical;
          Alcotest.test_case "string conversions" `Quick test_key_strings;
          Alcotest.test_case "rejects a non-finite cut" `Quick
            test_key_rejects_bad_cut;
          Alcotest.test_case "json" `Quick test_key_json;
        ] );
      ("json", [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ]);
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "quarantine" `Quick test_store_quarantine;
          Alcotest.test_case "lint quarantine" `Quick test_store_lint_quarantine;
          Alcotest.test_case "verify + gc" `Quick test_store_verify_gc;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "batch = sequential" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "timeout + failure" `Quick
            test_batch_timeout_and_failure;
          Alcotest.test_case "exhaustion is final" `Quick
            test_exhaustion_is_final;
          Alcotest.test_case "parse jobs" `Quick test_parse_jobs;
          Alcotest.test_case "polish provenance" `Quick test_polish_provenance;
        ] );
    ]
