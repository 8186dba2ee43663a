(* The text of every decode error a malformed document gets: batch job
   files, wire requests and responses, entry metadata and the warm-set
   snapshot. Callers print these strings (batch's "cannot read jobs: …",
   the daemon's refusals, quarantine reasons), so they are pinned here
   byte for byte. *)

let check = Alcotest.check
let error_t = Alcotest.(result unit string)

(* [decode src] must fail with exactly [msg]. *)
let refuses decode cases () =
  List.iter
    (fun (src, msg) ->
      check Alcotest.string src msg
        (match decode src with Ok _ -> "<decoded>" | Error e -> e))
    cases

let jobs =
  refuses Registry.Scheduler.parse_jobs
    [
      ("{}", "expected array, got object");
      ("[]", "jobs file is an empty array");
      ("[1]", "job 0: job must be a JSON object");
      ({|[{"n":2},"x"]|}, "job 1: job must be a JSON object");
      ("[{}]", {|job 0: job is missing required field "n"|});
      ({|[{"n":null}]|}, "job 0: expected int, got null");
      ({|[{"n":"3"}]|}, "job 0: expected int, got string");
      ({|[{"n":3,"m":"1"}]|}, "job 0: expected int, got string");
      ({|[{"n":3,"isa":"avx"}]|}, {|job 0: Key.make: unknown ISA "avx"|});
      ( {|[{"n":3,"engine":"dfs"}]|},
        {|job 0: unknown engine "dfs" (expected one of: astar, level, parallel)|} );
      ({|[{"n":3,"heuristic":1}]|}, "job 0: expected string, got int");
      ({|[{"n":3,"cut":"bogus"}]|}, {|job 0: unknown cut "bogus" (none, mult:K, or add:D)|});
      ({|[{"n":3,"cut":"mult:x"}]|}, {|job 0: bad cut factor in "mult:x"|});
      ({|[{"n":3,"cut":"add:-1"}]|}, {|job 0: bad cut delta in "add:-1"|});
      ({|[{"n":3,"cut":1e999}]|}, "job 0: cut: factor must be finite");
      ({|[{"n":3,"cut":true}]|}, "job 0: expected string, got bool");
      ({|[{"n":3,"max_len":"x"}]|}, "job 0: expected int, got string");
    ]

let requests =
  refuses Serve.Protocol.parse_request
    [
      ("{}", {|request: missing "op"|});
      ({|{"op":1}|}, "expected string, got int");
      ({|{"op":"frob"}|}, {|request: unknown op "frob"|});
      ({|{"op":"lookup"}|}, {|lookup: missing "key"|});
      ({|{"op":"synth"}|}, {|synth: missing "key"|});
      ({|{"op":"synth","key":[]}|}, "job must be a JSON object");
      ({|{"op":"batch"}|}, {|batch: missing "jobs"|});
      ({|{"op":"batch","jobs":{}}|}, "expected array, got object");
      ({|{"op":"batch","jobs":[{"n":2},{}]}|}, {|job is missing required field "n"|});
      ({|{"op":"synth","key":{"n":2},"retries":-3}|}, "retries: must be >= 0");
      ({|{"op":"batch","jobs":[{"n":2}],"retries":-1}|}, "retries: must be >= 0");
      ({|{"op":"synth","key":{"n":2},"retries":1.5}|}, "expected int, got float");
      ({|{"op":"synth","key":{"n":2},"backoff":-0.5}|}, "backoff: must be >= 0");
      ({|{"op":"synth","key":{"n":2},"backoff":"x"}|}, "expected number, got string");
      ( {|{"op":"synth","key":{"n":2},"timeout":-1}|},
        "timeout: must be a finite number >= 0" );
      ( {|{"op":"synth","key":{"n":2},"timeout":1e999}|},
        "timeout: must be a finite number >= 0" );
      ({|{"op":"synth","key":{"n":2},"deadline":1e999}|}, "deadline: must be finite");
      ({|{"op":"synth","key":{"n":2},"budget":"x"}|}, "expected int, got string");
      ({|{"op":"synth","key":{"n":2},"optimize":1}|}, "optimize: expected bool");
      ("{", {|at offset 1: expected "|});
    ]

let responses =
  refuses Serve.Protocol.parse_response
    [
      ("{}", {|response: missing "ok"|});
      ({|{"ok":true}|}, {|response: missing "type"|});
      ({|{"ok":true,"type":"nope"}|}, {|response: unknown type "nope"|});
      ({|{"ok":true,"type":"stats"}|}, {|stats response: missing "stats"|});
      ({|{"ok":true,"type":"jobs"}|}, {|jobs response: missing "jobs" array|});
      ({|{"ok":true,"type":"served","canonical":"c"}|}, {|served: missing "status"|});
      ({|{"ok":true,"type":"served","status":null}|}, {|served: missing "status"|});
      ({|{"ok":true,"type":"served","status":3}|}, {|served: missing "status"|});
      ({|{"ok":true,"type":"served","status":"cached"}|}, {|served: missing "canonical"|});
      ( {|{"ok":true,"type":"jobs","jobs":[{"status":"cached","canonical":"c"},{}]}|},
        {|served: missing "status"|} );
    ]

(* Optional members of a served answer are lenient: a missing, null or
   mistyped one reads as absent, never as an error. *)
let served_defaults () =
  match
    Serve.Protocol.parse_response
      {|{"ok":true,"type":"served","status":"cached","canonical":"c","source":7,"kernel":null,"degraded":"yes","rung":"2","elapsed_s":"x","retry_after_s":false}|}
  with
  | Ok (Serve.Protocol.Served s) ->
      check Alcotest.(option string) "source" None s.Serve.Protocol.source;
      check Alcotest.(option string) "kernel" None s.Serve.Protocol.kernel;
      check Alcotest.(option int) "length" None s.Serve.Protocol.length;
      check Alcotest.bool "degraded" false s.Serve.Protocol.degraded;
      check Alcotest.int "rung" 0 s.Serve.Protocol.rung;
      check Alcotest.int "attempts" 0 s.Serve.Protocol.attempts;
      check (Alcotest.float 0.) "elapsed" 0. s.Serve.Protocol.elapsed;
      check Alcotest.bool "coalesced" false s.Serve.Protocol.coalesced;
      check Alcotest.(option string) "error" None s.Serve.Protocol.error;
      check Alcotest.(option (float 0.)) "retry_after" None s.Serve.Protocol.retry_after
  | Ok _ -> Alcotest.fail "expected a served response"
  | Error e -> Alcotest.fail e

(* Entry metadata: a stored n=2 entry whose meta.json is rewritten, then
   read back with [load_unverified]. *)
let meta () =
  let root = Filename.temp_dir "sortsynth-decode" "meta" in
  let key = Registry.Key.make 2 in
  let outcome = Registry.Scheduler.run_key key in
  (match Registry.Store.insert ~root key outcome.Registry.Scheduler.result with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("insert: " ^ e));
  let path = Filename.concat (Registry.Store.entry_dir ~root key) "meta.json" in
  let original =
    match Registry.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok (Registry.Json.Obj fields) -> fields
    | _ -> Alcotest.fail "meta.json is not an object"
  in
  let with_meta fields =
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Registry.Json.to_string (Registry.Json.Obj fields)));
    match Registry.Store.load_unverified ~root (Registry.Key.hash key) with
    | Ok _ -> Ok ()
    | Error e -> Error e
  in
  let without name = List.remove_assoc name original in
  let set name v = (name, v) :: without name in
  List.iter
    (fun name ->
      check error_t ("missing " ^ name)
        (Error (Printf.sprintf "meta.json is missing %S" name))
        (with_meta (without name)))
    [
      "format";
      "canonical";
      "key";
      "length";
      "solution_count";
      "expanded";
      "elapsed_s";
      "predicted_cost";
    ];
  check error_t "degraded not a boolean"
    (Error {|"degraded" is not a boolean|})
    (with_meta (set "degraded" (Registry.Json.Str "no")));
  check error_t "degraded null"
    (Error {|"degraded" is not a boolean|})
    (with_meta (set "degraded" Registry.Json.Null));
  check error_t "degraded true"
    (Error "entry is flagged degraded (non-optimal); refusing to serve")
    (with_meta (set "degraded" (Registry.Json.Bool true)));
  check error_t "format" (Error "unsupported format version 9")
    (with_meta (set "format" (Registry.Json.Int 9)));
  check error_t "length type" (Error "expected int, got string")
    (with_meta (set "length" (Registry.Json.Str "3")));
  check error_t "canonical mismatch"
    (Error "canonical string does not match key fields")
    (with_meta (set "canonical" (Registry.Json.Str "v1;other")));
  check error_t "key not an object" (Error "job must be a JSON object")
    (with_meta (set "key" (Registry.Json.Int 2)));
  check error_t "optimized_from type" (Error "expected string, got int")
    (with_meta (set "optimized_from" (Registry.Json.Int 1)));
  let prov passes =
    ("optimized_from", Registry.Json.Str "abc") :: ("opt_passes", passes) :: original
  in
  check error_t "opt_passes not an array" (Error "expected array, got string")
    (with_meta (prov (Registry.Json.Str "dce")));
  check error_t "opt_passes element" (Error "expected string, got int")
    (with_meta
       (prov (Registry.Json.Arr [ Registry.Json.Str "dce"; Registry.Json.Int 1 ])));
  check error_t "well-formed provenance" (Ok ())
    (with_meta (prov (Registry.Json.Arr [ Registry.Json.Str "dce" ])));
  check error_t "original" (Ok ()) (with_meta original);
  Registry.Store.remove_tree root

let warmset () =
  let root = Filename.temp_dir "sortsynth-decode" "warm" in
  let read src =
    Out_channel.with_open_bin (Registry.Store.warmset_path root) (fun oc ->
        output_string oc src);
    Registry.Store.read_warmset ~root
  in
  refuses read
    [
      ("{}", {|warm-set snapshot: missing "schema"|});
      ({|{"schema":1}|}, "expected string, got int");
      ( {|{"schema":"sortsynth-serve-warmset/v0","keys":[]}|},
        {|warm-set snapshot: unsupported schema "sortsynth-serve-warmset/v0"|} );
      ({|{"schema":"sortsynth-serve-warmset/v1"}|}, {|warm-set snapshot: missing "keys" array|});
      ( {|{"schema":"sortsynth-serve-warmset/v1","keys":{}}|},
        {|warm-set snapshot: missing "keys" array|} );
      ( {|{"schema":"sortsynth-serve-warmset/v1","keys":[{"n":2},{"m":1}]}|},
        {|job is missing required field "n"|} );
      ({|{"schema":"sortsynth|}, "at offset 20: unterminated string");
    ]
    ();
  (match read {|{"schema":"sortsynth-serve-warmset/v1","keys":[{"n":3},{"n":2}]}|} with
  | Ok keys ->
      check Alcotest.(list string) "keys in order"
        [ "v1;isa=cmov;n=3;m=1;engine=astar;heuristic=perm;cut=mult:1.000;len=-";
          "v1;isa=cmov;n=2;m=1;engine=astar;heuristic=perm;cut=mult:1.000;len=-" ]
        (List.map Registry.Key.canonical keys)
  | Error e -> Alcotest.fail e);
  Registry.Store.remove_tree root

let () =
  Alcotest.run "decode"
    [
      ( "errors",
        [
          Alcotest.test_case "batch jobs" `Quick jobs;
          Alcotest.test_case "wire requests" `Quick requests;
          Alcotest.test_case "wire responses" `Quick responses;
          Alcotest.test_case "served optional members" `Quick served_defaults;
          Alcotest.test_case "entry metadata" `Quick meta;
          Alcotest.test_case "warm set" `Quick warmset;
        ] );
    ]
