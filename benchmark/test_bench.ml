(* Unit tests of the benchmark's own machinery: order statistics, the
   seeded generators, the checks (each must fail on sabotaged input), the
   span decomposition, the host-speed scaling, and BENCHMARK.json against
   the runner's tables. *)

open Benchkit
module Json = Registry.Json

let close_to = Alcotest.float 1e-9

(* ---------- statistics ---------- *)

let test_median () =
  Alcotest.check close_to "odd" 3. (Stat.median [| 5.; 1.; 3. |]);
  Alcotest.check close_to "even" 2.5 (Stat.median [| 4.; 1.; 3.; 2. |])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stat.quartiles (Array.of_list xs) in
  let triple = Alcotest.(triple close_to close_to close_to) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (q [ 10.; 9.; 8.; 7.; 6.; 5.; 4.; 3.; 2.; 1. ]);
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (q [ 1.; 2.; 3.; 4. ]);
  Alcotest.check triple "1..5" (1.5, 3., 4.5) (q [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check triple "single" (7., 7., 7.) (q [ 7. ])

let test_percentile () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close_to "p50" 50. (Stat.percentile 50. hundred);
  Alcotest.check close_to "p99" 99. (Stat.percentile 99. hundred);
  Alcotest.check close_to "p100" 100. (Stat.percentile 100. hundred);
  Alcotest.check close_to "p95 of 10 is the max" 10.
    (Stat.percentile 95. (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close_to "p1 is the min" 1. (Stat.percentile 1. hundred)

(* A burst of slow samples confined to one chunk moves the plain p99 but
   not the median over chunks. *)
let test_chunked_percentile () =
  let xs = Array.make 3000 1. in
  for i = 0 to 39 do
    xs.(i * 20) <- 100.
  done;
  Alcotest.check close_to "plain p99 sees the burst" 100. (Stat.percentile 99. xs);
  Alcotest.check close_to "chunked p99 does not" 1. (Stat.chunked_percentile 99. xs);
  let few = Array.init 50 (fun i -> float_of_int i) in
  Alcotest.check close_to "too few samples: plain percentile"
    (Stat.percentile 95. few) (Stat.chunked_percentile 95. few)

(* ---------- generators ---------- *)

let canonicals keys = Array.to_list (Array.map Registry.Key.canonical keys)

let test_cold_keys () =
  let a = Gen.cold_keys ~seed:7 () and b = Gen.cold_keys ~seed:7 () in
  Alcotest.(check (list string)) "same seed, same keys" (canonicals a) (canonicals b);
  Alcotest.(check bool)
    "another seed, another order" false
    (canonicals a = canonicals (Gen.cold_keys ~seed:8 ()));
  Alcotest.(check int) "3,006 keys" 3006 (Array.length a);
  let distinct = List.sort_uniq compare (canonicals a) in
  Alcotest.(check int) "no two share a canonical form" 3006 (List.length distinct);
  Array.iter
    (fun k ->
      Alcotest.(check bool) "never the parallel engine" true
        (k.Registry.Key.engine <> Registry.Key.Parallel);
      Alcotest.(check int) "n = 3" 3 k.Registry.Key.n)
    a

(* A key built here must equal the one the daemon decodes from the wire. *)
let test_cold_keys_round_trip () =
  Array.iter
    (fun k ->
      match Registry.Key.of_json (Registry.Key.to_json k) with
      | Ok k' -> Alcotest.(check bool) (Registry.Key.canonical k) true (Registry.Key.equal k k')
      | Error e -> Alcotest.fail e)
    (Gen.cold_keys ~seed:1 ())

let test_zipf () =
  let n = 192 in
  let cdf = Gen.zipf ~s:1.0 n in
  Alcotest.check close_to "cumulative ends at 1" 1. cdf.(n - 1);
  let draws st = Array.init 20_000 (fun _ -> Gen.zipf_draw cdf st) in
  let a = draws (Gen.stream ~seed:3 0) in
  Alcotest.(check (array int)) "same seed, same draws" a (draws (Gen.stream ~seed:3 0));
  let counts = Array.make n 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) a;
  Alcotest.(check bool) "draws in range" true (Array.for_all (fun k -> k >= 0 && k < n) a);
  (* Rank 0 has weight 1 / H(192) = 0.1713. *)
  let share = float_of_int counts.(0) /. 20_000. in
  Alcotest.(check bool)
    (Printf.sprintf "rank 0 share %.3f near 0.171" share)
    true
    (Float.abs (share -. 0.1713) < 0.015);
  Alcotest.(check bool) "rank 0 beats rank 1 beats rank 9" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(9))

(* ---------- checks, each against sabotaged input ---------- *)

let is_error = function Ok _ -> false | Error _ -> true

let drop_last p = Array.sub p 0 (Array.length p - 1)

let test_check_kernel () =
  let cfg = Isa.Config.default 3 in
  let p = Perf.Kernels.paper_sort3 in
  Alcotest.(check bool) "paper kernel certifies" false (is_error (Check.kernel cfg p));
  Alcotest.(check bool) "one instruction dropped" true (is_error (Check.kernel cfg (drop_last p)));
  Alcotest.(check bool) "unparsable text" true (is_error (Check.kernel_text cfg "cmp r1"))

let n3 =
  {
    Spec.label = "n3-best-astar";
    n = 3;
    opts = Search.best;
    mode = Search.Find_first;
    generated = 53_812;
    length = Some 11;
  }

let test_check_search () =
  let res = Spec.run_search n3 in
  Alcotest.(check bool) "genuine run passes" false (is_error (Check.search n3 res));
  Alcotest.(check bool) "wrong generated fingerprint" true
    (is_error (Check.search { n3 with Spec.generated = n3.Spec.generated + 1 } res));
  Alcotest.(check bool) "wrong kernel length" true
    (is_error (Check.search { n3 with Spec.length = Some 12 } res));
  Alcotest.(check bool) "a kernel where none may exist" true
    (is_error (Check.search { n3 with Spec.length = None } res));
  let sabotaged =
    {
      res with
      Search.programs = List.map (fun p -> Array.append (drop_last p) [| Isa.Instr.mov 1 2 |]) res.Search.programs;
    }
  in
  Alcotest.(check bool) "kernel with its last instruction replaced" true
    (is_error (Check.search n3 sabotaged))

let test_check_sorted () =
  let input = Gen.sort_input ~seed:1 1000 in
  let expected = Array.copy input in
  Array.sort compare expected;
  let base = Perf.Compile.kernel (Isa.Config.default 3) Perf.Kernels.paper_sort3 in
  let a = Array.copy input in
  Perf.Workload.quicksort ~base a;
  Alcotest.(check bool) "embedded quicksort output" false (is_error (Check.sorted ~expected a));
  let b = Array.copy a in
  let t = b.(10) in
  b.(10) <- b.(500);
  b.(500) <- t;
  Alcotest.(check bool) "two elements swapped" (b.(10) <> b.(500)) (is_error (Check.sorted ~expected b));
  Alcotest.(check bool) "unsorted input" true (is_error (Check.sorted ~expected input))

let served status kernel =
  Some
    (Ok
       (Serve.Protocol.Served
          {
            Serve.Protocol.status;
            source = Some "memory";
            canonical = "";
            kernel;
            length = None;
            degraded = false;
            rung = 0;
            attempts = 0;
            elapsed = 0.;
            coalesced = false;
            error = None;
            retry_after = None;
          }))

let reply resp = { Serving.key = 0; due = 0.; latency = 0.; lag = 0.; resp }

let test_check_replies () =
  let cfg = Isa.Config.default 3 in
  let text = Isa.Program.to_string cfg Perf.Kernels.paper_sort3 in
  let broken = Isa.Program.to_string cfg (drop_last Perf.Kernels.paper_sort3) in
  let expected = [| text |] in
  Alcotest.(check bool) "warm: cached, same bytes" false
    (is_error (Serving.check_warm ~expected (reply (served "cached" (Some text)))));
  Alcotest.(check bool) "warm: other bytes" true
    (is_error (Serving.check_warm ~expected (reply (served "cached" (Some broken)))));
  Alcotest.(check bool) "warm: a fresh synthesis is not a hit" true
    (is_error (Serving.check_warm ~expected (reply (served "synthesized" (Some text)))));
  Alcotest.(check bool) "warm: never sent" true (is_error (Serving.check_warm ~expected (reply None)));
  let keys = [| Registry.Key.make 3 |] in
  Alcotest.(check bool) "cold: synthesized, certifies" false
    (is_error (Serving.check_cold keys (reply (served "synthesized" (Some text)))));
  Alcotest.(check bool) "cold: kernel missing an instruction" true
    (is_error (Serving.check_cold keys (reply (served "synthesized" (Some broken)))));
  Alcotest.(check bool) "cold: shed" true
    (is_error (Serving.check_cold keys (reply (served "overloaded" None))));
  Alcotest.(check bool) "cold: protocol error" true
    (is_error (Serving.check_cold keys (reply (Some (Error "torn")))))

(* An open-loop request the generator never sent is attempted and failed,
   and leaves no latency sample. *)
let test_outcome_never_sent () =
  let cfg = Isa.Config.default 3 in
  let text = Isa.Program.to_string cfg Perf.Kernels.paper_sort3 in
  let sent = { (reply (served "cached" (Some text))) with Serving.latency = 0.001 } in
  let unsent = { (reply None) with Serving.due = 1.; latency = Float.infinity } in
  let o = Serving.outcome ~check:(Serving.check_warm ~expected:[| text |]) ~wall:2. [ unsent; sent ] in
  Alcotest.(check int) "both attempted" 2 o.Phase.attempted;
  Alcotest.(check int) "the unsent one failed" 1 o.Phase.failed;
  Alcotest.(check (array close_to)) "only the sent one's latency" [| 0.001 |] o.Phase.latency

(* ---------- spans ---------- *)

let test_breakdown () =
  let span ?(parent = 0) ~rid id name dur =
    { Trace.rid; id; parent; name; start = 0.; dur; reported = false }
  in
  let spans =
    [
      span ~rid:1 1 "request" 10.;
      span ~rid:1 ~parent:1 2 "serve.connect" 1.;
      span ~rid:1 ~parent:1 3 "serve.exchange" 8.;
      span ~rid:1 ~parent:3 4 "server.elapsed" 5.;
      span ~rid:2 5 "request" 20.;
      span ~rid:2 ~parent:5 6 "serve.connect" 2.;
      span ~rid:2 ~parent:5 7 "serve.exchange" 16.;
      span ~rid:2 ~parent:7 8 "server.elapsed" 12.;
      span ~rid:0 9 "sstate.probe_ns.n4" 3.;
    ]
  in
  let b = Trace.breakdown ~root:"request" spans in
  Alcotest.(check (array close_to)) "latency" [| 10.; 20. |] b.Trace.latency;
  Alcotest.(check (list string)) "leaf layers" [ "serve.connect"; "server.elapsed" ]
    (List.map fst b.Trace.layers);
  Alcotest.(check (array close_to)) "connect" [| 1.; 2. |] (List.assoc "serve.connect" b.Trace.layers);
  (* Residual: what no leaf covers — the exchange's own time plus glue. *)
  Alcotest.(check (array close_to)) "residual" [| 4.; 6. |] b.Trace.residual

(* ---------- host-speed normalization ---------- *)

let test_reference () =
  Alcotest.(check int) "the reference visits every permutation" Reference.states (Reference.work ())

(* A scaled metric keeps its measured value as raw.<name>, which the
   one-line result leaves out. *)
let test_scale () =
  let r = Report.create "w" in
  Report.samples r "latency_p50_ms" "ms" [| 1.; 2.; 3.; 4. |];
  Report.scale r "latency_p50_ms" 0.5;
  let find name = List.find (fun m -> m.Report.name = name) (Report.metrics r) in
  let m = find "latency_p50_ms" in
  let triple = Alcotest.(triple close_to close_to close_to) in
  Alcotest.check triple "scaled q1, median, q3" (0.625, 1.25, 1.875) (m.Report.q1, m.Report.value, m.Report.q3);
  Alcotest.check close_to "raw median kept" 2.5 (find "raw.latency_p50_ms").Report.value;
  match Json.member "metrics" (Report.result_json ~only:[ "latency_p50_ms" ] r) with
  | Some (Json.Obj [ ("latency_p50_ms", _) ]) -> ()
  | _ -> Alcotest.fail "the result should carry the scaled metric alone"

(* ---------- BENCHMARK.json against the runner ---------- *)

let test_benchmark_json () =
  let j =
    match Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let list k = match Json.member k j with Some (Json.Arr l) -> l | _ -> Alcotest.fail k in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> Alcotest.fail k in
  Alcotest.(check (list string)) "workloads = the spec table"
    (List.map (fun w -> w.Spec.name) Spec.workloads)
    (List.map (str "name") (list "workloads"));
  let pairs k = List.map (fun m -> (str "name" m, str "unit" m)) (list k) in
  Alcotest.(check (list (pair string string))) "end_to_end = what runs report" Spec.end_to_end
    (pairs "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer = what traced runs report" Layers.metrics
    (pairs "per_layer");
  List.iter
    (fun m ->
      match Json.member "bound" m with
      | Some b -> (
          match Json.to_float b with
          | Ok b -> Alcotest.(check bool) (str "name" m ^ " bound <= 0.25") true (b > 0. && b <= 0.25)
          | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "bound")
    (list "end_to_end");
  let names = List.map fst (Spec.end_to_end @ Layers.metrics) in
  Alcotest.(check int) "metric names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let ok_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is a valid name") true
        (String.length n <= 64 && String.for_all ok_char n))
    names;
  Alcotest.(check bool) "setup_s is declared" true (List.mem ("setup_s", "s") (pairs "end_to_end"))

let () =
  Alcotest.run "bench"
    [
      ( "stat",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "chunked percentile" `Quick test_chunked_percentile;
        ] );
      ( "gen",
        [
          Alcotest.test_case "cold keys" `Quick test_cold_keys;
          Alcotest.test_case "cold keys survive the wire" `Quick test_cold_keys_round_trip;
          Alcotest.test_case "zipf" `Quick test_zipf;
        ] );
      ( "check",
        [
          Alcotest.test_case "kernel" `Quick test_check_kernel;
          Alcotest.test_case "search fingerprint" `Quick test_check_search;
          Alcotest.test_case "embedded sort" `Quick test_check_sorted;
          Alcotest.test_case "served replies" `Quick test_check_replies;
          Alcotest.test_case "never-sent requests fail" `Quick test_outcome_never_sent;
        ] );
      ("trace", [ Alcotest.test_case "breakdown" `Quick test_breakdown ]);
      ( "host",
        [
          Alcotest.test_case "reference computation" `Quick test_reference;
          Alcotest.test_case "scaled metrics" `Quick test_scale;
        ] );
      ("benchmark.json", [ Alcotest.test_case "matches the runner" `Quick test_benchmark_json ]);
    ]
