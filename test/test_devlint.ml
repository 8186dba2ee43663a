(* devlint: the self-hosted linter. Golden findings over the corpus
   (exact rule/line/col, byte-stable order), precision cases the rules
   must stay quiet on, the waiver-file contract, renderer determinism,
   and the README rule-table sync. *)

let check = Alcotest.check

let findings_of path =
  match Devlint.Lint.check_file path with
  | Ok fs -> fs
  | Error e -> Alcotest.fail e

let triples fs =
  List.map
    (fun (f : Devlint.Lint.finding) -> (Devlint.Rule.id f.rule, f.line, f.col))
    fs

let triple_t = Alcotest.(list (triple string int int))

(* dune runtest runs in _build/default/test (where the glob_files dep
   materializes the corpus); dune exec from the repo root sees the
   source copy under test/. *)
let corpus_dir =
  if Sys.file_exists "devlint_corpus" then "devlint_corpus"
  else Filename.concat "test" "devlint_corpus"

let corpus name = Filename.concat corpus_dir name

(* ---------- golden findings: one corpus file per rule id ---------- *)

let test_corpus_goldens () =
  let expect =
    [
      ( "dl001_domain_shared_mutable.ml",
        [ ("DL001", 6, 34); ("DL001", 6, 44) ] );
      ("dl002_raw_wall_clock.ml", [ ("DL002", 2, 23) ]);
      ("dl003_unwarped_sleep.ml", [ ("DL003", 2, 16); ("DL003", 3, 13) ]);
      ("dl004_rename_without_fsync.ml", [ ("DL004", 4, 22) ]);
      ("dl005_double_close.ml", [ ("DL005", 8, 2) ]);
      ("dl006_registry_swallow.ml", [ ("DL006", 3, 56) ]);
    ]
  in
  List.iter
    (fun (name, want) ->
      check triple_t name want (triples (findings_of (corpus name))))
    expect

let test_every_rule_has_a_corpus_hit () =
  (* The acceptance bar: each of the six rule ids provably fires on at
     least one committed corpus file. *)
  let hit = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".ml" then
        List.iter
          (fun (f : Devlint.Lint.finding) ->
            Hashtbl.replace hit (Devlint.Rule.id f.rule) ())
          (findings_of (corpus name)))
    (Sys.readdir corpus_dir);
  List.iter
    (fun r ->
      let id = Devlint.Rule.id r in
      check Alcotest.bool (id ^ " fires on some corpus file") true
        (Hashtbl.mem hit id))
    Devlint.Rule.all

(* ---------- PR 9 regression reconstructions ---------- *)

let test_regress_pool_draining () =
  (* The non-atomic draining flag read from the worker domain: every
     unguarded access in the worker flags; the spawning-side write in
     [drain] is not Domain-reachable and must stay quiet. *)
  check triple_t "pool draining race"
    [
      ("DL001", 12, 12); ("DL001", 13, 7); ("DL001", 13, 23); ("DL001", 13, 33);
    ]
    (triples (findings_of (corpus "regress_pool_draining.ml")))

let test_regress_double_close () =
  check triple_t "double close of a socket's dual channels"
    [ ("DL005", 13, 2) ]
    (triples (findings_of (corpus "regress_double_close.ml")))

(* ---------- ordering ---------- *)

let test_findings_sorted_and_stable () =
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".ml" then begin
        let path = corpus name in
        let a = findings_of path in
        let b = findings_of path in
        check
          Alcotest.(list string)
          (name ^ " is deterministic")
          (List.map (fun (f : Devlint.Lint.finding) -> f.message) a)
          (List.map (fun (f : Devlint.Lint.finding) -> f.message) b);
        check Alcotest.bool (name ^ " is sorted") true
          (List.sort Devlint.Lint.compare_finding a = a)
      end)
    (Sys.readdir corpus_dir)

(* ---------- precision: shapes the rules must not flag ---------- *)

let check_src ?(path = "lib/serve/fake.ml") src =
  match Devlint.Lint.check_source ~path src with
  | Ok fs -> fs
  | Error e -> Alcotest.fail e

let test_lock_suppression () =
  let src =
    "type t = { m : Mutex.t; mutable stop : bool }\n\
     let worker t =\n\
    \  Mutex.lock t.m;\n\
    \  let s = t.stop in\n\
    \  Mutex.unlock t.m;\n\
    \  s\n\
     let start t = Domain.spawn (fun () -> worker t)\n"
  in
  check triple_t "access under Mutex.lock is quiet" [] (triples (check_src src))

let test_lock_combinator_suppression () =
  let src =
    "let locked m f = f ()\n\
     let count = ref 0\n\
     let worker m = locked m (fun () -> incr count)\n\
     let start m = Domain.spawn (fun () -> worker m)\n"
  in
  check triple_t "access inside a locked combinator is quiet" []
    (triples (check_src src))

let test_fresh_local_suppression () =
  let src =
    "let worker () =\n\
    \  let acc = ref 0 in\n\
    \  for i = 1 to 10 do acc := !acc + i done;\n\
    \  !acc\n\
     let start () = Domain.spawn worker\n"
  in
  check triple_t "a ref created inside the spawned world is quiet" []
    (triples (check_src src))

let test_atomic_is_quiet () =
  let src =
    "let shared = Atomic.make 0\n\
     let start () = Domain.spawn (fun () -> Atomic.incr shared)\n"
  in
  check triple_t "Atomic never trips DL001" [] (triples (check_src src))

let test_no_spawn_no_dl001 () =
  let src = "let shared = ref 0\nlet bump () = shared := !shared + 1\n" in
  check triple_t "no Domain.spawn, no DL001" []
    (triples (check_src ~path:"lib/isa/fake.ml" src))

let test_local_binding_does_not_alias_toplevel () =
  (* The scheduler false positive: a local [let pending = ...] inside
     the spawned code must not pull in a same-named top-level ref. *)
  let src =
    "let pending = ref []\n\
     let submit x = pending := x :: !pending\n\
     let worker items =\n\
    \  let pending = List.length items in\n\
    \  pending + 1\n\
     let start items = Domain.spawn (fun () -> worker items)\n"
  in
  check triple_t "locals shadow, top-level binding not re-pulled" []
    (triples (check_src src))

let test_path_scoping () =
  let clocky = "let t0 () = Unix.gettimeofday ()\nlet w () = Unix.sleepf 0.1\n" in
  check triple_t "DL002/DL003 exempt under lib/fault" []
    (triples (check_src ~path:"lib/fault/fake.ml" clocky));
  check Alcotest.int "DL002/DL003 fire elsewhere" 2
    (List.length (check_src ~path:"lib/search/fake.ml" clocky));
  let swallow = "let f path = try Sys.remove path with _ -> ()\n" in
  check triple_t "DL006 only on daemon/registry paths" []
    (triples (check_src ~path:"lib/isa/fake.ml" swallow));
  check Alcotest.int "DL006 fires on serve paths" 1
    (List.length (check_src ~path:"lib/serve/fake.ml" swallow))

let test_fsync_in_function_quiets_dl004 () =
  let src =
    "let fsync_path _ = ()\n\
     let publish tmp dst =\n\
    \  Sys.rename tmp dst;\n\
    \  fsync_path dst\n"
  in
  check triple_t "fsync later in the function counts" []
    (triples (check_src ~path:"lib/registry/fake.ml" src))

let test_parse_error_is_error () =
  match Devlint.Lint.check_source ~path:"bad.ml" "let let let" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ---------- waivers ---------- *)

let test_waiver_parse () =
  let src =
    "# comment\n\n\
     DL002 lib/perf/measure.ml timing real execution is the point\n\
     DL006 lib/serve/server.ml connection isolation boundary\n"
  in
  match Devlint.Waivers.parse src with
  | Error e -> Alcotest.fail e
  | Ok ws ->
      check Alcotest.int "two waivers" 2 (List.length ws);
      let w = List.hd ws in
      check Alcotest.string "rule" "DL002" (Devlint.Rule.id w.Devlint.Waivers.rule);
      check Alcotest.string "path" "lib/perf/measure.ml" w.Devlint.Waivers.path;
      check Alcotest.string "justification"
        "timing real execution is the point" w.Devlint.Waivers.justification

let test_waiver_requires_justification () =
  (match Devlint.Waivers.parse "DL002 lib/perf/measure.ml\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "justification must be mandatory");
  match Devlint.Waivers.parse "DL999 lib/perf/measure.ml because\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule id must be rejected"

let test_waiver_split () =
  let f rule file line =
    { Devlint.Lint.rule; file; line; col = 0; message = "m" }
  in
  let waivers =
    match
      Devlint.Waivers.parse
        "DL002 lib/a.ml benchmark timing\nDL003 lib/stale.ml nothing here\n"
    with
    | Ok ws -> ws
    | Error e -> Alcotest.fail e
  in
  let findings =
    [ f Devlint.Rule.Raw_wall_clock "lib/a.ml" 3;
      f Devlint.Rule.Raw_wall_clock "lib/b.ml" 9 ]
  in
  let unwaived, waived, unused = Devlint.Waivers.split waivers findings in
  check Alcotest.int "unwaived" 1 (List.length unwaived);
  check Alcotest.string "unwaived is the uncovered file" "lib/b.ml"
    (List.hd unwaived).Devlint.Lint.file;
  check Alcotest.int "waived" 1 (List.length waived);
  check Alcotest.int "stale" 1 (List.length unused);
  check Alcotest.string "stale path" "lib/stale.ml"
    (List.hd unused).Devlint.Waivers.path

(* ---------- report ---------- *)

let test_report_renderers () =
  let f =
    {
      Devlint.Lint.rule = Devlint.Rule.Unwarped_sleep;
      file = "lib/x.ml";
      line = 4;
      col = 2;
      message = "Unix.sleepf ignores Fault.Clock warps";
    }
  in
  let run =
    {
      Devlint.Report.unwaived = [ f ];
      waived = [];
      unused = [];
      errors = [];
      files_scanned = 1;
    }
  in
  check Alcotest.int "unwaived exits 1" 1 (Devlint.Report.exit_code run);
  check Alcotest.string "text is deterministic" (Devlint.Report.text run)
    (Devlint.Report.text run);
  let j = Json.to_string (Devlint.Report.json run) in
  check Alcotest.bool "json carries the rule id" true
    (let contains s sub =
       let n = String.length s and k = String.length sub in
       let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
       go 0
     in
     contains j "\"DL003\"" && contains j "\"ok\":false");
  let clean = { run with Devlint.Report.unwaived = [] } in
  check Alcotest.int "clean exits 0" 0 (Devlint.Report.exit_code clean)

(* ---------- README rule table stays honest ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let split_on_string sep s =
  let seplen = String.length sep and n = String.length s in
  let rec go start acc i =
    if i + seplen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i seplen = sep then
      go (i + seplen) (String.sub s start (i - start) :: acc) (i + seplen)
    else go start acc (i + 1)
  in
  go 0 [] 0

let contains_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let readme_devlint_rows readme =
  (* Rows of the table headed `| devlint id | title | fires on |` —
     distinct from the kernel-lint table headed `| rule id | ... |`. *)
  let lines = String.split_on_char '\n' readme in
  let rec skip_to_header = function
    | [] -> Alcotest.fail "README devlint table header not found"
    | l :: rest ->
        if String.length l > 0 && l.[0] = '|' && contains_sub l "devlint id"
        then rest
        else skip_to_header rest
  in
  let rows = skip_to_header lines in
  let rows = match rows with _sep :: rest -> rest | [] -> [] in
  let parse_row l =
    match List.map String.trim (split_on_string "|" l) with
    | [ ""; id; title; description; "" ] ->
        let strip_ticks s =
          if String.length s >= 2 && s.[0] = '`' && s.[String.length s - 1] = '`'
          then String.sub s 1 (String.length s - 2)
          else s
        in
        Some (strip_ticks id, strip_ticks title, description)
    | _ -> None
  in
  let rec take acc = function
    | l :: rest when String.length l > 0 && l.[0] = '|' -> (
        match parse_row l with
        | Some row -> take (row :: acc) rest
        | None -> take acc rest)
    | _ -> List.rev acc
  in
  take [] rows

let find_readme () =
  let rec go prefix depth =
    let candidate = Filename.concat prefix "README.md" in
    if Sys.file_exists candidate then candidate
    else if depth = 0 then Alcotest.fail "README.md not found"
    else go (Filename.concat prefix Filename.parent_dir_name) (depth - 1)
  in
  go Filename.current_dir_name 4

let test_readme_table_sync () =
  let rows = readme_devlint_rows (read_file (find_readme ())) in
  check Alcotest.int "row count" (List.length Devlint.Rule.all)
    (List.length rows);
  List.iter2
    (fun rule (id, title, description) ->
      check Alcotest.string "devlint id" (Devlint.Rule.id rule) id;
      check Alcotest.string (id ^ " title") (Devlint.Rule.title rule) title;
      check Alcotest.string (id ^ " description") (Devlint.Rule.describe rule)
        description)
    Devlint.Rule.all rows

let () =
  Alcotest.run "devlint"
    [
      ( "corpus",
        [
          Alcotest.test_case "golden findings per rule" `Quick
            test_corpus_goldens;
          Alcotest.test_case "every rule id fires" `Quick
            test_every_rule_has_a_corpus_hit;
          Alcotest.test_case "regression: pool draining race" `Quick
            test_regress_pool_draining;
          Alcotest.test_case "regression: double close" `Quick
            test_regress_double_close;
          Alcotest.test_case "sorted, deterministic output" `Quick
            test_findings_sorted_and_stable;
        ] );
      ( "precision",
        [
          Alcotest.test_case "mutex sequence suppresses" `Quick
            test_lock_suppression;
          Alcotest.test_case "lock combinator suppresses" `Quick
            test_lock_combinator_suppression;
          Alcotest.test_case "fresh local ref is quiet" `Quick
            test_fresh_local_suppression;
          Alcotest.test_case "atomic is quiet" `Quick test_atomic_is_quiet;
          Alcotest.test_case "no spawn, no DL001" `Quick test_no_spawn_no_dl001;
          Alcotest.test_case "locals do not alias top level" `Quick
            test_local_binding_does_not_alias_toplevel;
          Alcotest.test_case "path scoping" `Quick test_path_scoping;
          Alcotest.test_case "in-function fsync quiets DL004" `Quick
            test_fsync_in_function_quiets_dl004;
          Alcotest.test_case "parse error surfaces" `Quick
            test_parse_error_is_error;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "parse" `Quick test_waiver_parse;
          Alcotest.test_case "justification mandatory" `Quick
            test_waiver_requires_justification;
          Alcotest.test_case "split" `Quick test_waiver_split;
        ] );
      ( "report",
        [ Alcotest.test_case "renderers" `Quick test_report_renderers ] );
      ( "readme",
        [ Alcotest.test_case "rule table in sync" `Quick test_readme_table_sync ]
      );
    ]
