(* The repository benchmark. See README.md in this directory.

     main.exe --bench [--seed N] [--workload W] [--seconds S] [--out FILE]
                      [--trace FILE] [--smoke] [--validate BENCHMARK.json]
     main.exe --workload W --seed N --seconds S --trace 0|1|FILE

   The first form runs every workload (or W), each in its own re-exec'd
   process, and prints `workload metric value unit q1 q3 n` lines. The
   second runs one workload in this process and ends its output with the
   one-line JSON result. Exit status: 0 when every check passed, 1 when
   one failed, 2 on a usage or environment error. *)

open Benchkit
module Json = Registry.Json

let usage =
  "usage: main.exe --bench [--seed N] [--workload W] [--seconds S] [--out FILE]\n\
  \                        [--trace FILE] [--smoke] [--validate BENCHMARK.json]\n\
  \       main.exe --workload W --seed N --seconds S --trace 0|1|FILE\n"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string ("main.exe: " ^ s ^ "\n" ^ usage);
      exit 2)
    fmt

type args = {
  mutable bench : bool;
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : string option;  (** Spans file; [None]: untraced. *)
  mutable out : string option;
  mutable smoke : bool;
  mutable validate : string option;
  mutable detail : string option;
  mutable probe : string option;
  mutable host_reference : bool;
}

let out_dir = ".benchmark"

let parse argv =
  let a =
    {
      bench = false;
      workload = None;
      seed = 1;
      seconds = None;
      trace = None;
      out = None;
      smoke = false;
      validate = None;
      detail = None;
      probe = None;
      host_reference = false;
    }
  in
  let int_arg flag v =
    match int_of_string_opt v with Some i -> i | None -> die "%s wants an integer, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--bench" :: tl ->
        a.bench <- true;
        go tl
    | "--smoke" :: tl ->
        a.smoke <- true;
        go tl
    | "--workload" :: v :: tl ->
        if Spec.find v = None then die "unknown workload %S" v;
        a.workload <- Some v;
        go tl
    | "--seed" :: v :: tl ->
        a.seed <- int_arg "--seed" v;
        go tl
    | "--seconds" :: v :: tl ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> a.seconds <- Some s
        | _ -> die "--seconds wants a positive number, got %S" v);
        go tl
    | "--trace" :: v :: tl ->
        (* BENCHMARK.json's command passes 0 or 1; anything else names the
           spans file. *)
        a.trace <-
          (match v with
          | "0" -> None
          | "1" -> Some ""
          | path -> Some path);
        go tl
    | "--out" :: v :: tl ->
        a.out <- Some v;
        go tl
    | "--validate" :: v :: tl ->
        a.validate <- Some v;
        go tl
    | "--detail" :: v :: tl ->
        a.detail <- Some v;
        go tl
    | "--probe-setup" :: v :: tl ->
        a.probe <- Some v;
        go tl
    | "--host-reference" :: tl ->
        a.host_reference <- true;
        go tl
    | v :: _ -> die "unknown or incomplete option %S" v
  in
  go (List.tl (Array.to_list argv));
  a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ms xs = Array.map (fun x -> x *. 1e3) xs

(* ---------- one workload, in this process ---------- *)

(* The decomposition of the typical operation: the layer times and the
   residual averaged over the operations whose latency lies within the
   45th..55th percentile, so that they add up to (nearly) the median.
   Medians of the parts would not: the parts are skewed differently. *)
let trace_metrics r (p : Phase.t) ~untraced ~spans ~suite_spans =
  let b = Trace.breakdown ~root:p.Phase.root spans in
  let n = Array.length b.Trace.latency in
  let traced = Stat.median (ms b.Trace.latency) in
  let untraced = Stat.median (ms untraced.Phase.latency) in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare b.Trace.latency.(i) b.Trace.latency.(j)) order;
  (* Ranks symmetric about the median's, so that with few operations the
     band's mean still sits at the median. *)
  let last = float_of_int (n - 1) in
  let lo = int_of_float (Float.floor (0.45 *. last))
  and hi = int_of_float (Float.ceil (0.55 *. last)) in
  let band = Array.sub order lo (hi - lo + 1) in
  let mean xs = Array.fold_left (fun a i -> a +. (xs.(i) *. 1e3)) 0. band /. float_of_int (Array.length band) in
  let residual = mean b.Trace.residual in
  let covered = List.fold_left (fun acc (_, xs) -> acc +. mean xs) residual b.Trace.layers in
  Printf.printf "%-16s traced decomposition of the median operation (ms; %d operations, %d in the p45-p55 band):\n"
    r.Report.workload n (Array.length band);
  List.iter
    (fun (name, xs) -> Printf.printf "%-16s   %-22s %12.4f\n" r.Report.workload name (mean xs))
    b.Trace.layers;
  Printf.printf "%-16s   %-22s %12.4f  (socket, accept, thread spawn, queue and mutex waits, glue)\n"
    r.Report.workload "residual" residual;
  Printf.printf
    "%-16s   %-22s %12.4f  sum of the above; traced median %.4f (gap %.2f%%); untraced median %.4f\n%!"
    r.Report.workload "total" covered traced
    (100. *. Float.abs (covered -. traced) /. traced)
    untraced;
  Report.value r "trace.latency_p50_ms" "ms" traced;
  Report.value r "trace.untraced_p50_ms" "ms" untraced;
  Report.value r "trace.overhead_ms" "ms" (traced -. untraced);
  Report.value r "trace.residual_ms" "ms" residual;
  Report.value r "trace.covered_ms" "ms" covered;
  Report.value r "trace.spans" "count"
    (float_of_int (List.length spans + List.length suite_spans))

(* The end-to-end timings at the nominal host speed (see reference.ml):
   durations times the run's host factor, rates divided by it. *)
let at_nominal_speed r =
  let k = Reference.factor () in
  Reference.stop ();
  Report.samples r "host.reference_ms" "ms" (ms (Array.of_list !Reference.samples));
  List.iter
    (fun (name, k) -> Report.scale r name k)
    [ ("setup_s", k); ("latency_p50_ms", k); ("latency_tail_ms", k); ("throughput_ops", 1. /. k) ]

let run_one (a : args) (w : Spec.workload) =
  let sizing = if a.smoke then Spec.smoke else Spec.full in
  let seconds = Option.value a.seconds ~default:(if a.smoke then 0.5 else Spec.run_seconds) in
  let r = Report.create w.Spec.name in
  let dir = Printf.sprintf "%s/run-%d" out_dir (Unix.getpid ()) in
  mkdir_p dir;
  let body () =
    let p =
      match w.Spec.kind with
      | Spec.Search s -> Offline.search_workload sizing ~workload:w.Spec.name s r
      | Spec.Serve_cold -> Serving.cold_workload sizing ~seed:a.seed ~dir r
    in
    let account (o : Phase.outcome) =
      Report.ops r ~attempted:o.Phase.attempted ~failed:o.Phase.failed
    in
    match a.trace with
    | None ->
        let o = p.Phase.phase ~traced:false ~seconds in
        account o;
        let latency = ms o.Phase.latency in
        let samples = Array.length latency in
        Report.samples r "latency_p50_ms" "ms" latency
          ~value:(Stat.chunked_percentile 50. latency);
        Report.value ~samples r "latency_tail_ms" "ms"
          (Stat.chunked_percentile w.Spec.tail latency);
        Report.value r "throughput_ops" "1/s"
          (float_of_int (o.Phase.attempted - o.Phase.failed) /. o.Phase.busy);
        Report.value r "peak_rss_mb" "MB" (p.Phase.rss_mb ());
        p.Phase.finish ()
    | Some file ->
        let untraced = p.Phase.phase ~traced:false ~seconds:(seconds /. 2.) in
        let traced = p.Phase.phase ~traced:true ~seconds:(seconds /. 2.) in
        account untraced;
        account traced;
        let spans = Trace.take () in
        p.Phase.finish ();
        Trace.enable ();
        Fun.protect ~finally:Trace.disable (fun () ->
            Layers.suite ~seed:a.seed ~dir:(dir ^ "/suite") r);
        let suite_spans = Trace.take () in
        trace_metrics r p ~untraced ~spans ~suite_spans;
        (* A named file collects every workload of a --bench run; the
           default one holds this run alone. *)
        let file =
          if file <> "" then file
          else begin
            let f = Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir w.Spec.name a.seed in
            if Sys.file_exists f then Sys.remove f;
            f
          end
        in
        Trace.append_jsonl file ~workload:w.Spec.name (spans @ suite_spans);
        Printf.printf "%-16s spans appended to %s\n" w.Spec.name file
  in
  (match body () with
  | () -> at_nominal_speed r
  | exception e ->
      Report.check r "workload ran to completion" (Error (Printexc.to_string e)));
  Daemon.kill_all ();
  (try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
  Report.print_table r;
  Option.iter (fun f -> write_file f (Json.to_string (Report.detail_json r))) a.detail;
  let names = List.map fst (if a.trace = None then Spec.end_to_end else Layers.metrics) in
  print_endline (Json.to_string (Report.result_json ~only:names r));
  exit (if Report.correct r then 0 else 1)

(* ---------- --bench: every workload in its own process ---------- *)

let member_list k j =
  match Json.member k j with Some (Json.Arr l) -> l | _ -> []

let str k j =
  match Json.member k j with Some (Json.Str s) -> s | _ -> ""

(* Each run's results against BENCHMARK.json: every declared metric
   present with its unit, every check passed. (That the declarations
   match the runner's tables is a unit test.) *)
let validate ~file ~traced details =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match Json.parse (read_file file) with
  | Error e -> err "%s: %s" file e
  | Ok j ->
      let declared k = List.map (fun m -> (str "name" m, str "unit" m)) (member_list k j) in
      let wanted = declared (if traced then "per_layer" else "end_to_end") in
      List.iter
        (fun d ->
          let w = str "workload" d in
          if Json.member "correct" d <> Some (Json.Bool true) then
            err "%s: a check failed" w;
          let metrics = Json.member "metrics" d in
          List.iter
            (fun (name, unit_) ->
              match Option.bind metrics (Json.member name) with
              | Some m when str "unit" m = unit_ -> ()
              | Some _ -> err "%s: %s has the wrong unit" w name
              | None -> err "%s: %s missing" w name)
            wanted)
        details);
  List.rev !errors

let run_child exe argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  (try
     while true do
       let line = input_line ic in
       (* The JSON result line is for tools; the table above it is the
          human output. *)
       if not (String.length line > 0 && line.[0] = '{') then print_endline line
     done
   with End_of_file -> ());
  close_in ic;
  flush stdout;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _ -> 128

let bench (a : args) =
  let ws =
    match a.workload with
    | Some w -> List.filter (fun x -> x.Spec.name = w) Spec.workloads
    | None -> Spec.workloads
  in
  mkdir_p out_dir;
  let trace_file =
    Option.map
      (fun f -> if f = "" then Printf.sprintf "%s/spans-seed%d.jsonl" out_dir a.seed else f)
      a.trace
  in
  Option.iter (fun f -> write_file f "") trace_file;
  let exe = Sys.executable_name in
  let details =
    List.map
      (fun w ->
        let detail = Printf.sprintf "%s/detail-%d-%s.json" out_dir (Unix.getpid ()) w.Spec.name in
        let argv =
          [ exe; "--workload"; w.Spec.name; "--seed"; string_of_int a.seed;
            "--trace"; Option.value trace_file ~default:"0"; "--detail"; detail ]
          @ (match a.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
          @ if a.smoke then [ "--smoke" ] else []
        in
        let code = run_child exe (Array.of_list argv) in
        let d =
          match Json.parse (read_file detail) with
          | Ok d -> d
          | Error _ | (exception Sys_error _) ->
              Json.Obj [ ("workload", Json.Str w.Spec.name); ("correct", Json.Bool false) ]
        in
        (try Sys.remove detail with Sys_error _ -> ());
        if code <> 0 then Printf.printf "%-16s exited with %d\n%!" w.Spec.name code;
        d)
      ws
  in
  Option.iter
    (fun f ->
      write_file f
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "sortsynth-benchmark/v1");
                ("seed", Json.Int a.seed);
                ("smoke", Json.Bool a.smoke);
                ("traced", Json.Bool (a.trace <> None));
                ("ocaml", Json.Str Sys.ocaml_version);
                ("nproc", Json.Int (Domain.recommended_domain_count ()));
                ("workloads", Json.Arr details);
              ])
        ^ "\n"))
    a.out;
  let all_correct =
    List.for_all (fun d -> Json.member "correct" d = Some (Json.Bool true)) details
  in
  let errors =
    match a.validate with
    | None -> []
    | Some file -> validate ~file ~traced:(a.trace <> None) details
  in
  List.iter (Printf.printf "validate: %s\n") errors;
  if a.validate <> None && errors = [] then print_endline "validate: ok";
  exit (if all_correct && errors = [] then 0 else 1)

let () =
  (* A runner stopped by a signal still stops the daemons it started:
     at_exit runs on [exit], not on death by signal. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let a = parse Sys.argv in
  match (a.probe, a.bench, a.workload) with
  | _ when a.host_reference -> Reference.helper_main ()
  | Some w, _, _ -> (
      match Spec.find w with
      | Some { Spec.kind = Spec.Search s; _ } -> Offline.probe_setup s
      | _ -> die "--probe-setup wants a search workload")
  | None, true, _ -> bench a
  | None, false, Some w -> run_one a (Option.get (Spec.find w))
  | None, false, None -> die "nothing to do"
