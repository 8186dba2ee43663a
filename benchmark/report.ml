(* One workload run's outcome: metrics with their spread, the operations
   attempted and failed, and every correctness check. *)

module Json = Registry.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  q1 : float;
  q3 : float;
  samples : int;
}

type check = { what : string; ok : bool; detail : string }

type t = {
  workload : string;
  mutable metrics : metric list;  (** Newest first. *)
  mutable attempted : int;
  mutable failed : int;
  mutable checks : check list;  (** Newest first. *)
}

let create workload =
  { workload; metrics = []; attempted = 0; failed = 0; checks = [] }

let add r m = r.metrics <- m :: r.metrics

(* A metric over the samples [xs]: [value] (by default their median),
   with their quartiles. *)
let samples ?value r name unit_ xs =
  let q1, median, q3 = Stat.quartiles xs in
  add r
    {
      name;
      unit_;
      value = Option.value value ~default:median;
      q1;
      q3;
      samples = Array.length xs;
    }

(* A metric computed from [samples] samples (by default one value). *)
let value ?(samples = 1) r name unit_ v =
  add r { name; unit_; value = v; q1 = v; q3 = v; samples }

(* Multiply metric [name] by [k], keeping the measured value as
   [raw.<name>]. *)
let scale r name k =
  r.metrics <-
    List.concat_map
      (fun m ->
        if m.name <> name then [ m ]
        else [ { m with value = m.value *. k; q1 = m.q1 *. k; q3 = m.q3 *. k }; { m with name = "raw." ^ name } ])
      r.metrics

(* Record the outcome of check [what]. A check run many times (once per
   operation) is listed once, and keeps its first failure. *)
let check r what result =
  let ok, detail =
    match result with Ok () -> (true, "") | Error e -> (false, e)
  in
  match List.find_opt (fun c -> c.what = what) r.checks with
  | None -> r.checks <- { what; ok; detail } :: r.checks
  | Some c when c.ok && not ok ->
      r.checks <-
        List.map (fun c -> if c.what = what then { what; ok; detail } else c) r.checks
  | Some _ -> ()

let ops r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let correct r = r.failed = 0 && List.for_all (fun c -> c.ok) r.checks
let metrics r = List.rev r.metrics

(* The one-line JSON result that ends a run of BENCHMARK.json's command,
   with the metrics named in [only], in that order. *)
let result_json ~only r =
  let ms = metrics r in
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int (max 1 r.attempted));
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun name ->
               List.find_opt (fun m -> m.name = name) ms
               |> Option.map (fun m ->
                      ( name,
                        Json.Obj
                          [
                            ("value", Json.Float m.value);
                            ("unit", Json.Str m.unit_);
                          ] )))
             only) );
    ]

(* Everything, for --bench --out and the parent of a re-exec'd run. *)
let detail_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "checks",
        Json.Arr
          (List.rev_map
             (fun c ->
               Json.Obj
                 [
                   ("what", Json.Str c.what);
                   ("ok", Json.Bool c.ok);
                   ("detail", Json.Str c.detail);
                 ])
             r.checks) );
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Float m.value);
                     ("unit", Json.Str m.unit_);
                     ("q1", Json.Float m.q1);
                     ("q3", Json.Float m.q3);
                     ("samples", Json.Int m.samples);
                   ] ))
             (metrics r)) );
    ]

(* `workload metric value unit q1 q3 samples`, one line per metric. *)
let print_table r =
  List.iter
    (fun m ->
      Printf.printf "%-16s %-34s %14.6g %-6s q1=%-12.6g q3=%-12.6g n=%d\n"
        r.workload m.name m.value m.unit_ m.q1 m.q3 m.samples)
    (metrics r);
  List.iter
    (fun c ->
      if not c.ok then
        Printf.printf "%-16s CHECK FAILED %s: %s\n" r.workload c.what c.detail)
    (List.rev r.checks);
  Printf.printf "%-16s attempted=%d failed=%d correct=%b\n%!" r.workload
    r.attempted r.failed (correct r)
