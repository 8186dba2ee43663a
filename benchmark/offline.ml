(* The offline workload: a search run the way `synth -n N` runs it.
   Closed loop, one thread. *)

(* What a fresh process pays before its first expansion: process start
   plus [Search.Expand.make_env] (the n=4 options build the distance
   table). The table is cached per process, so every timing is a fresh
   child running [probe_setup]. *)
let probe_setup (s : Spec.search) =
  ignore (Search.Expand.make_env (Spec.config s) s.Spec.opts)

let setup_child ~workload = snd (Daemon.helper [ "--probe-setup"; workload ])

(* Each operation is followed, untimed, by one set-up sample, so that
   the samples span the run instead of one moment of it: on a shared host
   the cost of starting a process shifts between levels for fractions of
   a second at a time. [setup_s] is their median. *)
let search_workload (sz : Spec.sizing) ~workload (s : Spec.search) r =
  let setups = ref [] in
  let op rid =
    let res, dt =
      Mono.time (fun () ->
          Trace.span ~rid "op" (fun root ->
              Trace.span ~rid ~parent:root "search.run" (fun _ ->
                  Spec.run_search s)))
    in
    let verdict = Check.search s res in
    Report.check r "search fingerprint, length and exact certification" verdict;
    setups := setup_child ~workload :: !setups;
    (dt, Result.is_ok verdict)
  in
  if sz.Spec.warmup then begin
    let _, ok = op (-1) in
    Report.ops r ~attempted:1 ~failed:(if ok then 0 else 1)
  end;
  {
    Phase.root = "op";
    phase =
      (fun ~traced ~seconds ->
        Phase.traced ~traced (fun () -> Phase.closed_loop ~seconds op));
    rss_mb = Phase.self_rss_mb;
    finish =
      (fun () -> Report.samples r "setup_s" "s" (Array.of_list (List.rev !setups)));
  }
