let write_file dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  name

let kernel_header cfg r =
  Printf.sprintf "# synthesized in %.3f s, %d states expanded, length %s\n"
    r.Search.stats.Search.elapsed r.Search.stats.Search.expanded
    (match r.Search.optimal_length with
    | Some l -> string_of_int l
    | None -> "-")
  ^
  match r.Search.programs with
  | p :: _ -> Isa.Program.to_string cfg p ^ "\n"
  | [] -> "# no solution\n"

let write ~full dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let out = ref [] in
  let add name contents = out := write_file dir name contents :: !out in
  (* sol<n>_h1.txt: first kernel with the best configuration. *)
  List.iter
    (fun n ->
      let engine = if n >= 4 then Registry.Key.Level else Registry.Key.Astar in
      let key = Registry.Key.make ~engine n in
      let o = Registry.Scheduler.run_key key in
      add
        (Printf.sprintf "sol%d_h1.txt" n)
        (kernel_header (Isa.Config.default n) o.Registry.Scheduler.result))
    (if full then [ 2; 3; 4 ] else [ 2; 3 ]);
  (* All n=3 solutions under the given cut. *)
  let all3 k =
    Search.run_mode
      ~opts:
        {
          Search.best with
          Search.engine = Search.Level_sync;
          action_filter = Search.All_actions;
          cut = Search.Mult k;
          max_solutions = 6000;
        }
      ~mode:Search.All_optimal (Isa.Config.default 3)
  in
  let cfg3 = Isa.Config.default 3 in
  let dump_solutions r =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "# %d solutions (%d reconstructed)\n"
         r.Search.solution_count
         (List.length r.Search.programs));
    List.iteri
      (fun i p ->
        Buffer.add_string b (Printf.sprintf "## solution %d\n" i);
        Buffer.add_string b (Isa.Program.to_string cfg3 p);
        Buffer.add_char b '\n')
      r.Search.programs;
    Buffer.contents b
  in
  add "sol3_h1_allsolutions.txt" (dump_solutions (all3 1.0));
  if full then add "sol3_allsolutions.txt" (dump_solutions (all3 2.0));
  (* Min/max kernels. *)
  List.iter
    (fun n ->
      let r = Minmax.synthesize n in
      let body =
        match r.Search.programs with
        | p :: _ ->
            Printf.sprintf "# %d instructions in %.3f s\n%s\n" (Array.length p)
              r.Search.stats.Search.elapsed
              (Minmax.Vexec.to_string (Isa.Config.default n) p)
        | [] -> "# no solution\n"
      in
      add (Printf.sprintf "sol%d_minmax.txt" n) body)
    (if full then [ 3; 4; 5 ] else [ 3; 4 ]);
  (* tSNE embedding of the k=1 solution space (CSV). *)
  let r1 = all3 1.0 in
  let features p =
    Array.concat
      (List.map
         (fun i ->
           [|
             (match i.Isa.Instr.op with
             | Isa.Instr.Mov -> 0.
             | Isa.Instr.Cmp -> 1.
             | Isa.Instr.Cmovl -> 2.
             | Isa.Instr.Cmovg -> 3.);
             float_of_int i.Isa.Instr.dst;
             float_of_int i.Isa.Instr.src;
           |])
         (Array.to_list p))
  in
  (match r1.Search.programs with
  | _ :: _ :: _ :: _ :: _ ->
      let pts = Array.of_list (List.map features r1.Search.programs) in
      let emb = Tsne.embed ~opts:{ Tsne.default with Tsne.iterations = 200 } pts in
      let b = Buffer.create 4096 in
      Buffer.add_string b "solution,x,y\n";
      Array.iteri
        (fun i p -> Buffer.add_string b (Printf.sprintf "%d,%.4f,%.4f\n" i p.(0) p.(1)))
        emb;
      add "tsne_scattered_a70_p50_i300.csv" (Buffer.contents b)
  | _ -> ());
  (* Encodings for external tools. *)
  add "domain.pddl" (Planning.Pddl.domain cfg3);
  add "problem_sort3.pddl" (Planning.Pddl.problem cfg3);
  add "sort3_len11.mzn" (Csp.Minizinc.emit ~len:11 3);
  add "sort2_len4.mzn" (Csp.Minizinc.emit ~len:4 2);
  List.rev !out
