(* Regenerate the paper's tables and figures. With no arguments, runs every
   experiment at the default (seconds-scale) budgets; pass experiment ids
   (e1..e21) to select, and --full to lift the budget reductions. *)

open Cmdliner

let run list_only full out ids =
  (match out with
  | Some dir ->
      let files = Harness.Artifacts.write ~full dir in
      Printf.printf "wrote %d artifact files to %s:\n" (List.length files) dir;
      List.iter (fun f -> Printf.printf "  %s\n" f) files
  | None -> ());
  if list_only then begin
    List.iter
      (fun s ->
        Printf.printf "%-4s %-55s %s\n" s.Harness.Experiments.id
          s.Harness.Experiments.title s.Harness.Experiments.paper_ref)
      Harness.Experiments.all;
    `Ok ()
  end
  else
    match Harness.Experiments.run_ids ~full ids with
    | () -> `Ok ()
    | exception Invalid_argument m -> `Error (false, m)

let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let full =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:
          "Lift budget reductions (full n=3 k=2 enumeration, n=5 synthesis, \
           bigger solver budgets). Expect tens of minutes.")

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e1..e21).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Also write artifact-style result files (solution dumps, tSNE \
           coordinates, PDDL and MiniZinc encodings) to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the tables and figures of 'Synthesis of Sorting Kernels' (CGO'25)")
    Term.(ret (const run $ list_only $ full $ out $ ids))

let () = exit (Cmd.eval cmd)
