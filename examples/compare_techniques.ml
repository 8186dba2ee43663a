(* Run every synthesis technique in the repository on the same task —
   a sorting kernel for n = 2 — and report what each one finds and at what
   cost. This mirrors the paper's Section 5.2 comparison at a size where
   every technique terminates in seconds; bin/experiments (e6, e7, e10,
   e11) runs the n = 3 versions with realistic budgets.

     dune exec examples/compare_techniques.exe *)

let row name outcome time detail = Printf.printf "%-28s %-22s %-10s %s\n" name outcome time detail

let ts = Printf.sprintf "%.3f s"

let () =
  Printf.printf "%-28s %-22s %-10s %s\n" "technique" "outcome" "time" "detail";
  Printf.printf "%s\n" (String.make 88 '-');
  let n = 2 in
  (* Enumerative (the paper's contribution). *)
  let r = Search.run_mode ~mode:Search.All_optimal (Isa.Config.default n) in
  row "enum (level-sync)"
    (Printf.sprintf "optimal len %d" (Option.get r.Search.optimal_length))
    (ts r.Search.stats.Search.elapsed)
    (Printf.sprintf "%d distinct solutions" r.Search.solution_count);
  (* SMT (bit-blasted onto the in-repo CDCL solver). *)
  let s = Smtlite.synth_cegis Smtlite.cmov ~len:4 n in
  row "SMT-CEGIS"
    (match s.Smtlite.outcome with
    | Smtlite.Found p -> Printf.sprintf "found len %d" (Array.length p)
    | Smtlite.Unsat_length -> "unsat"
    | Smtlite.Budget_exhausted -> "budget")
    (ts s.Smtlite.elapsed)
    (Printf.sprintf "%d CEGIS iterations, %d conflicts" s.Smtlite.cegis_iterations
       s.Smtlite.sat_conflicts);
  let s = Smtlite.synth_perm Smtlite.cmov ~len:3 n in
  row "SMT-PERM (len 3)"
    (match s.Smtlite.outcome with
    | Smtlite.Unsat_length -> "UNSAT: 4 is minimal"
    | _ -> "unexpected")
    (ts s.Smtlite.elapsed) "solver-based minimality proof";
  (* Constraint programming. *)
  let c = Csp.Model.synth Csp.Model.cmov ~len:4 n in
  row "CP (FD propagation)"
    (match c.Csp.Model.outcome with
    | Csp.Model.Found p -> Printf.sprintf "found len %d" (Array.length p)
    | Csp.Model.Exhausted -> "unsat"
    | Csp.Model.Node_limit -> "node limit")
    (ts c.Csp.Model.elapsed)
    (Printf.sprintf "%d nodes" c.Csp.Model.nodes);
  (* ILP. *)
  let i = Ilp.Model.synth ~len:4 n in
  row "ILP (0/1 B&B)"
    (match i.Ilp.Model.outcome with
    | Ilp.Model.Found p -> Printf.sprintf "found len %d" (Array.length p)
    | Ilp.Model.Infeasible -> "infeasible"
    | Ilp.Model.Node_limit -> "node limit")
    (ts i.Ilp.Model.elapsed)
    (Printf.sprintf "%d vars, %d constraints" i.Ilp.Model.variables
       i.Ilp.Model.constraints);
  (* Stochastic search. *)
  let k = Stoke.cold ~opts:{ (Stoke.default n) with Stoke.iterations = 150_000 } n in
  row "STOKE (cold MCMC)"
    (if k.Stoke.correct then Printf.sprintf "found len %d" (Array.length k.Stoke.best)
     else "no correct kernel")
    (ts k.Stoke.elapsed)
    (Printf.sprintf "%d accepted moves" k.Stoke.accepted);
  (* Planning. *)
  let p = Planning.Planner.solve ~max_expansions:500_000 n in
  row "planner (goal-count greedy)"
    (match p.Planning.Planner.plan with
    | Some q -> Printf.sprintf "plan len %d" (Array.length q)
    | None -> "no plan")
    (ts p.Planning.Planner.elapsed)
    (Printf.sprintf "%d expanded" p.Planning.Planner.expanded);
