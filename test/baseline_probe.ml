(* One text line per SMT or CP synthesis run, for test_baseline_pins: the
   outcome, the kernel and the solver counters, in a form that does not
   depend on how the solver modules spell their calls and results. *)

type isa = Cmov | Minmax
type smt_variant = Smt_default | Smt_ascending | Smt_no_heuristics | Smt_first_cmp

type cp_variant =
  | Cp_default
  | Cp_exact
  | Cp_no_i
  | Cp_no_ii
  | Cp_no_i_ii
  | Cp_first_cmp
  | Cp_no_erasure

let one_line s = String.concat "; " (String.split_on_char '\n' s)

let found ~len text =
  Printf.sprintf "found len=%d kernel=[%s]" len (one_line text)

let cmov_found n p =
  found ~len:(Array.length p) (Isa.Program.to_string (Isa.Config.default n) p)

let minmax_found n p =
  found ~len:(Array.length p) (Minmax.Vexec.to_string (Isa.Config.default n) p)

(* Min/max results print no CEGIS iteration count: they had none when the
   pins were taken. *)
let smt_run isa print strategy ~goal ~heuristics ~iters ?conflict_limit ~len n
    =
  let synth =
    match strategy with
    | `Perm -> Smtlite.synth_perm
    | `Cegis -> Smtlite.synth_cegis
  in
  let r = synth ?goal ?heuristics ?conflict_limit isa ~len n in
  let outcome =
    match r.Smtlite.outcome with
    | Smtlite.Found p -> print n p
    | Smtlite.Unsat_length -> "unsat"
    | Smtlite.Budget_exhausted -> "budget"
  in
  Printf.sprintf "%s conflicts=%d inputs=%d iters=%s" outcome
    r.Smtlite.sat_conflicts r.Smtlite.encoded_inputs
    (if iters then string_of_int r.Smtlite.cegis_iterations else "-")

let smt isa strategy ?(variant = Smt_default) ?conflict_limit ~len n =
  let goal, heuristics =
    match variant with
    | Smt_default -> (None, None)
    | Smt_ascending -> (Some Smtlite.Goal_ascending_present, None)
    | Smt_no_heuristics -> (None, Some Smtlite.no_heuristics)
    | Smt_first_cmp ->
        ( None,
          Some { Smtlite.default_heuristics with Smtlite.first_is_cmp = true } )
  in
  match isa with
  | Cmov ->
      smt_run Smtlite.cmov cmov_found strategy ~goal ~heuristics ~iters:true
        ?conflict_limit ~len n
  | Minmax ->
      assert (variant = Smt_default);
      smt_run Smtlite.minmax minmax_found strategy ~goal ~heuristics
        ~iters:false ?conflict_limit ~len n

let cp_opts = function
  | Cp_default -> Csp.Model.default
  | Cp_exact -> { Csp.Model.default with Csp.Model.goal = Csp.Model.Goal_exact }
  | Cp_no_i -> { Csp.Model.default with Csp.Model.no_consecutive_cmp = false }
  | Cp_no_ii -> { Csp.Model.default with Csp.Model.cmp_symmetry = false }
  | Cp_no_i_ii ->
      {
        Csp.Model.default with
        Csp.Model.no_consecutive_cmp = false;
        cmp_symmetry = false;
      }
  | Cp_first_cmp -> { Csp.Model.default with Csp.Model.first_is_cmp = true }
  | Cp_no_erasure -> { Csp.Model.default with Csp.Model.erasure_pruning = false }

let cp_run isa print ~opts ?node_limit ?all_solutions ~len n =
  let r = Csp.Model.synth ~opts ?node_limit ?all_solutions isa ~len n in
  let outcome =
    match r.Csp.Model.outcome with
    | Csp.Model.Found p -> print n p
    | Csp.Model.Exhausted -> "exhausted"
    | Csp.Model.Node_limit -> "node-limit"
  in
  Printf.sprintf "%s nodes=%d solutions=%d" outcome r.Csp.Model.nodes
    (List.length r.Csp.Model.solutions)

let cp isa ?(variant = Cp_default) ?node_limit ?all_solutions ~len n =
  match isa with
  | Cmov ->
      cp_run Csp.Model.cmov cmov_found ~opts:(cp_opts variant) ?node_limit
        ?all_solutions ~len n
  | Minmax ->
      (* The min/max model has always used the exact goal. *)
      assert (variant = Cp_default);
      cp_run Csp.Model.minmax minmax_found ~opts:(cp_opts Cp_exact) ?node_limit
        ?all_solutions ~len n
