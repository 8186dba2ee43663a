(** A CDCL SAT solver.

    The paper's SMT-based synthesis baselines use z3/cvc5; this container is
    sealed, so the reproduction ships its own solver: conflict-driven clause
    learning with two-watched-literal propagation, 1-UIP conflict analysis,
    VSIDS-style activity ordering, phase saving, and Luby restarts. The
    finite-domain synthesis encodings ({!Smtlite}) bit-blast onto it.

    Variables are positive integers [1..n]; a literal is [+v] or [-v]. *)

type result = Sat of bool array | Unsat
(** [Sat model] maps variable [v] to [model.(v)] ([model.(0)] is unused). *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocate and return a fresh variable. *)

val ensure_vars : t -> int -> unit
(** Make sure variables [1..n] exist. *)

val add_clause : t -> int list -> unit
(** Add a disjunction of literals. Adding the empty clause makes the
    instance trivially unsatisfiable. Raises [Invalid_argument] on literal 0
    or an unallocated variable. *)

val solve : ?assumptions:int list -> ?conflict_limit:int -> t -> result option
(** Solve under optional assumption literals. Returns [None] if the
    conflict limit (default: unlimited) is exhausted, otherwise
    [Some (Sat model)] or [Some Unsat]. The solver can be re-solved with
    different assumptions, and clauses can be added between calls
    (incremental use — the CEGIS loop relies on this). *)

val stats_conflicts : t -> int
