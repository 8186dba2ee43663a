(** Artifact-style output files.

    The paper's artifact logs each experiment into a results folder
    (sol3_h1.txt, sol4_h1.txt, sol3_minmax.txt, the tSNE embedding, the
    PDDL/MiniZinc encodings, ...). [write ~full dir] regenerates the
    equivalent set from this reproduction so downstream users can diff runs
    and feed the encodings to external solvers. *)

val write : full:bool -> string -> string list
(** Returns the paths written (relative to [dir]). Creates [dir] if
    needed. The single-kernel artifacts (sol<n>_h1.txt) each come from a
    fresh {!Registry.Scheduler.run_key} search. With [full], also
    enumerates all n=3 solutions at cut 2 (the 5602) into
    sol3_allsolutions.txt. *)
