(** Kernel certification at the registry's trust boundary.

    Nothing leaves the store unchecked: every load and insert runs the
    system's one certifier, {!Machine.Exec.certify} (all [n!]
    permutations), so a corrupted or stale entry can never be served.
    The registry calls that function directly; this module keeps the
    [certify] and [certifications] names for existing callers and owns
    the counter of [synth certify]'s exact fallbacks. It adds no second
    certifier. *)

val certify : Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** Alias of {!Machine.Exec.certify}: [Ok ()] iff the program sorts all
    permutations; the error names the first failing input and the
    produced output. *)

val certifications : unit -> int
(** Alias of {!Machine.Exec.certifications}: exact [n!] runs in this
    process, ever. Monotone; compare readings. *)

val fallback : Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** {!certify}, ticking {!exact_fallbacks}. [synth certify] runs it when
    the symbolic certifier ({!Analysis.Symcert}) answers [Unknown]. *)

val exact_fallbacks : unit -> int
(** [Unknown] symbolic verdicts that {!fallback} settled with the exact
    check. Monotone. Only [synth certify] produces them: no trust boundary
    runs the symbolic certifier. *)
