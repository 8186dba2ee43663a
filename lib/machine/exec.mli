(** Reference interpreter and correctness checking.

    {!Assign} executes on packed small-domain codes; this module executes the
    same ISA on arbitrary integer arrays. It serves three purposes: a slow
    but obviously-correct oracle for property-testing the packed executor, a
    way to run synthesized kernels on arbitrary inputs (e.g. the random
    workloads of Section 5.3), and the checker for the paper's correctness
    criterion (Eq. 1). *)

type state = { regs : int array; mutable lt : bool; mutable gt : bool }
(** Mutable machine state over native integers. [regs] has [n + m] cells. *)

val init : Isa.Config.t -> int array -> state
(** [init cfg input] loads [input] (length [n]) into the value registers,
    zeroes the scratch registers and clears the flags. *)

val step : state -> Isa.Instr.t -> unit
(** Execute one instruction in place. *)

val run : Isa.Config.t -> Isa.Program.t -> int array -> int array
(** [run cfg p input] executes [p] on a fresh state and returns the final
    value-register contents (length [n]). *)

val output_correct : input:int array -> output:int array -> bool
(** Eq. 1: the output is weakly ascending and is a rearrangement of the
    input. *)

val certify : Isa.Config.t -> Isa.Program.t -> (unit, string) result
(** The paper's correctness procedure (Section 2.3, Eq. 1) and the system's
    one certifier: run the kernel on all [n!] permutations of [1..n] and
    check each result is [1..n]. Complete for arbitrary inputs because the
    ISA is constant-free. [Ok ()] iff the kernel sorts; the error message
    names the first failing input and the produced output, suitable for
    printing verbatim. Every trust boundary (registry load and insert,
    serve admission, the CLI), every rewrite proof ({!prove_rewrite})
    and every analysis verdict runs this check. *)

val counterexample : Isa.Config.t -> Isa.Program.t -> int array option
(** The same check, returning the first permutation of [1..n] (in
    lexicographic order) the program fails to sort, if any. Used as the
    oracle in CEGIS loops. *)

val sorts_all_permutations : Isa.Config.t -> Isa.Program.t -> bool
(** The same check as a predicate: [counterexample cfg p = None]. *)

val first_unsorted : int -> (int array -> int array) -> int array option
(** [first_unsorted n run]: the n! loop under every check above, for any
    machine. [run] is the machine's own interpreter, mapping a
    permutation of [1..n] to its value registers; the result is the first
    permutation (in lexicographic order) it does not map to [1..n]. The
    min/max, hybrid and sorting-network checks run through here, so they
    count in {!certifications} too. *)

val certifications : unit -> int
(** Exact [n!] runs ({!first_unsorted}, and so {!certify},
    {!counterexample}, {!sorts_all_permutations} and every other ISA's
    check) in this process, ever. Monotone; compare readings — the daemon
    exports the delta so a warm cache hit can be shown to have skipped
    re-certification. *)

type verdict =
  | Equivalent
  | Differs of { input : int array; out_a : int array; out_b : int array }
      (** The lexicographically first permutation of [1..n] on which the
          kernels' value-register outputs differ. *)

val equiv : Isa.Config.t -> Isa.Program.t -> Isa.Program.t -> verdict
(** Exact kernel equivalence: do the value-register outputs agree on all
    [n!] input permutations? By the constant-free argument that makes
    {!certify} complete, agreement there implies agreement on arbitrary
    inputs. Neither kernel needs to sort. Scratch contents and flags are
    not observable; [cfg] must be wide enough for both kernels. Not a
    certification: it does not tick {!certifications}. *)

val prove_rewrite :
  Isa.Config.t -> pass:string -> Isa.Program.t -> Isa.Program.t -> (bool, string) result
(** [prove_rewrite cfg ~pass before after]: the one proof every rewrite
    of a kernel must pass before it replaces [before] — the optimizer's
    passes ({!Opt.Pipeline}) and dead-code elimination
    ({!Analysis.Dce}) alike. First {!equiv}[ before after]; then, when
    [before] certifies, [after] must re-certify — an independent second
    proof, so a bug in either check is caught by the other. [Ok sorts]
    says whether [before] (and therefore [after]) sorts. An [Error]
    names [pass]; an equivalence failure also names a concrete
    counterexample permutation and both outputs. Ticks {!certifications}
    once when [before] does not sort, twice when it does.

    The sound-for-networks 0-1 shortcut ({!Zeroone}) is deliberately not
    used: the paper's §2.3 witness sorts all [2^n] binary inputs yet
    fails on a permutation, so a proof over arbitrary kernels must
    quantify over all [n!] permutations. *)

val sorts_random_suite :
  Isa.Config.t -> Isa.Program.t -> seed:int -> cases:int -> lo:int -> hi:int -> bool
(** Fuzz check on [cases] random arrays with values in [lo..hi] (duplicates
    allowed) — validates the constant-free argument empirically. *)
