(** Dataflow analysis over straight-line kernels.

    Kernels have no branches, so every classical dataflow problem collapses
    to one linear pass: backward liveness from the exit (where exactly the
    [n] value registers are observable), and forward reaching/initialization
    facts from the entry (where the value registers hold the input, scratch
    registers hold 0, and both comparison flags are clear).

    The novelty relative to textbook liveness is the explicit flags model:
    the [lt]/[gt] comparison flags are tracked as two extra pseudo-registers
    that [cmp] defines (killing both) and [cmovl]/[cmovg] use. A conditional
    move never {e kills} its destination — the old value flows through when
    the flag is clear — so its destination stays live across it. *)

type t

val analyze : Isa.Config.t -> Isa.Program.t -> t
(** Run all analyses. O(len · nregs); never fails. *)

(** {2 Liveness}

    Program {e points} are numbered [0 .. length p]: point [i] sits before
    instruction [i]; point [length p] is the exit. *)

val live_after : t -> int -> int
(** Bitmask of live registers at point [i + 1], after instruction [i]
    (bit [r] = register [r] live). *)

val reg_live_after : t -> int -> int -> bool
(** [reg_live_after t i r]: is register [r] read after instruction [i]
    before being unconditionally overwritten (or observable at exit)? *)

val lt_live_after : t -> int -> bool
val gt_live_after : t -> int -> bool
(** Is the [lt] (resp. [gt]) flag consumed after instruction [i] before the
    next [cmp] redefines it? Flags are dead at the exit. *)

(** {2 Forward facts} *)

val reaching_cmp : t -> int -> int option
(** [reaching_cmp t i] is the index of the [cmp] whose flags are current at
    instruction [i], or [None] if no [cmp] precedes [i] — in which case both
    flags still hold their initial cleared state. *)

val reg_written_before : t -> int -> int -> bool
(** [reg_written_before t i r]: was [r] defined at some point before
    instruction [i]? Value registers count as defined at entry; scratch
    registers do not (they hold the constant 0 until first written). A
    conditional move counts as a definition. *)

(** {2 Def-use chains} *)

val def_uses : t -> int -> int list
(** Instruction indices that consume what instruction [i] defines: for a
    [cmp], the conditional moves before the next [cmp]; for a (conditional)
    move, the readers of its destination before the next unconditional
    overwrite. Ascending order. *)

val is_effective : t -> int -> bool
(** Does instruction [i] define something that is live after it? An
    ineffective instruction is provably removable: deleting it cannot change
    the value registers at exit. *)
