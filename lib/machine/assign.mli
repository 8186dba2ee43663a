(** Packed register assignments.

    A register assignment (paper, Section 2.2) is the complete machine state
    for one input permutation: the contents of the [n] value registers, the
    [m] scratch registers, and the comparison flags. Because values are drawn
    from [0 .. n] (0 is the initial scratch content) and [n <= 6], an
    assignment packs into a single immediate OCaml [int]:

    - bits 0-1: flags (0 = none, 1 = [lt], 2 = [gt]);
    - bits [2 + 3k .. 4 + 3k]: value of register [k].

    This encoding is what makes enumerative search fast: executing an
    instruction is a handful of shifts and masks, and a synthesis state is
    just a sorted [int array]. *)

type code = int

val flag_none : int
val flag_lt : int
val flag_gt : int

val of_values : Isa.Config.t -> int array -> code
(** [of_values cfg vs] packs register values [vs] (length [n + m], each in
    [0..n]) with clear flags. Raises [Invalid_argument] on out-of-range
    input. *)

val of_permutation : Isa.Config.t -> int array -> code
(** Initial assignment for an input permutation: value registers hold the
    permutation, scratch registers hold 0, flags are clear. *)

val reg : Isa.Config.t -> code -> int -> int
(** [reg cfg c k] reads register [k]. *)

val flags : code -> int
(** The 2-bit flag field ({!flag_none} / {!flag_lt} / {!flag_gt}). *)

val values : Isa.Config.t -> code -> int array
(** All register values, value registers first. *)

val value_regs : Isa.Config.t -> code -> int array
(** Just the [n] value registers — the "permutation" projection used by the
    distinct-permutation metric (paper Section 3.1). *)

val perm_key : Isa.Config.t -> code -> int
(** An integer identifying {!value_regs} (the packed value-register bits,
    flags and scratch masked off). Two codes have equal [perm_key] iff their
    value registers agree. *)

val apply : Isa.Config.t -> Isa.Instr.t -> code -> code
(** Execute one instruction. *)

val map_sub :
  Isa.Config.t -> Isa.Instr.t -> code array -> int -> code array -> int -> int -> unit
(** [map_sub cfg i src soff dst doff len] stores [apply cfg i src.(soff + k)]
    into [dst.(doff + k)] for every [k] in [0 .. len - 1] — the whole-array
    form of {!apply}, used to execute one instruction on every assignment
    of a synthesis state. It branches on the opcode once per call instead
    of once per code and allocates nothing. [src] and [dst] may be the same
    array when [soff = doff]. Raises [Invalid_argument] if either range is
    out of bounds. *)

val run : Isa.Config.t -> Isa.Program.t -> code -> code
(** Execute a whole program. *)

val is_sorted : Isa.Config.t -> code -> bool
(** True iff the value registers hold [1, 2, ..., n] in order — the target
    condition when inputs are permutations of [1..n]. *)

val present_values : Isa.Config.t -> code -> int
(** Bitmask of the values present in any register: bit [v] is set iff some
    register holds [v]. An assignment from which a value in [1..n] has been
    erased can never be completed to a sorted permutation (paper
    Section 3.3). *)

val viable : Isa.Config.t -> code -> bool
(** True iff every value [1..n] is still present in some register. *)

val sole_holders : Isa.Config.t -> code -> int
(** Bitmask of the registers that hold a value of [1..n] no other register
    holds: bit [k] is set iff register [k] is that value's only copy.
    Writing any other value into such a register erases the value, so a
    data-moving instruction (its destination differs from its source) that
    fires on [c] with its destination in this mask leaves a code that is
    not {!viable}. *)

val max_code : Isa.Config.t -> int
(** Exclusive upper bound on codes for [cfg] — suitable for dense tables. *)

val pp : Isa.Config.t -> Format.formatter -> code -> unit
(** E.g. [r:1 2 3 s:0 f:lt]. *)
