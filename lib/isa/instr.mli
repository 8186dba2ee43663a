(** Instructions of the sorting-kernel ISA.

    The ISA follows the paper (Section 2.2) and AlphaDev's setting:

    - [mov dst src] — copy register [src] into [dst];
    - [cmp a b] — compare registers [a] and [b], setting the [lt] flag when
      [a < b], the [gt] flag when [a > b], and neither when equal;
    - [cmovl dst src] — copy [src] into [dst] iff [lt] is set;
    - [cmovg dst src] — copy [src] into [dst] iff [gt] is set.

    Operands are 0-based register indices into a {!Config.t} register file. *)

type opcode = Mov | Cmp | Cmovl | Cmovg

type t = { op : opcode; dst : int; src : int }
(** For [Cmp], [dst]/[src] are simply the first and second operand; no
    register is written, only the flags. *)

val mov : int -> int -> t
val cmp : int -> int -> t
val cmovl : int -> int -> t
val cmovg : int -> int -> t

val opcode_name : opcode -> string
(** Lower-case mnemonic: ["mov"], ["cmp"], ["cmovl"], ["cmovg"]. *)

val opcode_letter : opcode -> char
(** One-letter code used in command-combination signatures: ['m'], ['c'],
    ['l'], ['g']. *)

val is_conditional : t -> bool
(** True for [cmovl]/[cmovg]. *)

val writes : t -> int option
(** The register written by the instruction, if any ([None] for [cmp];
    conditional moves report their destination even though the write may not
    happen at run time). *)

val reads : t -> int list
(** Registers the instruction reads unconditionally: a conditional move
    reads its source (and, implicitly, the flags — not included here).
    This is the lint's notion of a read; dependence tracking uses
    {!uses}. *)

val uses : flags:int -> t -> int list
(** The dependence set an instruction consumes, with the flags named by
    the caller's [flags] index (typically [Config.nregs cfg]): [cmp a b]
    uses [a] and [b]; [mov d s] uses [s]; a conditional move uses its
    source, its own destination (the old value survives when the flag is
    clear) and the flags, in that order. The cost models, the pipeline
    simulator and the scheduler all take their dependences from here. *)

val defs : flags:int -> t -> int list
(** The dependence set an instruction produces: [[flags]] for [cmp], the
    destination for a (conditional) move. *)

val valid : Config.t -> t -> bool
(** [valid cfg i] checks operand ranges, [dst <> src] for moves, and the
    canonical-operand-order constraint for comparisons ([dst < src], paper
    Section 3.2: comparing a register with itself is useless, and swapping
    the operands of a [cmp] merely exchanges the roles of [lt] and [gt]). *)

val all : Config.t -> t array
(** [all cfg] enumerates every {!valid} instruction, in a fixed deterministic
    order: all [cmp]s, then [mov]s, then [cmovl]s, then [cmovg]s. The size is
    [C(n+m, 2) + 3 * (n+m) * (n+m-1)]. *)

val to_string : Config.t -> t -> string
(** Render with symbolic names, e.g. ["cmovg r2 s1"]. *)

val to_x86 : Config.t -> t -> string
(** Render as x86-64 AT&T-free Intel syntax, e.g. ["cmovg rbx, rdi"]. *)

val of_string : Config.t -> string -> (t, string) result
(** Parse the {!to_string} form (whitespace- or comma-separated operands).
    Returns [Error] with a description on malformed or out-of-range input. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Config.t -> Format.formatter -> t -> unit
