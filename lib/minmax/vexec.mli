(** Execution of min/max kernels: packed codes for synthesis and a
    reference interpreter over arbitrary integers.

    Codes pack each register into 3 bits (values [0..n], no flags):
    register [k] occupies bits [3k .. 3k+2]. *)

type program = Vinstr.t array

val of_permutation : Isa.Config.t -> int array -> int
(** Scratch registers start at 0, like the cmov ISA. *)

val reg : int -> int -> int
(** [reg c k] reads register [k] of code [c]. *)

val apply : Vinstr.t -> int -> int
val run_code : program -> int -> int
val is_sorted : Isa.Config.t -> int -> bool
val viable : Isa.Config.t -> int -> bool
val perm_key : Isa.Config.t -> int -> int

val run : Isa.Config.t -> program -> int array -> int array
(** Reference interpreter on native ints; returns the value registers. *)

val sorts_all_permutations : Isa.Config.t -> program -> bool
(** {!run} through the one counted n! loop,
    {!Machine.Exec.first_unsorted}: [true] iff the kernel sorts every
    permutation of [1..n]. *)

val to_string : Isa.Config.t -> program -> string
val to_x86 : Isa.Config.t -> program -> string

val instruction_counts : program -> int * int * int
(** [(movdqa, pmin, pmax)]. *)
