(** The min/max (vector) ISA variant (paper, Sections 2.1 and 5.4).

    Kernels over the vector register file use three two-address
    instructions, all unconditional (there are no flags):

    - [movdqa dst src] — copy [src] into [dst];
    - [pmin dst src] — [dst := min dst src];
    - [pmax dst src] — [dst := max dst src].

    A compare-and-swap costs three instructions here versus four in the
    cmov ISA, and synthesized kernels beat the network implementation by
    one instruction for n = 3 (8 vs 9) and by one for n = 5 (26 vs 27). *)

type op = Movdqa | Pmin | Pmax
type t = { op : op; dst : int; src : int }

val movdqa : int -> int -> t
val pmin : int -> int -> t
val pmax : int -> int -> t

val valid : Isa.Config.t -> t -> bool
(** Operand ranges and [dst <> src] ([pmin x x] and [movdqa x x] are
    no-ops; [pmax x x] likewise). *)

val all : Isa.Config.t -> t array
(** Every valid instruction: [3 * (n+m) * (n+m-1)] of them. *)

val to_string : Isa.Config.t -> t -> string
(** Symbolic names [x1..xn, t1..tm], e.g. ["pmin x1 t1"]. *)

val to_x86 : Isa.Config.t -> t -> string
(** x86 SSE4.1 rendering, e.g. ["pminsd xmm0, xmm7"]. *)
