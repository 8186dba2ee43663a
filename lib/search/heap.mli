(** Minimal binary min-heap over integer priorities.

    The A* engine pushes search nodes keyed by [f = g + h]. Ties are broken
    by insertion order (FIFO), which keeps runs deterministic. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return a minimum-priority element. *)
