(** The A* open list: a min-priority queue over integer priorities.

    One FIFO queue per distinct priority, kept in a map ordered by
    priority. Elements pop in ascending priority and, among equal
    priorities, in insertion order (FIFO), which keeps runs
    deterministic. Any [int] is a valid priority. Both operations cost
    O(log k) for k distinct priorities currently held, which for a
    search's [f = g + h] values is a few dozen at most. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
(** Number of elements held. *)

val push : 'a t -> int -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio], after every element
    already held at [prio]. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the first-inserted element of the minimum
    priority, with that priority; [None] when empty. *)
