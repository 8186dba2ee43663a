(** The repository's one JSON module: a value type, a compact emitter and a
    recursive-descent parser covering RFC 8259 minus surrogate pairing,
    which none of our emitters produce.

    Every JSON document the system writes — search stats snapshots, lint
    and devlint reports, registry metadata, batch and serve replies — is
    built as a {!t} and rendered once by {!to_string}; every document it
    reads (entry metadata, job files, wire messages) goes through
    {!parse}. The library has no dependencies, so every layer can use it. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Number literals without a fraction or exponent. *)
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; rejects trailing garbage. Error messages carry a
    0-based byte offset. *)

val to_string : t -> string
(** Compact rendering. Non-finite floats are clamped to representable
    decimals (JSON has no inf/nan); finite floats print with the fewest
    digits (9 or 17) that read back bit-identical, so {!parse} of the
    output always succeeds and round-trips every finite float. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k], if any; [None] on
    non-objects. *)

val to_int : t -> (int, string) result
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> (float, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val opt : string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** [opt k conv j] reads the optional member [k] of [j]: [Ok None] when
    it is absent or [Null], else [conv] of it. *)

val list : ?item:string -> (t -> ('a, string) result) -> t -> ('a list, string) result
(** [list conv j] is [conv] over the elements of the array [j], in order.
    The first failing element's error wins, prefixed with
    ["<item> <i>: "] (its 0-based index) when [item] is given; a
    non-array fails as {!to_list} does. *)
