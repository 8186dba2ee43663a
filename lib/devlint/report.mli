(** Rendering a devlint run. Both renderers are deterministic given the
    same inputs — the CI gate and the golden tests depend on byte-stable
    output — and both show the same three sections: unwaived findings,
    waived findings (with their justification), and stale waivers. *)

type run = {
  unwaived : Lint.finding list;
  waived : (Lint.finding * Waivers.t) list;
  unused : Waivers.t list;
  errors : (string * string) list;  (** (path, parse/IO error) *)
  files_scanned : int;
}

val text : run -> string
(** Human output: [file:line:col: DLxxx[title] message; fix: hint] per
    finding, then waived/stale sections and a one-line summary. *)

val json : run -> Json.t
(** Machine output as one JSON object
    [{"files_scanned":N,"findings":[…],"waived":[…],"stale_waivers":[…],
    "errors":[…],"ok":B}], built on the shared {!Json} module; render it
    with {!Json.to_string}. *)

val exit_code : run -> int
(** 0 when there is nothing unwaived and no scan errors, 1 otherwise. *)
