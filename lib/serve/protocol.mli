(** Wire protocol of the synthesis daemon.

    Newline-delimited JSON over a Unix domain socket: each request is one
    JSON object on one line, answered by exactly one JSON object on one
    line. Grammar (DESIGN.md §4i has the full treatment):

    {v
    request  := {"op":"lookup","key":KEY}
              | {"op":"synth","key":KEY, PARAMS}
              | {"op":"batch","jobs":[KEY...], PARAMS}
              | {"op":"stats"}
              | {"op":"shutdown"}
    PARAMS   := "timeout":F? "budget":I? "retries":I "backoff":F "optimize":B
                "deadline":F?
    response := {"ok":true,"type":"served", SERVED}
              | {"ok":true,"type":"jobs","jobs":[{SERVED}...]}
              | {"ok":true,"type":"stats","stats":{...}}
              | {"ok":true,"type":"goodbye"}
              | {"ok":false,"type":"overloaded","retry_after_s":F,"error":S}
              | {"ok":false,"error":S}
    v}

    [KEY] is {!Registry.Key.to_json} / accepted by
    {!Registry.Key.of_json}, so batch job files and wire requests share
    one key grammar. Unknown fields are ignored; a malformed line gets an
    [ok:false] response and the connection stays usable. *)

type synth_params = {
  timeout : float option;  (** Per-attempt deadline, seconds (finite, [>= 0]). *)
  budget : int option;  (** Live-state budget handed to the search. *)
  retries : int;
  backoff : float;
  optimize : bool;  (** Run the certified optimizer pipeline on misses. *)
  deadline : float option;
      (** Finite absolute instant (on the warped {!Fault.Clock}) after which
          the client no longer wants the answer. The server sheds the
          request — before dispatch or at queue claim — once this
          passes, and caps the search timeout at whatever remains. *)
}

val default_params : synth_params
(** [retries = 1], [backoff = 0.05], no timeout/budget, no optimizer —
    the CLI batch defaults. *)

type request =
  | Lookup of Registry.Key.t  (** Cache/registry probe; never synthesizes. *)
  | Synth of Registry.Key.t * synth_params  (** Serve or synthesize. *)
  | Batch of Registry.Key.t list * synth_params
  | Stats
  | Shutdown

type served = {
  status : string;
      (** ["cached"] for hits, else a {!Registry.Scheduler.status_string}
          (["synthesized"], ["timed_out"], ...), ["crashed"] when the
          job's pool worker died, or ["miss"] for a lookup that found
          nothing. *)
  source : string option;
      (** For hits: ["memory"] (LRU) or ["disk"] (store, re-certified on
          load); ["search"] for synthesized results. *)
  canonical : string;  (** {!Registry.Key.canonical} of the request. *)
  kernel : string option;  (** {!Isa.Program.to_string} text. *)
  length : int option;
  degraded : bool;
  rung : int;
  attempts : int;
  elapsed : float;  (** Server-side seconds for this request. *)
  coalesced : bool;
      (** This response rode on another in-flight request's search. *)
  error : string option;
  retry_after : float option;
      (** On shed responses (["overloaded"] / ["circuit_open"]): how
          long the client should back off before retrying, seconds. *)
}
(** One served kernel request — the wire form of a
    {!Registry.Scheduler.job_result}. Load-shedding statuses:
    ["overloaded"] (queue full or draining) and ["circuit_open"] (the
    key's breaker is tripped); both carry [retry_after]. *)

type response =
  | Served of served
  | Jobs of served list  (** Input order. *)
  | Snapshot of Registry.Json.t  (** The [stats] counter object. *)
  | Goodbye  (** Shutdown acknowledged; the daemon exits after sending. *)
  | Refused of string  (** Malformed or unserveable request. *)
  | Overloaded of float
      (** Connection-level shed: the server is at its connection budget
          and refuses the whole connection — typed, never a silent
          close. Carries the retry_after hint in seconds. *)

val request_to_json : request -> Registry.Json.t
val parse_request : string -> (request, string) result

val response_to_json : response -> Registry.Json.t
val parse_response : string -> (response, string) result

val request_line : request -> string
(** Wire form: compact JSON plus the terminating newline. *)

val response_line : response -> string
