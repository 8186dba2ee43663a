(* Newline-delimited JSON protocol for the synthesis daemon.

   One request object per line, one response object per line, over a
   Unix domain socket. Both ends build on Registry.Json — the same
   parser the registry trusts for its metadata records — so the daemon
   introduces no second JSON dialect. *)

module Json = Registry.Json
module Key = Registry.Key

type synth_params = {
  timeout : float option;
  budget : int option;
  retries : int;
  backoff : float;
  optimize : bool;
  deadline : float option;
      (* Absolute, on the fault clock: the instant after which the client
         no longer wants the answer. The server sheds the request if it
         expires while queued instead of burning a worker on it. *)
}

let default_params =
  {
    timeout = None;
    budget = None;
    retries = 1;
    backoff = 0.05;
    optimize = false;
    deadline = None;
  }

type request =
  | Lookup of Key.t
  | Synth of Key.t * synth_params
  | Batch of Key.t list * synth_params
  | Stats
  | Shutdown

type served = {
  status : string;
  source : string option;
  canonical : string;
  kernel : string option;
  length : int option;
  degraded : bool;
  rung : int;
  attempts : int;
  elapsed : float;
  coalesced : bool;
  error : string option;
  retry_after : float option;
      (* Shed responses ("overloaded" / "circuit_open") carry a hint for
         how long the client should back off before retrying. *)
}

type response =
  | Served of served
  | Jobs of served list
  | Snapshot of Json.t
  | Goodbye
  | Refused of string
  | Overloaded of float
      (* Connection-level shed: the server is at its connection budget
         (or draining) and refuses the whole connection — typed, never a
         silent close. Carries the retry_after hint in seconds. *)

(* ---------- requests ---------- *)

let params_fields p =
  List.concat
    [
      (match p.timeout with Some s -> [ ("timeout", Json.Float s) ] | None -> []);
      (match p.budget with Some b -> [ ("budget", Json.Int b) ] | None -> []);
      [ ("retries", Json.Int p.retries) ];
      [ ("backoff", Json.Float p.backoff) ];
      [ ("optimize", Json.Bool p.optimize) ];
      (match p.deadline with
      | Some d -> [ ("deadline", Json.Float d) ]
      | None -> []);
    ]

let request_to_json = function
  | Lookup key -> Json.Obj [ ("op", Json.Str "lookup"); ("key", Key.to_json key) ]
  | Synth (key, p) ->
      Json.Obj (("op", Json.Str "synth") :: ("key", Key.to_json key) :: params_fields p)
  | Batch (keys, p) ->
      Json.Obj
        (("op", Json.Str "batch")
        :: ("jobs", Json.Arr (List.map Key.to_json keys))
        :: params_fields p)
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let ( let* ) = Result.bind

let bool what = function Json.Bool b -> Ok b | _ -> Error (what ^ ": expected bool")

let params_of_json j =
  let* timeout = Json.opt "timeout" Json.to_float j in
  let* budget = Json.opt "budget" Json.to_int j in
  let* retries = Json.opt "retries" Json.to_int j in
  let* backoff = Json.opt "backoff" Json.to_float j in
  let* optimize = Json.opt "optimize" (bool "optimize") j in
  let* deadline = Json.opt "deadline" Json.to_float j in
  let d = default_params in
  let retries = Option.value retries ~default:d.retries
  and backoff = Option.value backoff ~default:d.backoff
  and optimize = Option.value optimize ~default:d.optimize in
  let absent_or ok = Option.fold ~none:true ~some:ok in
  if retries < 0 then Error "retries: must be >= 0"
  else if backoff < 0. then Error "backoff: must be >= 0"
  else if not (absent_or (fun s -> Float.is_finite s && s >= 0.) timeout) then
    Error "timeout: must be a finite number >= 0"
  else if not (absent_or Float.is_finite deadline) then Error "deadline: must be finite"
  else Ok { timeout; budget; retries; backoff; optimize; deadline }

let request_of_json j =
  match Json.member "op" j with
  | None -> Error "request: missing \"op\""
  | Some op -> (
      let* op = Json.to_str op in
      match op with
      | "lookup" | "synth" -> (
          match Json.member "key" j with
          | None -> Error (Printf.sprintf "%s: missing \"key\"" op)
          | Some kj ->
              let* key = Key.of_json kj in
              if op = "lookup" then Ok (Lookup key)
              else
                let* p = params_of_json j in
                Ok (Synth (key, p)))
      | "batch" -> (
          match Json.member "jobs" j with
          | None -> Error "batch: missing \"jobs\""
          | Some jobs ->
              let* keys = Json.list Key.of_json jobs in
              let* p = params_of_json j in
              Ok (Batch (keys, p)))
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "request: unknown op %S" other))

let parse_request line =
  let* j = Json.parse line in
  request_of_json j

(* ---------- responses ---------- *)

let opt_str = function Some s -> Json.Str s | None -> Json.Null
let opt_int = function Some i -> Json.Int i | None -> Json.Null
let opt_float = function Some f -> Json.Float f | None -> Json.Null

let served_fields s =
  [
    ("status", Json.Str s.status);
    ("source", opt_str s.source);
    ("canonical", Json.Str s.canonical);
    ("kernel", opt_str s.kernel);
    ("length", opt_int s.length);
    ("degraded", Json.Bool s.degraded);
    ("rung", Json.Int s.rung);
    ("attempts", Json.Int s.attempts);
    ("elapsed_s", Json.Float s.elapsed);
    ("coalesced", Json.Bool s.coalesced);
    ("error", opt_str s.error);
    ("retry_after_s", opt_float s.retry_after);
  ]

let response_to_json = function
  | Served s ->
      Json.Obj (("ok", Json.Bool true) :: ("type", Json.Str "served") :: served_fields s)
  | Jobs jobs ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("type", Json.Str "jobs");
          ("jobs", Json.Arr (List.map (fun s -> Json.Obj (served_fields s)) jobs));
        ]
  | Snapshot j ->
      Json.Obj [ ("ok", Json.Bool true); ("type", Json.Str "stats"); ("stats", j) ]
  | Goodbye -> Json.Obj [ ("ok", Json.Bool true); ("type", Json.Str "goodbye") ]
  | Refused msg -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
  | Overloaded retry_after ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("type", Json.Str "overloaded");
          ("error", Json.Str "server overloaded: connection budget exhausted");
          ("retry_after_s", Json.Float retry_after);
        ]

(* A served answer's optional members are lenient: absent, null or
   mistyped reads as absent. *)
let lenient j name conv = Option.join (Result.to_option (Json.opt name conv j))

let served_of_json j =
  let get name conv = lenient j name conv in
  let need name =
    Option.to_result ~none:(Printf.sprintf "served: missing %S" name) (get name Json.to_str)
  in
  let flag name = get name (bool name) = Some true in
  let* status = need "status" in
  let* canonical = need "canonical" in
  Ok
    {
      status;
      source = get "source" Json.to_str;
      canonical;
      kernel = get "kernel" Json.to_str;
      length = get "length" Json.to_int;
      degraded = flag "degraded";
      rung = Option.value (get "rung" Json.to_int) ~default:0;
      attempts = Option.value (get "attempts" Json.to_int) ~default:0;
      elapsed = Option.value (get "elapsed_s" Json.to_float) ~default:0.;
      coalesced = flag "coalesced";
      error = get "error" Json.to_str;
      retry_after = get "retry_after_s" Json.to_float;
    }

let response_of_json j =
  match Json.member "ok" j with
  | Some (Json.Bool false) -> (
      match Json.member "type" j with
      | Some (Json.Str "overloaded") ->
          Ok (Overloaded (Option.value (lenient j "retry_after_s" Json.to_float) ~default:0.1))
      | _ -> (
          match Json.member "error" j with
          | Some (Json.Str msg) -> Ok (Refused msg)
          | _ -> Ok (Refused "unspecified server error")))
  | Some (Json.Bool true) -> (
      match Json.member "type" j with
      | Some (Json.Str "served") -> Result.map (fun s -> Served s) (served_of_json j)
      | Some (Json.Str "jobs") -> (
          match Json.member "jobs" j with
          | Some (Json.Arr _ as jobs) ->
              Result.map (fun served -> Jobs served) (Json.list served_of_json jobs)
          | _ -> Error "jobs response: missing \"jobs\" array")
      | Some (Json.Str "stats") -> (
          match Json.member "stats" j with
          | Some stats -> Ok (Snapshot stats)
          | None -> Error "stats response: missing \"stats\"")
      | Some (Json.Str "goodbye") -> Ok Goodbye
      | Some (Json.Str other) -> Error (Printf.sprintf "response: unknown type %S" other)
      | _ -> Error "response: missing \"type\"")
  | _ -> Error "response: missing \"ok\""

let parse_response line =
  let* j = Json.parse line in
  response_of_json j

let request_line r = Json.to_string (request_to_json r) ^ "\n"
let response_line r = Json.to_string (response_to_json r) ^ "\n"
