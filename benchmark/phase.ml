(* What a workload hands the runner once it is set up. *)

type outcome = {
  latency : float array;  (** Seconds per operation, in time order. *)
  attempted : int;
  failed : int;
  busy : float;
      (** Seconds of work behind the completed operations: the wall time
          of the serve clients' loop, the operations' own time for a
          one-thread loop (so the checks and host reference samples between
          operations are not charged). *)
}

type t = {
  root : string;  (** Name of the span that wraps one operation. *)
  phase : traced:bool -> seconds:float -> outcome;
      (** Run operations for about [seconds], tracing them or not. *)
  rss_mb : unit -> float;  (** Peak RSS of the process doing the work. *)
  finish : unit -> unit;  (** Stop what the set-up started. *)
}

(* Run [op rid] until [seconds] have passed, at least once, with host
   reference samples between operations; [op] returns the operation's
   duration and whether its output checked out. *)
let closed_loop ~seconds op =
  let t0 = Mono.now () in
  let samples = ref [] and failed = ref 0 and count = ref 0 in
  while !count = 0 || Mono.now () -. t0 < seconds do
    let dt, ok = op !count in
    incr count;
    samples := dt :: !samples;
    if not ok then incr failed;
    Reference.tick ()
  done;
  let latency = Array.of_list (List.rev !samples) in
  {
    latency;
    attempted = !count;
    failed = !failed;
    busy = Array.fold_left ( +. ) 0. latency;
  }

let traced ~traced f =
  if traced then Trace.enable ();
  Fun.protect ~finally:Trace.disable f

let self_rss_mb () = Daemon.peak_rss_mb "self"
