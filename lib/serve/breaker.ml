(* Per-key poison circuit breaker for the synthesis daemon.

   A key whose synthesis reliably crashes a worker or exhausts its state
   budget would otherwise be retried forever by every client that wants
   it — each retry burning a pool worker for the full timeout. The
   breaker tracks *consecutive* poison outcomes (Exhausted / worker
   death) per [Key.canonical]:

       Closed ── K consecutive failures ──▶ Open
       Open ── cooldown elapses (warped clock) ──▶ Half_open
       Half_open ── probe succeeds ──▶ Closed   (recovery)
       Half_open ── probe fails ──▶ Open        (re-trip)

   While Open, [admit] fast-fails with a retry_after hint and no worker
   is touched. Half_open admits exactly one probe; concurrent requests
   for the key are rejected until the probe resolves. Any success —
   including a disk hit — resets the key to Closed.

   All time is read from [Fault.Clock], so trips, cooldowns, and
   half-open probes are deterministic under `clock.warp` fault plans.
   Every transition is counted for the stats snapshot. *)

type phase = Closed | Open | Half_open

type entry = {
  mutable phase : phase;
  mutable failures : int;  (* consecutive poison outcomes *)
  mutable opened_until : float;  (* absolute, on the warped clock *)
}

type t = {
  threshold : int;
  cooldown : float;
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable trips : int;
  mutable half_opens : int;
  mutable recoveries : int;
  mutable rejections : int;
}

type verdict = Allow | Reject of float  (* retry_after seconds *)

let create ~threshold ~cooldown =
  {
    threshold = max 1 threshold;
    cooldown = max 0. cooldown;
    table = Hashtbl.create 16;
    mutex = Mutex.create ();
    trips = 0;
    half_opens = 0;
    recoveries = 0;
    rejections = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let admit t canonical =
  locked t (fun () ->
      match Hashtbl.find_opt t.table canonical with
      | None -> Allow
      | Some e -> (
          match e.phase with
          | Closed -> Allow
          | Open ->
              let now = Fault.Clock.now () in
              if now >= e.opened_until then begin
                (* Cooldown over: admit one probe. *)
                e.phase <- Half_open;
                t.half_opens <- t.half_opens + 1;
                Allow
              end
              else begin
                t.rejections <- t.rejections + 1;
                Reject (e.opened_until -. now)
              end
          | Half_open ->
              (* A probe is in flight; everyone else waits a beat. *)
              t.rejections <- t.rejections + 1;
              Reject t.cooldown))

let success t canonical =
  locked t (fun () ->
      match Hashtbl.find_opt t.table canonical with
      | None -> ()
      | Some e ->
          if e.phase <> Closed then t.recoveries <- t.recoveries + 1;
          Hashtbl.remove t.table canonical)

let failure t canonical =
  locked t (fun () ->
      let e =
        match Hashtbl.find_opt t.table canonical with
        | Some e -> e
        | None ->
            let e = { phase = Closed; failures = 0; opened_until = 0. } in
            Hashtbl.replace t.table canonical e;
            e
      in
      e.failures <- e.failures + 1;
      let trip () =
        e.phase <- Open;
        e.opened_until <- Fault.Clock.now () +. t.cooldown;
        t.trips <- t.trips + 1
      in
      match e.phase with
      | Half_open -> trip () (* the probe failed: straight back to Open *)
      | Closed when e.failures >= t.threshold -> trip ()
      | Closed | Open -> ())

(* The admitted request resolved without exercising the key: shed at
   the queue, expired while queued, drained, or lost to an unrelated
   error. If it was the half-open probe, the key must not stay
   [Half_open] — admit rejects everyone while a probe is "in flight",
   and with the probe gone nothing would ever resolve it — so return it
   to [Open] with a fresh cooldown. Not a trip (the key didn't fail) and
   not a recovery (it didn't succeed); the next cooldown admits a fresh
   probe. Any other phase is untouched. *)
let abort t canonical =
  locked t (fun () ->
      match Hashtbl.find_opt t.table canonical with
      | Some ({ phase = Half_open; _ } as e) ->
          e.phase <- Open;
          e.opened_until <- Fault.Clock.now () +. t.cooldown
      | Some _ | None -> ())

type counters = {
  trips : int;
  half_opens : int;
  recoveries : int;
  rejections : int;
}

let counters t =
  locked t (fun () ->
      {
        trips = t.trips;
        half_opens = t.half_opens;
        recoveries = t.recoveries;
        rejections = t.rejections;
      })

let phase_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

(* Every key the breaker is currently tracking (tripped, probing, or
   accumulating failures), for the stats snapshot. *)
let tracked t =
  locked t (fun () ->
      Hashtbl.fold
        (fun canonical e acc ->
          (canonical, phase_string e.phase, e.failures) :: acc)
        t.table [])
