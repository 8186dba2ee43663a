(* The benchmark's one clock. Every timer in this directory reads
   CLOCK_MONOTONIC through bechamel's stub: the wall clock
   (Unix.gettimeofday) can step under NTP or a manual adjustment and would
   turn a step into a latency sample. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sleep_until t =
  let d = t -. now () in
  if d > 0. then Unix.sleepf d
