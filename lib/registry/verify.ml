let certify = Machine.Exec.certify
let certifications = Machine.Exec.certifications

(* [synth certify]'s exact fallback for an [Unknown] symbolic verdict —
   the only Unknown-to-exact fallback left in the system. *)
let fallback_counter = Atomic.make 0
let exact_fallbacks () = Atomic.get fallback_counter

let fallback cfg p =
  Atomic.incr fallback_counter;
  certify cfg p
