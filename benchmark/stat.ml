(* Order statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, median, q3) by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so a
   spread computed here matches one computed from the printed samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stat.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile: the smallest sample with at least [p] percent
   of the samples at or below it. [p] in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples"
  else if not (p > 0. && p <= 100.) then
    invalid_arg "Stat.percentile: p outside (0, 100]"
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

(* The [p] percentile of samples in time order, robust to a rare stall:
   the samples are cut into consecutive chunks just large enough to keep
   ten samples beyond [p] each, and the median of the chunks' percentiles
   is reported. Fewer samples than two chunks need: the plain percentile. *)
let chunked_percentile p xs =
  let n = Array.length xs in
  let chunk = int_of_float (Float.ceil (10. /. (1. -. (p /. 100.)))) in
  let k = if p >= 100. then 0 else n / chunk in
  if k < 2 then percentile p xs
  else
    median
      (Array.init k (fun i ->
           let len = if i = k - 1 then n - (i * chunk) else chunk in
           percentile p (Array.sub xs (i * chunk) len)))
