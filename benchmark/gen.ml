(* Seeded inputs. The seed is an argument of the benchmark; the program
   under test only ever sees what these functions produce. Each generator
   draws from its own stream, so adding a draw to one cannot shift the
   values of another. *)

let stream ~seed tag = Random.State.make [| seed; tag |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The n=3 request space of the serve workloads: engine x heuristic x cut
   factor 1.000..1.166 x length bound, 3,006 keys, each with its own
   canonical form and each synthesized in tens of milliseconds. At n=3
   every factor below 7/6 prunes as [Mult 1.0] does (permutation counts
   are at most 6), so the keys cost alike; from 7/6 on a search costs
   more than twice as much. A 55-second serve-cold run uses about 2,300 of
   them. Cut factors are built from their three-decimal wire form, so a
   key decoded by the daemon equals the one built here. *)
let cold_space () =
  let keys = ref [] in
  List.iter
    (fun engine ->
      List.iter
        (fun heuristic ->
          for step = 0 to 166 do
            let factor =
              float_of_string
                (Printf.sprintf "%.3f" (1.0 +. (float_of_int step /. 1000.)))
            in
            List.iter
              (fun max_len ->
                keys :=
                  Registry.Key.make ~engine ~heuristic
                    ~cut:(Search.Mult factor) ?max_len 3
                  :: !keys)
              [ None; Some 12; Some 13 ]
          done)
        [ Search.Perm_count; Search.Assign_count; Search.Dist_bound ])
    [ Registry.Key.Astar; Registry.Key.Level ];
  Array.of_list (List.rev !keys)

(* A seeded draw without replacement from [cold_space]: position [i] is
   the [i]-th key a run uses. [tag] separates independent draws. *)
let cold_keys ?(tag = 1) ~seed () =
  let a = cold_space () in
  shuffle (stream ~seed tag) a;
  a

(* Whether request [i] asks for the optimizer: a seeded half. *)
let optimize_flags ~seed count =
  let st = stream ~seed 2 in
  Array.init count (fun _ -> Random.State.bool st)

(* Zipf(s) over ranks [0, n): rank k is drawn with weight 1/(k+1)^s. *)
type zipf = float array (* cumulative, last = 1 *)

let zipf ~s n =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let zipf_draw (cdf : zipf) st =
  let u = Random.State.float st 1.0 in
  (* First rank whose cumulative weight exceeds u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Poisson arrivals: exponential gaps with mean [1 / rate] seconds. *)
let poisson_gap st ~rate = -.Float.log (1. -. Random.State.float st 1.0) /. rate

(* The embedded-sort input: the paper's value range [-10000, 10000]. *)
let sort_input ~seed len =
  let st = stream ~seed 3 in
  Array.init len (fun _ -> Random.State.int st 20001 - 10000)
