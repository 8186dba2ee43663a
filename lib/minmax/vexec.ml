type program = Vinstr.t array

let of_permutation cfg p =
  if Array.length p <> cfg.Isa.Config.n then
    invalid_arg "Vexec.of_permutation: wrong length";
  let c = ref 0 in
  Array.iteri (fun k v -> c := !c lor (v lsl (3 * k))) p;
  !c

let reg c k = (c lsr (3 * k)) land 7

let apply i c =
  let open Vinstr in
  let sh_d = 3 * i.dst and sh_s = 3 * i.src in
  let a = (c lsr sh_d) land 7 and b = (c lsr sh_s) land 7 in
  let v =
    match i.op with
    | Movdqa -> b
    | Pmin -> if a < b then a else b
    | Pmax -> if a > b then a else b
  in
  c land lnot (7 lsl sh_d) lor (v lsl sh_d)

let run_code p c = Array.fold_left (fun c i -> apply i c) c p

let is_sorted cfg c =
  let ok = ref true in
  for k = 0 to cfg.Isa.Config.n - 1 do
    if reg c k <> k + 1 then ok := false
  done;
  !ok

let viable cfg c =
  let mask = ref 0 in
  for k = 0 to Isa.Config.nregs cfg - 1 do
    mask := !mask lor (1 lsl reg c k)
  done;
  let need = ((1 lsl cfg.Isa.Config.n) - 1) lsl 1 in
  !mask land need = need

let perm_key cfg c = c land ((1 lsl (3 * cfg.Isa.Config.n)) - 1)

let run cfg p input =
  if Array.length input <> cfg.Isa.Config.n then invalid_arg "Vexec.run";
  let regs = Array.append input (Array.make cfg.Isa.Config.m 0) in
  Array.iter
    (fun i ->
      let open Vinstr in
      regs.(i.dst) <-
        (match i.op with
        | Movdqa -> regs.(i.src)
        | Pmin -> min regs.(i.dst) regs.(i.src)
        | Pmax -> max regs.(i.dst) regs.(i.src)))
    p;
  Array.sub regs 0 cfg.Isa.Config.n

let sorts_all_permutations cfg p =
  Machine.Exec.first_unsorted cfg.Isa.Config.n (run cfg p) = None

let to_string cfg p =
  Array.to_list p |> List.map (Vinstr.to_string cfg) |> String.concat "\n"

let to_x86 cfg p =
  Array.to_list p |> List.map (Vinstr.to_x86 cfg) |> String.concat "\n"

let instruction_counts p =
  let m = ref 0 and mn = ref 0 and mx = ref 0 in
  Array.iter
    (fun i ->
      match i.Vinstr.op with
      | Vinstr.Movdqa -> incr m
      | Vinstr.Pmin -> incr mn
      | Vinstr.Pmax -> incr mx)
    p;
  (!m, !mn, !mx)
