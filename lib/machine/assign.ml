type code = int

let flag_none = 0
let flag_lt = 1
let flag_gt = 2
let reg_shift k = 2 + (3 * k)

let of_values cfg vs =
  let k = Isa.Config.nregs cfg in
  if Array.length vs <> k then invalid_arg "Assign.of_values: wrong length";
  let c = ref 0 in
  for i = 0 to k - 1 do
    if vs.(i) < 0 || vs.(i) > cfg.Isa.Config.n then
      invalid_arg "Assign.of_values: value out of range";
    c := !c lor (vs.(i) lsl reg_shift i)
  done;
  !c

let of_permutation cfg p =
  if Array.length p <> cfg.Isa.Config.n then
    invalid_arg "Assign.of_permutation: wrong length";
  of_values cfg (Array.append p (Array.make cfg.Isa.Config.m 0))

let reg _cfg c k = (c lsr reg_shift k) land 7
let flags c = c land 3
let values cfg c = Array.init (Isa.Config.nregs cfg) (fun k -> reg cfg c k)
let value_regs cfg c = Array.init cfg.Isa.Config.n (fun k -> reg cfg c k)

let perm_key cfg c =
  let mask = (1 lsl (3 * cfg.Isa.Config.n)) - 1 in
  (c lsr 2) land mask

let apply _cfg i c =
  let open Isa.Instr in
  match i.op with
  | Mov ->
      let v = (c lsr reg_shift i.src) land 7 in
      c land lnot (7 lsl reg_shift i.dst) lor (v lsl reg_shift i.dst)
  | Cmp ->
      let a = (c lsr reg_shift i.dst) land 7
      and b = (c lsr reg_shift i.src) land 7 in
      let f = if a < b then flag_lt else if a > b then flag_gt else flag_none in
      c land lnot 3 lor f
  | Cmovl ->
      if c land 3 = flag_lt then
        let v = (c lsr reg_shift i.src) land 7 in
        c land lnot (7 lsl reg_shift i.dst) lor (v lsl reg_shift i.dst)
      else c
  | Cmovg ->
      if c land 3 = flag_gt then
        let v = (c lsr reg_shift i.src) land 7 in
        c land lnot (7 lsl reg_shift i.dst) lor (v lsl reg_shift i.dst)
      else c
  [@@inline]

let map_sub _cfg i src soff dst doff len =
  if
    len < 0 || soff < 0 || doff < 0
    || soff + len > Array.length src
    || doff + len > Array.length dst
  then invalid_arg "Assign.map_sub";
  (* One opcode dispatch per call; each arm is a tight loop over the codes.
     Element [k] is read before it is written, so [src == dst] is fine
     when [soff = doff]. *)
  let open Isa.Instr in
  let sd = reg_shift i.dst and ss = reg_shift i.src in
  let clear = lnot (7 lsl sd) in
  match i.op with
  | Mov ->
      for k = 0 to len - 1 do
        let c = src.(soff + k) in
        dst.(doff + k) <- c land clear lor (((c lsr ss) land 7) lsl sd)
      done
  | Cmp ->
      for k = 0 to len - 1 do
        let c = src.(soff + k) in
        let a = (c lsr sd) land 7 and b = (c lsr ss) land 7 in
        let f = if a < b then flag_lt else if a > b then flag_gt else flag_none in
        dst.(doff + k) <- c land lnot 3 lor f
      done
  | Cmovl | Cmovg ->
      let flag = if i.op = Cmovl then flag_lt else flag_gt in
      for k = 0 to len - 1 do
        let c = src.(soff + k) in
        dst.(doff + k) <-
          (if c land 3 = flag then c land clear lor (((c lsr ss) land 7) lsl sd)
           else c)
      done

let run cfg p c = Array.fold_left (fun c i -> apply cfg i c) c p

let is_sorted cfg c =
  let n = cfg.Isa.Config.n in
  let ok = ref true in
  for k = 0 to n - 1 do
    if (c lsr reg_shift k) land 7 <> k + 1 then ok := false
  done;
  !ok

let present_values cfg c =
  let k = Isa.Config.nregs cfg in
  let mask = ref 0 in
  for i = 0 to k - 1 do
    mask := !mask lor (1 lsl ((c lsr reg_shift i) land 7))
  done;
  !mask

let viable cfg c =
  let need = ((1 lsl cfg.Isa.Config.n) - 1) lsl 1 in
  present_values cfg c land need = need

let max_code cfg = 1 lsl (2 + (3 * Isa.Config.nregs cfg))

let pp cfg ppf c =
  let n = cfg.Isa.Config.n and m = cfg.Isa.Config.m in
  Format.fprintf ppf "r:";
  for k = 0 to n - 1 do
    Format.fprintf ppf "%s%d" (if k = 0 then "" else " ") (reg cfg c k)
  done;
  if m > 0 then begin
    Format.fprintf ppf " s:";
    for k = n to n + m - 1 do
      Format.fprintf ppf "%s%d" (if k = n then "" else " ") (reg cfg c k)
    done
  end;
  let f = flags c in
  Format.fprintf ppf " f:%s"
    (if f = flag_lt then "lt" else if f = flag_gt then "gt" else "-")
