type op = Movdqa | Pmin | Pmax
type t = { op : op; dst : int; src : int }

let movdqa dst src = { op = Movdqa; dst; src }
let pmin dst src = { op = Pmin; dst; src }
let pmax dst src = { op = Pmax; dst; src }
let op_name = function Movdqa -> "movdqa" | Pmin -> "pmin" | Pmax -> "pmax"

let valid cfg i =
  let k = Isa.Config.nregs cfg in
  i.dst >= 0 && i.dst < k && i.src >= 0 && i.src < k && i.dst <> i.src

let all cfg =
  let k = Isa.Config.nregs cfg in
  let acc = ref [] in
  List.iter
    (fun op ->
      for d = k - 1 downto 0 do
        for s = k - 1 downto 0 do
          if d <> s then acc := { op; dst = d; src = s } :: !acc
        done
      done)
    [ Pmax; Pmin; Movdqa ];
  Array.of_list !acc

let reg_name cfg i =
  if i < cfg.Isa.Config.n then Printf.sprintf "x%d" (i + 1)
  else Printf.sprintf "t%d" (i - cfg.Isa.Config.n + 1)

let to_string cfg i =
  Printf.sprintf "%s %s %s" (op_name i.op) (reg_name cfg i.dst)
    (reg_name cfg i.src)

let xmm cfg i =
  (* Value registers map to xmm0.., scratch registers count down from
     xmm7 (the paper's examples use xmm7 as the temporary). *)
  if i < cfg.Isa.Config.n then Printf.sprintf "xmm%d" i
  else Printf.sprintf "xmm%d" (7 - (i - cfg.Isa.Config.n))

let to_x86 cfg i =
  let mnemonic =
    match i.op with Movdqa -> "movdqa" | Pmin -> "pminsd" | Pmax -> "pmaxsd"
  in
  Printf.sprintf "%s %s, %s" mnemonic (xmm cfg i.dst) (xmm cfg i.src)
