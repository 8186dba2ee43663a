type opcode = Mov | Cmp | Cmovl | Cmovg
type t = { op : opcode; dst : int; src : int }

let mov dst src = { op = Mov; dst; src }
let cmp a b = { op = Cmp; dst = a; src = b }
let cmovl dst src = { op = Cmovl; dst; src }
let cmovg dst src = { op = Cmovg; dst; src }

let opcode_name = function
  | Mov -> "mov"
  | Cmp -> "cmp"
  | Cmovl -> "cmovl"
  | Cmovg -> "cmovg"

let opcode_letter = function Mov -> 'm' | Cmp -> 'c' | Cmovl -> 'l' | Cmovg -> 'g'
let is_conditional i = match i.op with Cmovl | Cmovg -> true | Mov | Cmp -> false
let writes i = match i.op with Cmp -> None | Mov | Cmovl | Cmovg -> Some i.dst

let reads i =
  match i.op with
  | Cmp -> [ i.dst; i.src ]
  | Mov | Cmovl | Cmovg -> [ i.src ]

let uses ~flags i =
  match i.op with
  | Cmp -> [ i.dst; i.src ]
  | Mov -> [ i.src ]
  | Cmovl | Cmovg -> [ i.src; i.dst; flags ]

let defs ~flags i = match i.op with Cmp -> [ flags ] | Mov | Cmovl | Cmovg -> [ i.dst ]

let valid cfg i =
  let k = Config.nregs cfg in
  let in_range r = r >= 0 && r < k in
  in_range i.dst && in_range i.src
  && match i.op with Cmp -> i.dst < i.src | Mov | Cmovl | Cmovg -> i.dst <> i.src

let all cfg =
  let k = Config.nregs cfg in
  let acc = ref [] in
  let add i = acc := i :: !acc in
  List.iter
    (fun op ->
      for d = k - 1 downto 0 do
        for s = k - 1 downto 0 do
          let i = { op; dst = d; src = s } in
          if valid cfg i then add i
        done
      done)
    [ Cmovg; Cmovl; Mov; Cmp ];
  Array.of_list !acc

let to_string cfg i =
  Printf.sprintf "%s %s %s" (opcode_name i.op)
    (Config.reg_name cfg i.dst)
    (Config.reg_name cfg i.src)

let to_x86 cfg i =
  Printf.sprintf "%s %s, %s" (opcode_name i.op)
    (Config.x86_reg_name cfg i.dst)
    (Config.x86_reg_name cfg i.src)

let parse_reg cfg s =
  let k = Config.nregs cfg in
  let rec find i = if i >= k then None else if Config.reg_name cfg i = s then Some i else find (i + 1) in
  find 0

let of_string cfg s =
  let tokens =
    String.split_on_char ' '
      (String.map (function ',' | '\t' -> ' ' | c -> c) s)
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [ op_s; a; b ] -> (
      let op =
        match op_s with
        | "mov" -> Some Mov
        | "cmp" -> Some Cmp
        | "cmovl" -> Some Cmovl
        | "cmovg" -> Some Cmovg
        | _ -> None
      in
      match (op, parse_reg cfg a, parse_reg cfg b) with
      | Some op, Some dst, Some src ->
          let i = { op; dst; src } in
          if valid cfg i then Ok i
          else Error (Printf.sprintf "invalid operands in %S" s)
      | None, _, _ -> Error (Printf.sprintf "unknown opcode in %S" s)
      | _ -> Error (Printf.sprintf "unknown register in %S" s))
  | _ -> Error (Printf.sprintf "expected 'op dst src', got %S" s)

let compare = Stdlib.compare
let equal a b = a = b
let pp cfg ppf i = Format.pp_print_string ppf (to_string cfg i)
