(* Straight-line dataflow: backward liveness over registers and the lt/gt
   flags, forward reaching-cmp and written-before facts.

   Liveness masks pack the register set and both flags into one int:
   bit r (r < nregs) = register r, bit nregs = lt, bit nregs+1 = gt. *)

type t = {
  prog : Isa.Program.t;
  nregs : int;
  live : int array;  (* per point, 0 .. len *)
  reaching : int option array;  (* per instruction *)
  written : int array;  (* per point: regs defined before it *)
}

let lt_bit t = 1 lsl t.nregs
let gt_bit t = 1 lsl (t.nregs + 1)

let analyze cfg prog =
  let nregs = Isa.Config.nregs cfg in
  let len = Array.length prog in
  let lt = 1 lsl nregs and gt = 1 lsl (nregs + 1) in
  let value_mask = (1 lsl cfg.Isa.Config.n) - 1 in
  let live = Array.make (len + 1) 0 in
  live.(len) <- value_mask;
  for i = len - 1 downto 0 do
    let out = live.(i + 1) in
    let x = prog.(i) in
    let open Isa.Instr in
    live.(i) <-
      (match x.op with
      | Mov -> out land lnot (1 lsl x.dst) lor (1 lsl x.src)
      | Cmp -> out land lnot (lt lor gt) lor (1 lsl x.dst) lor (1 lsl x.src)
      (* A conditional move does not kill dst: when the flag is clear the
         old value survives, so dst stays live across it. *)
      | Cmovl -> out lor (1 lsl x.src) lor lt
      | Cmovg -> out lor (1 lsl x.src) lor gt)
  done;
  let reaching = Array.make len None in
  let written = Array.make (len + 1) 0 in
  written.(0) <- value_mask;
  let cur = ref None in
  for i = 0 to len - 1 do
    reaching.(i) <- !cur;
    let x = prog.(i) in
    written.(i + 1) <-
      (written.(i)
      lor match Isa.Instr.writes x with Some d -> 1 lsl d | None -> 0);
    if x.Isa.Instr.op = Isa.Instr.Cmp then cur := Some i
  done;
  { prog; nregs; live; reaching; written }

let live_after t i = t.live.(i + 1)
let reg_live_after t i r = live_after t i land (1 lsl r) <> 0
let lt_live_after t i = live_after t i land lt_bit t <> 0
let gt_live_after t i = live_after t i land gt_bit t <> 0
let reaching_cmp t i = t.reaching.(i)
let reg_written_before t i r = t.written.(i) land (1 lsl r) <> 0

let is_effective t i =
  let x = t.prog.(i) in
  match x.Isa.Instr.op with
  | Isa.Instr.Cmp -> lt_live_after t i || gt_live_after t i
  | Isa.Instr.Mov | Isa.Instr.Cmovl | Isa.Instr.Cmovg ->
      reg_live_after t i x.Isa.Instr.dst
