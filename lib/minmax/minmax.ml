module Vinstr = Vinstr
module Vexec = Vexec

let default = { Search.default with cut = Search.Mult 1.0 }

let synthesize ?(opts = default) ?(mode = Search.Find_first) n =
  let cfg = Isa.Config.default n in
  Search.run_isa ~opts ~mode cfg
    {
      Search.Expand.instrs = Vinstr.all cfg;
      input = Vexec.of_permutation cfg;
      apply = Vexec.apply;
      is_sorted = Vexec.is_sorted cfg;
      viable = Vexec.viable cfg;
      perm_key = Vexec.perm_key cfg;
    }

let network_kernel n =
  let cfg = Isa.Config.default n in
  if cfg.Isa.Config.m < 1 then invalid_arg "Minmax.network_kernel";
  let t1 = cfg.Isa.Config.n in
  Sortnet.optimal n |> fun net ->
  List.concat_map
    (fun (i, j) -> [ Vinstr.movdqa t1 i; Vinstr.pmin i j; Vinstr.pmax j t1 ])
    net.Sortnet.comparators
  |> Array.of_list

(* Section 2.1, rightmost column: xmm0..xmm2 = x1..x3, xmm7 = t1. *)
let paper_sort3 =
  let open Vinstr in
  [|
    movdqa 3 1; pmin 3 2; pmax 2 1;
    movdqa 1 2; pmin 1 0; pmax 2 0;
    pmax 1 3; pmin 0 3;
  |]

let to_sorter ?name n p =
  let cfg = Isa.Config.default n in
  let m = cfg.Isa.Config.m in
  let regs = Array.make (n + m) 0 in
  let step i rest =
    let d = i.Vinstr.dst and s = i.Vinstr.src in
    match i.Vinstr.op with
    | Vinstr.Movdqa ->
        fun () ->
          regs.(d) <- regs.(s);
          rest ()
    | Vinstr.Pmin ->
        (* Branch-free select, mirroring the hardware pmin. *)
        fun () ->
          let a = regs.(d) and b = regs.(s) in
          let m = - (Bool.to_int (a < b)) in
          regs.(d) <- b lxor ((a lxor b) land m);
          rest ()
    | Vinstr.Pmax ->
        fun () ->
          let a = regs.(d) and b = regs.(s) in
          let m = - (Bool.to_int (a > b)) in
          regs.(d) <- b lxor ((a lxor b) land m);
          rest ()
  in
  let body = Array.fold_right step p (fun () -> ()) in
  let run a off =
    Array.blit a off regs 0 n;
    for i = n to n + m - 1 do
      regs.(i) <- 0
    done;
    body ();
    Array.blit regs 0 a off n
  in
  let name = match name with Some s -> s | None -> Printf.sprintf "minmax%d" n in
  { Perf.Compile.name; width = n; run }
