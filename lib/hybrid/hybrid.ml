type instr =
  | Gp of Isa.Instr.t
  | Vec of Minmax.Vinstr.t
  | To_vec of int * int
  | To_gp of int * int

type program = instr array

(* Packed code: 2 flag bits, then 3 bits per register; GP file first, then
   the vector file (both n + m wide). *)
let nregs cfg = 2 * Isa.Config.nregs cfg
let reg_shift k = 2 + (3 * k)
let get c k = (c lsr reg_shift k) land 7

let set c k v =
  c land lnot (7 lsl reg_shift k) lor (v lsl reg_shift k)

let vec_base cfg = Isa.Config.nregs cfg

let all_instrs cfg =
  let k = Isa.Config.nregs cfg in
  let acc = ref [] in
  Array.iter (fun i -> acc := Gp i :: !acc) (Isa.Instr.all cfg);
  Array.iter (fun i -> acc := Vec i :: !acc) (Minmax.Vinstr.all cfg);
  for x = 0 to k - 1 do
    for r = 0 to k - 1 do
      acc := To_vec (x, r) :: !acc;
      acc := To_gp (r, x) :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

let apply cfg i c =
  let vb = vec_base cfg in
  match i with
  | Gp g -> (
      let open Isa.Instr in
      match g.op with
      | Mov -> set c g.dst (get c g.src)
      | Cmp ->
          let a = get c g.dst and b = get c g.src in
          let f = if a < b then 1 else if a > b then 2 else 0 in
          c land lnot 3 lor f
      | Cmovl -> if c land 3 = 1 then set c g.dst (get c g.src) else c
      | Cmovg -> if c land 3 = 2 then set c g.dst (get c g.src) else c)
  | Vec v -> (
      let open Minmax.Vinstr in
      let d = vb + v.dst and s = vb + v.src in
      match v.op with
      | Movdqa -> set c d (get c s)
      | Pmin -> set c d (min (get c d) (get c s))
      | Pmax -> set c d (max (get c d) (get c s)))
  | To_vec (x, r) -> set c (vb + x) (get c r)
  | To_gp (r, x) -> set c r (get c (vb + x))

let of_permutation _cfg p =
  let c = ref 0 in
  Array.iteri (fun k v -> c := set !c k v) p;
  !c

let is_sorted cfg c =
  let ok = ref true in
  for k = 0 to cfg.Isa.Config.n - 1 do
    if get c k <> k + 1 then ok := false
  done;
  !ok

let viable cfg c =
  let mask = ref 0 in
  for k = 0 to nregs cfg - 1 do
    mask := !mask lor (1 lsl get c k)
  done;
  let need = ((1 lsl cfg.Isa.Config.n) - 1) lsl 1 in
  !mask land need = need

let perm_key cfg c = (c lsr 2) land ((1 lsl (3 * cfg.Isa.Config.n)) - 1)

let run cfg p input =
  if Array.length input <> cfg.Isa.Config.n then invalid_arg "Hybrid.run";
  (* Arbitrary integers: interpret over two plain register files. *)
  let k = Isa.Config.nregs cfg in
  let gp = Array.make k 0 and vec = Array.make k 0 in
  Array.blit input 0 gp 0 cfg.Isa.Config.n;
  let lt = ref false and gt = ref false in
  Array.iter
    (fun i ->
      match i with
      | Gp g -> (
          let open Isa.Instr in
          match g.op with
          | Mov -> gp.(g.dst) <- gp.(g.src)
          | Cmp ->
              lt := gp.(g.dst) < gp.(g.src);
              gt := gp.(g.dst) > gp.(g.src)
          | Cmovl -> if !lt then gp.(g.dst) <- gp.(g.src)
          | Cmovg -> if !gt then gp.(g.dst) <- gp.(g.src))
      | Vec v -> (
          let open Minmax.Vinstr in
          match v.op with
          | Movdqa -> vec.(v.dst) <- vec.(v.src)
          | Pmin -> vec.(v.dst) <- min vec.(v.dst) vec.(v.src)
          | Pmax -> vec.(v.dst) <- max vec.(v.dst) vec.(v.src))
      | To_vec (x, r) -> vec.(x) <- gp.(r)
      | To_gp (r, x) -> gp.(r) <- vec.(x))
    p;
  Array.sub gp 0 cfg.Isa.Config.n

let sorts_all_permutations cfg p =
  List.for_all
    (fun perm -> Perms.is_identity (run cfg p perm))
    (Perms.all cfg.Isa.Config.n)

let instr_to_string cfg = function
  | Gp g -> Isa.Instr.to_string cfg g
  | Vec v -> Minmax.Vinstr.to_string cfg v
  | To_vec (x, r) ->
      Printf.sprintf "movd x%d %s" (x + 1) (Isa.Config.reg_name cfg r)
  | To_gp (r, x) ->
      Printf.sprintf "movd %s x%d" (Isa.Config.reg_name cfg r) (x + 1)

let to_string cfg p =
  Array.to_list p |> List.map (instr_to_string cfg) |> String.concat "\n"

let transfer_count p =
  Array.fold_left
    (fun a i -> match i with To_vec _ | To_gp _ -> a + 1 | Gp _ | Vec _ -> a)
    0 p

let synthesize ?(cut = Search.Mult 1.0) ?(max_len = 24) n =
  let cfg = Isa.Config.default n in
  Search.run_isa
    ~opts:{ Search.default with cut; max_len = Some max_len }
    ~mode:Search.Find_first cfg
    {
      Search.Expand.instrs = all_instrs cfg;
      input = of_permutation cfg;
      apply = apply cfg;
      is_sorted = is_sorted cfg;
      viable = viable cfg;
      perm_key = perm_key cfg;
    }
