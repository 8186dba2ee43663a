type state = { regs : int array; mutable lt : bool; mutable gt : bool }

let init cfg input =
  if Array.length input <> cfg.Isa.Config.n then
    invalid_arg "Exec.init: wrong input length";
  {
    regs = Array.append input (Array.make cfg.Isa.Config.m 0);
    lt = false;
    gt = false;
  }

let step st i =
  let open Isa.Instr in
  match i.op with
  | Mov -> st.regs.(i.dst) <- st.regs.(i.src)
  | Cmp ->
      let a = st.regs.(i.dst) and b = st.regs.(i.src) in
      st.lt <- a < b;
      st.gt <- a > b
  | Cmovl -> if st.lt then st.regs.(i.dst) <- st.regs.(i.src)
  | Cmovg -> if st.gt then st.regs.(i.dst) <- st.regs.(i.src)

let run cfg p input =
  let st = init cfg input in
  Array.iter (step st) p;
  Array.sub st.regs 0 cfg.Isa.Config.n

let output_correct ~input ~output =
  Perms.is_sorted output && Perms.same_multiset input output

(* The one exact correctness check (paper Eq. 1): every certification,
   optimizer proof and analysis verdict in the system, for every ISA,
   runs this n! loop, and each run ticks [certify_counter] — the daemon's
   proof that a warm in-memory hit skipped re-certification. *)
let certify_counter = Atomic.make 0
let certifications () = Atomic.get certify_counter

let first_unsorted n run =
  Atomic.incr certify_counter;
  List.find_opt (fun perm -> not (Perms.is_identity (run perm))) (Perms.all n)

let counterexample cfg p = first_unsorted cfg.Isa.Config.n (run cfg p)

let sorts_all_permutations cfg p = counterexample cfg p = None

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let certify cfg p =
  match counterexample cfg p with
  | None -> Ok ()
  | Some input ->
      Error
        (Printf.sprintf "kernel of length %d fails on input [%s]: produced [%s]"
           (Isa.Program.length p) (ints input) (ints (run cfg p input)))

type verdict =
  | Equivalent
  | Differs of { input : int array; out_a : int array; out_b : int array }

let equiv cfg a b =
  let rec go = function
    | [] -> Equivalent
    | perm :: rest ->
        let out_a = run cfg a perm and out_b = run cfg b perm in
        if out_a = out_b then go rest else Differs { input = perm; out_a; out_b }
  in
  go (Perms.all cfg.Isa.Config.n)

let sorts_random_suite cfg p ~seed ~cases ~lo ~hi =
  let st = Random.State.make [| seed |] in
  let ok = ref true in
  for _ = 1 to cases do
    let input =
      Array.init cfg.Isa.Config.n (fun _ -> lo + Random.State.int st (hi - lo + 1))
    in
    let output = run cfg p input in
    if not (output_correct ~input ~output) then ok := false
  done;
  !ok
