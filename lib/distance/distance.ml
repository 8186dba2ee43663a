type t = {
  cfg : Isa.Config.t;
  table : int array; (* indexed by assignment code; -2 unreachable, -1 dead *)
  reachable : int array; (* all reachable codes *)
  max_finite : int;
  no_viable_dead : bool; (* every reachable viable code is finitely distant *)
  words : int; (* mask words per code *)
  row : int array;
      (* indexed by assignment code: offset of its mask in [masks]; -2
         unreachable, -1 no optimal action (dead or sorted) *)
  masks : int array;
      (* [words] words per finitely-distant unsorted code: bit [b] is set
         iff data-moving instruction [b] takes the code one step closer to
         sorted *)
  nregs : int;
  bits : (int * int) array;
      (* by [slot]: a data-moving instruction's word in [masks] and its
         single bit there; (0, 0), never set, for a no-op move *)
  or_word : (int -> int -> int) array;
      (* [or_word.(w) acc c]: [acc] OR word [w] of [c]'s mask; built once,
         so folding it over a state allocates nothing *)
}

let infinity = max_int / 4
let bits_per_word = 62

(* Dense index of a data-moving instruction by opcode and operands. *)
let slot nregs i =
  let open Isa.Instr in
  let op = match i.op with Mov -> 0 | Cmovl -> 1 | Cmovg -> 2 | Cmp -> -1 in
  if op < 0 || i.dst < 0 || i.dst >= nregs || i.src < 0 || i.src >= nregs
  then invalid_arg "Distance: not a data-moving instruction of this config";
  (((op * nregs) + i.dst) * nregs) + i.src

(* Reachable codes: forward closure of the initial permutation assignments
   under all instructions. *)
let reachable_codes cfg instrs =
  let seen = Bytes.make (Machine.Assign.max_code cfg) '\000' in
  let stack = ref [] in
  let push c =
    if Bytes.get seen c = '\000' then begin
      Bytes.set seen c '\001';
      stack := c :: !stack
    end
  in
  List.iter
    (fun p -> push (Machine.Assign.of_permutation cfg p))
    (Perms.all cfg.Isa.Config.n);
  let acc = ref [] in
  let rec loop () =
    match !stack with
    | [] -> ()
    | c :: rest ->
        stack := rest;
        acc := c :: !acc;
        Array.iter (fun i -> push (Machine.Assign.apply cfg i c)) instrs;
        loop ()
  in
  loop ();
  Array.of_list !acc

let compute cfg =
  let instrs = Isa.Instr.all cfg in
  let reachable = reachable_codes cfg instrs in
  let max_code = Machine.Assign.max_code cfg in
  let table = Array.make max_code (-2) in
  let row = Array.make max_code (-2) in
  Array.iter
    (fun c ->
      table.(c) <- (if Machine.Assign.is_sorted cfg c then 0 else -1);
      row.(c) <- -1)
    reachable;
  (* Only data-moving instructions can lower a distance: the distance of a
     single assignment does not depend on its flags (a sorting sequence
     rewritten to plain [mov]s for the flags it meets sorts from any
     flags), so a [cmp] never moves it. *)
  let movers =
    Array.of_seq
      (Seq.filter (fun i -> i.Isa.Instr.op <> Isa.Instr.Cmp) (Array.to_seq instrs))
  in
  let words =
    max 1 ((Array.length movers + bits_per_word - 1) / bits_per_word)
  in
  let nregs = Isa.Config.nregs cfg in
  let bits = Array.make (3 * nregs * nregs) (0, 0) in
  Array.iteri
    (fun b i ->
      bits.(slot nregs i) <- (b / bits_per_word, 1 lsl (b mod bits_per_word)))
    movers;
  (* No instruction creates a value, so a code that has lost one of
     [1..n] stays dead: only viable unsorted codes can ever be labeled. *)
  let pending =
    ref
      (List.filter
         (fun c -> table.(c) = -1 && Machine.Assign.viable cfg c)
         (Array.to_list reachable))
  in
  let masks = Array.make (List.length !pending * words) 0 in
  let next_row = ref 0 in
  (* Backward rounds: an assignment is at distance r if some instruction
     takes it to distance r - 1; those instructions form its mask.
     Terminates because each round labels at least one code or stops. *)
  let max_finite = ref 0 in
  let progress = ref true in
  let round = ref 0 in
  while !progress do
    incr round;
    let r = !round in
    progress := false;
    pending :=
      List.filter
        (fun c ->
          let base = !next_row in
          let found = ref false in
          Array.iteri
            (fun b i ->
              if table.(Machine.Assign.apply cfg i c) = r - 1 then begin
                found := true;
                let w = base + (b / bits_per_word) in
                masks.(w) <- masks.(w) lor (1 lsl (b mod bits_per_word))
              end)
            movers;
          if !found then begin
            table.(c) <- r;
            row.(c) <- base;
            next_row := base + words;
            max_finite := r;
            progress := true
          end;
          not !found)
        !pending
  done;
  let or_word =
    Array.init words (fun w acc c ->
        let r = row.(c) in
        if r >= 0 then acc lor masks.(r + w)
        else if r = -2 then invalid_arg "Distance.mask_word: code not reachable"
        else acc)
  in
  {
    cfg;
    table;
    reachable;
    max_finite = !max_finite;
    (* The codes the rounds never labeled are the viable dead ones. *)
    no_viable_dead = !pending = [];
    words;
    row;
    masks;
    nregs;
    bits;
    or_word;
  }

let cache : (int * int, t) Hashtbl.t = Hashtbl.create 8
let cache_lock = Mutex.create ()

let compute_cached cfg =
  let key = (cfg.Isa.Config.n, cfg.Isa.Config.m) in
  (* Held while computing, so concurrent first callers share one table. *)
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache key with
      | Some t -> t
      | None ->
          let t = compute cfg in
          Hashtbl.replace cache key t;
          t)


let dist t c =
  match t.table.(c) with
  | -2 -> invalid_arg "Distance.dist: code not reachable"
  | -1 -> infinity
  | d -> d

let state_lower_bound t s =
  (* The bound is queried for the same state by vetting, the Dist_bound
     heuristic, and the action filter; cache it on the state. (States are
     built for one machine configuration, so one cache slot suffices.) *)
  let cached = Sstate.lb_cache s in
  if cached >= 0 then cached
  else begin
    let lb = Sstate.fold (fun acc c -> max acc (dist t c)) 0 s in
    Sstate.set_lb_cache s lb;
    lb
  end

let attach t arena = Sstate.Arena.attach_distance arena t.table ~infinity

let reachable_count t = Array.length t.reachable
let max_finite_dist t = t.max_finite
let no_viable_dead t = t.no_viable_dead

let is_optimal_action t i c =
  let d = dist t c in
  d > 0 && d < infinity && dist t (Machine.Assign.apply t.cfg i c) = d - 1

(* Comparisons are always admitted: an optimal sequence for a single
   assignment never needs a [cmp] (the values are known, so unconditional
   moves suffice), so filtering comparisons by single-assignment optimality
   would remove every comparison and starve the tandem search, which does
   need them. Only data-moving instructions are filtered: one is admitted
   iff its bit is set in the OR of the state's masks. *)
let action_bit t i =
  if i.Isa.Instr.op = Isa.Instr.Cmp then (-1, 0) else t.bits.(slot t.nregs i)

let mask_word t s w = Sstate.fold t.or_word.(w) 0 s

let optimal_actions t instrs s =
  let words = Array.init t.words (mask_word t s) in
  Array.map
    (fun i ->
      let w, bit = action_bit t i in
      w < 0 || words.(w) land bit <> 0)
    instrs
