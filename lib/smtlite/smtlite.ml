type step = {
  choice : int;
  dom : int;
  now : int array array;
  next : int array array;
  flags : int array;
  flags' : int array;
}

type 'i isa = {
  universe : Isa.Config.t -> 'i array;
  flag_bits : int;
  writes : 'i -> int option;
  writes_flags : 'i -> bool;
  is_cmp : 'i -> bool;
  semantics : Sat.t -> step -> 'i -> unit;
  run : Isa.Config.t -> 'i array -> int array -> int array;
}

(* [dst := src] when the instruction is chosen. *)
let copy s st ~dst ~src =
  for v = 0 to st.dom - 1 do
    Sat.add_clause s [ -st.choice; -st.now.(src).(v); st.next.(dst).(v) ]
  done

let cmov =
  let semantics s st (instr : Isa.Instr.t) =
    let i = st.choice and d = instr.dst and src = instr.src in
    let cmov_on f =
      for v = 0 to st.dom - 1 do
        Sat.add_clause s [ -i; -f; -st.now.(src).(v); st.next.(d).(v) ];
        Sat.add_clause s [ -i; f; -st.now.(d).(v); st.next.(d).(v) ]
      done
    in
    match instr.op with
    | Isa.Instr.Mov -> copy s st ~dst:d ~src
    | Isa.Instr.Cmp ->
        let lt' = st.flags'.(0) and gt' = st.flags'.(1) in
        for va = 0 to st.dom - 1 do
          for vb = 0 to st.dom - 1 do
            let base = [ -i; -st.now.(d).(va); -st.now.(src).(vb) ] in
            Sat.add_clause s ((if va < vb then lt' else -lt') :: base);
            Sat.add_clause s ((if va > vb then gt' else -gt') :: base)
          done
        done
    | Isa.Instr.Cmovl -> cmov_on st.flags.(0)
    | Isa.Instr.Cmovg -> cmov_on st.flags.(1)
  in
  {
    universe = Isa.Instr.all;
    flag_bits = 2;
    writes = Isa.Instr.writes;
    writes_flags = (fun i -> i.Isa.Instr.op = Isa.Instr.Cmp);
    is_cmp = (fun i -> i.Isa.Instr.op = Isa.Instr.Cmp);
    semantics;
    run = Machine.Exec.run;
  }

let minmax =
  let semantics s st (instr : Minmax.Vinstr.t) =
    let d = instr.dst and src = instr.src in
    let apply f =
      for va = 0 to st.dom - 1 do
        for vb = 0 to st.dom - 1 do
          Sat.add_clause s
            [
              -st.choice; -st.now.(d).(va); -st.now.(src).(vb);
              st.next.(d).(f va vb);
            ]
        done
      done
    in
    match instr.op with
    | Minmax.Vinstr.Movdqa -> copy s st ~dst:d ~src
    | Minmax.Vinstr.Pmin -> apply min
    | Minmax.Vinstr.Pmax -> apply max
  in
  {
    universe = Minmax.Vinstr.all;
    flag_bits = 0;
    writes = (fun i -> Some i.Minmax.Vinstr.dst);
    writes_flags = (fun _ -> false);
    is_cmp = (fun _ -> false);
    semantics;
    run = Minmax.Vexec.run;
  }

type goal = Goal_exact | Goal_ascending_present

type heuristics = { no_consecutive_cmp : bool; first_is_cmp : bool }

let no_heuristics = { no_consecutive_cmp = false; first_is_cmp = false }
let default_heuristics = { no_consecutive_cmp = true; first_is_cmp = false }

type 'i outcome = Found of 'i array | Unsat_length | Budget_exhausted

type 'i result = {
  outcome : 'i outcome;
  elapsed : float;
  sat_conflicts : int;
  cegis_iterations : int;
  encoded_inputs : int;
}

(* One encoded synthesis problem. Instruction-choice variables are shared;
   each added input permutation gets its own state variables and transition
   clauses, which is what makes the CEGIS loop incremental. *)
type 'i enc = {
  solver : Sat.t;
  isa : 'i isa;
  cfg : Isa.Config.t;
  len : int;
  instrs : 'i array;
  ins : int array array; (* ins.(t).(i) — choice variable *)
  goal : goal;
  mutable inputs : int; (* number of encoded permutations *)
}

let exactly_one solver vars =
  Sat.add_clause solver vars;
  let n = List.length vars in
  let arr = Array.of_list vars in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Sat.add_clause solver [ -arr.(i); -arr.(j) ]
    done
  done

let create ?(goal = Goal_exact) ?(heuristics = default_heuristics) isa cfg len =
  let solver = Sat.create () in
  let instrs = isa.universe cfg in
  let ni = Array.length instrs in
  let ins =
    Array.init len (fun _ -> Array.init ni (fun _ -> Sat.new_var solver))
  in
  Array.iter (fun row -> exactly_one solver (Array.to_list row)) ins;
  if heuristics.no_consecutive_cmp then
    for t = 0 to len - 2 do
      Array.iteri
        (fun i a ->
          if isa.is_cmp a then
            Array.iteri
              (fun j b ->
                if isa.is_cmp b then
                  Sat.add_clause solver [ -ins.(t).(i); -ins.(t + 1).(j) ])
              instrs)
        instrs
    done;
  if heuristics.first_is_cmp && len > 0 then
    Sat.add_clause solver
      (List.filteri (fun i _ -> isa.is_cmp instrs.(i)) (Array.to_list ins.(0)));
  { solver; isa; cfg; len; instrs; ins; goal; inputs = 0 }

(* Encode the state evolution of one concrete input permutation. *)
let add_input enc perm =
  let s = enc.solver in
  let cfg = enc.cfg in
  let n = cfg.Isa.Config.n in
  let k = Isa.Config.nregs cfg in
  let dom = n + 1 in
  (* reg.(t).(r).(v), then flag.(b).(t) *)
  let reg =
    Array.init (enc.len + 1) (fun _ ->
        Array.init k (fun _ -> Array.init dom (fun _ -> Sat.new_var s)))
  in
  let flag =
    Array.init enc.isa.flag_bits (fun _ ->
        Array.init (enc.len + 1) (fun _ -> Sat.new_var s))
  in
  for t = 0 to enc.len do
    for r = 0 to k - 1 do
      exactly_one s (Array.to_list reg.(t).(r))
    done
  done;
  (* Initial state: the permutation, zeroed scratch, clear flags. *)
  for r = 0 to k - 1 do
    let v = if r < n then perm.(r) else 0 in
    Sat.add_clause s [ reg.(0).(r).(v) ]
  done;
  Array.iter (fun f -> Sat.add_clause s [ -f.(0) ]) flag;
  (* Transitions: frame axioms for what the instruction leaves alone, then
     its own semantics. *)
  for t = 0 to enc.len - 1 do
    let flags = Array.map (fun f -> f.(t)) flag in
    let flags' = Array.map (fun f -> f.(t + 1)) flag in
    Array.iteri
      (fun idx instr ->
        let i = enc.ins.(t).(idx) in
        let written = enc.isa.writes instr in
        for r = 0 to k - 1 do
          if written <> Some r then
            for v = 0 to dom - 1 do
              Sat.add_clause s [ -i; -reg.(t).(r).(v); reg.(t + 1).(r).(v) ]
            done
        done;
        if not (enc.isa.writes_flags instr) then
          Array.iteri
            (fun b f ->
              Sat.add_clause s [ -i; -f; flags'.(b) ];
              Sat.add_clause s [ -i; f; -flags'.(b) ])
            flags;
        enc.isa.semantics s
          { choice = i; dom; now = reg.(t); next = reg.(t + 1); flags; flags' }
          instr)
      enc.instrs
  done;
  (* Goal. *)
  (match enc.goal with
  | Goal_exact ->
      for r = 0 to n - 1 do
        Sat.add_clause s [ reg.(enc.len).(r).(r + 1) ]
      done
  | Goal_ascending_present ->
      (* Ascending: forbid out-of-order adjacent pairs. *)
      for r = 0 to n - 2 do
        for va = 0 to dom - 1 do
          for vb = 0 to dom - 1 do
            if va > vb then
              Sat.add_clause s
                [ -reg.(enc.len).(r).(va); -reg.(enc.len).(r + 1).(vb) ]
          done
        done
      done;
      (* Every value 1..n appears in some value register. *)
      for v = 1 to n do
        Sat.add_clause s
          (List.init n (fun r -> reg.(enc.len).(r).(v)))
      done);
  enc.inputs <- enc.inputs + 1

let decode enc model =
  Array.init enc.len (fun t ->
      let rec find i =
        if i >= Array.length enc.instrs then
          failwith "Smtlite.decode: no instruction selected"
        else if model.(enc.ins.(t).(i)) then enc.instrs.(i)
        else find (i + 1)
      in
      find 0)

(* The verification oracle: the one counted n! loop over the ISA's own
   interpreter. *)
let counterexample enc p =
  Machine.Exec.first_unsorted enc.cfg.Isa.Config.n (enc.isa.run enc.cfg p)

let mk_result outcome start solver iters inputs =
  {
    outcome;
    elapsed = Unix.gettimeofday () -. start;
    sat_conflicts = Sat.stats_conflicts solver;
    cegis_iterations = iters;
    encoded_inputs = inputs;
  }

let synth_perm ?goal ?heuristics ?(conflict_limit = max_int) isa ~len n =
  let start = Unix.gettimeofday () in
  let enc = create ?goal ?heuristics isa (Isa.Config.default n) len in
  List.iter (add_input enc) (Perms.all n);
  match Sat.solve ~conflict_limit enc.solver with
  | None -> mk_result Budget_exhausted start enc.solver 1 enc.inputs
  | Some Sat.Unsat -> mk_result Unsat_length start enc.solver 1 enc.inputs
  | Some (Sat.Sat model) ->
      let p = decode enc model in
      assert (counterexample enc p = None);
      mk_result (Found p) start enc.solver 1 enc.inputs

let synth_cegis ?goal ?heuristics ?(conflict_limit = max_int) isa ~len n =
  let start = Unix.gettimeofday () in
  let enc = create ?goal ?heuristics isa (Isa.Config.default n) len in
  (* Seed with the reversed permutation — the hardest single input. *)
  add_input enc (Array.init n (fun i -> n - i));
  let rec loop iters =
    match Sat.solve ~conflict_limit enc.solver with
    | None -> mk_result Budget_exhausted start enc.solver iters enc.inputs
    | Some Sat.Unsat -> mk_result Unsat_length start enc.solver iters enc.inputs
    | Some (Sat.Sat model) -> (
        let p = decode enc model in
        match counterexample enc p with
        | None -> mk_result (Found p) start enc.solver iters enc.inputs
        | Some cex ->
            add_input enc cex;
            loop (iters + 1))
  in
  loop 1

let find_min_length ?(strategy = `Cegis) ?(conflict_limit = max_int)
    ?(max_len = 24) isa n =
  let synth =
    match strategy with `Perm -> synth_perm | `Cegis -> synth_cegis
  in
  let rec go len acc =
    if len > max_len then List.rev acc
    else
      let r = synth ~conflict_limit isa ~len n in
      let acc = (len, r) :: acc in
      match r.outcome with
      | Found _ | Budget_exhausted -> List.rev acc
      | Unsat_length -> go (len + 1) acc
  in
  go 1 []
