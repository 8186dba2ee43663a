type goal = Goal_exact | Goal_ascending_present

type options = {
  goal : goal;
  no_consecutive_cmp : bool;
  cmp_symmetry : bool;
  first_is_cmp : bool;
  erasure_pruning : bool;
}

let default =
  {
    goal = Goal_ascending_present;
    no_consecutive_cmp = true;
    cmp_symmetry = true;
    first_is_cmp = false;
    erasure_pruning = true;
  }

type outcome = Found of Isa.Program.t | Exhausted | Node_limit

type result = {
  outcome : outcome;
  solutions : Isa.Program.t list;
  nodes : int;
  elapsed : float;
}

(* Opcode codes in the CP model. *)
let op_mov = 0
let op_cmp = 1
let op_cmovl = 2
let op_cmovg = 3

let instr_of_codes op dst src =
  let op =
    match op with
    | 0 -> Isa.Instr.Mov
    | 1 -> Isa.Instr.Cmp
    | 2 -> Isa.Instr.Cmovl
    | _ -> Isa.Instr.Cmovg
  in
  { Isa.Instr.op; dst; src }

let synth ?(opts = default) ?(node_limit = max_int) ?(all_solutions = false)
    ~len n =
  let start = Unix.gettimeofday () in
  let cfg = Isa.Config.default n in
  let k = Isa.Config.nregs cfg in
  let perms = Perms.all n in
  let np = List.length perms in
  let t = Fd.create () in
  (* Decision variables, created in chronological (op, dst, src) order so
     the solver's first-unassigned labeling explores programs prefix-first. *)
  let rec mk s acc =
    if s = len then Array.of_list (List.rev acc)
    else begin
      let o = Fd.new_var t ~lo:0 ~hi:3 in
      let d = Fd.new_var t ~lo:0 ~hi:(k - 1) in
      let sr = Fd.new_var t ~lo:0 ~hi:(k - 1) in
      mk (s + 1) ((o, d, sr) :: acc)
    end
  in
  let decisions = mk 0 [] in
  let ops = Array.map (fun (o, _, _) -> o) decisions in
  let dsts = Array.map (fun (_, d, _) -> d) decisions in
  let srcs = Array.map (fun (_, _, sr) -> sr) decisions in
  (* State variables: value.(step).(perm).(reg), flags lt/gt in {0,1}. *)
  let value =
    Array.init (len + 1) (fun _ ->
        Array.init np (fun _ -> Array.init k (fun _ -> Fd.new_var t ~lo:0 ~hi:n)))
  in
  let flt = Array.init (len + 1) (fun _ -> Array.init np (fun _ -> Fd.new_var t ~lo:0 ~hi:1)) in
  let fgt = Array.init (len + 1) (fun _ -> Array.init np (fun _ -> Fd.new_var t ~lo:0 ~hi:1)) in
  (* Initial state. *)
  List.iteri
    (fun pi perm ->
      for r = 0 to k - 1 do
        let v = if r < n then perm.(r) else 0 in
        Fd.post t (fun t -> Fd.assign t value.(0).(pi).(r) v)
      done;
      Fd.post t (fun t -> Fd.assign t flt.(0).(pi) 0);
      Fd.post t (fun t -> Fd.assign t fgt.(0).(pi) 0))
    perms;
  (* dst <> src. *)
  for s = 0 to len - 1 do
    let d = dsts.(s) and sr = srcs.(s) in
    Fd.post t ~watch:[ d; sr ] (fun t ->
        if Fd.is_fixed t d then Fd.remove_value t sr (Fd.value t d)
        else if Fd.is_fixed t sr then Fd.remove_value t d (Fd.value t sr)
        else true)
  done;
  (* Heuristic (II): cmp operands ascending. *)
  if opts.cmp_symmetry then
    for s = 0 to len - 1 do
      let o = ops.(s) and d = dsts.(s) and sr = srcs.(s) in
      Fd.post t ~watch:[ o; d; sr ] (fun t ->
          if Fd.is_fixed t o && Fd.value t o = op_cmp && Fd.is_fixed t d then begin
            let dv = Fd.value t d in
            let ok = ref true in
            for x = 0 to dv do
              if !ok then ok := Fd.remove_value t sr x
            done;
            !ok
          end
          else true)
    done;
  (* Heuristic (I): no consecutive compares. *)
  if opts.no_consecutive_cmp then
    for s = 0 to len - 2 do
      let a = ops.(s) and b = ops.(s + 1) in
      Fd.post t ~watch:[ a ] (fun t ->
          if Fd.is_fixed t a && Fd.value t a = op_cmp then
            Fd.remove_value t b op_cmp
          else true)
    done;
  if opts.first_is_cmp && len > 0 then
    Fd.post t (fun t -> Fd.assign t ops.(0) op_cmp);
  (* Transition propagators: once the instruction at step s and the state at
     step s are fixed, the state at step s+1 follows functionally. *)
  for s = 0 to len - 1 do
    List.iteri
      (fun pi _ ->
        let deps =
          [ ops.(s); dsts.(s); srcs.(s); flt.(s).(pi); fgt.(s).(pi) ]
          @ Array.to_list value.(s).(pi)
        in
        Fd.post t ~watch:deps (fun t ->
            let fixed_all = List.for_all (Fd.is_fixed t) deps in
            if not fixed_all then true
            else begin
              let o = Fd.value t ops.(s)
              and d = Fd.value t dsts.(s)
              and sr = Fd.value t srcs.(s) in
              let cur r = Fd.value t value.(s).(pi).(r) in
              let lt = Fd.value t flt.(s).(pi) = 1 in
              let gt = Fd.value t fgt.(s).(pi) = 1 in
              let ok = ref true in
              let set_reg r v = ok := !ok && Fd.assign t value.(s + 1).(pi).(r) v in
              let set_flags l g =
                ok := !ok && Fd.assign t flt.(s + 1).(pi) (Bool.to_int l);
                ok := !ok && Fd.assign t fgt.(s + 1).(pi) (Bool.to_int g)
              in
              (* Untouched registers carry over. *)
              for r = 0 to k - 1 do
                if not (o <> op_cmp && r = d) then set_reg r (cur r)
              done;
              if o = op_mov then set_reg d (cur sr)
              else if o = op_cmovl then set_reg d (if lt then cur sr else cur d)
              else if o = op_cmovg then set_reg d (if gt then cur sr else cur d);
              if o = op_cmp then set_flags (cur d < cur sr) (cur d > cur sr)
              else set_flags lt gt;
              (* Redundant viability constraint: no value erased. *)
              if !ok && opts.erasure_pruning then begin
                let mask = ref 0 in
                for r = 0 to k - 1 do
                  if Fd.is_fixed t value.(s + 1).(pi).(r) then
                    mask := !mask lor (1 lsl Fd.value t value.(s + 1).(pi).(r))
                done;
                let need = ((1 lsl n) - 1) lsl 1 in
                if !mask land need <> need then ok := false
              end;
              !ok
            end))
      perms
  done;
  (* Goal. *)
  List.iteri
    (fun pi _ ->
      match opts.goal with
      | Goal_exact ->
          for r = 0 to n - 1 do
            Fd.post t (fun t -> Fd.assign t value.(len).(pi).(r) (r + 1))
          done
      | Goal_ascending_present ->
          (* Ascending: pairwise check once fixed; presence: each of 1..n in
             some value register. *)
          for r = 0 to n - 2 do
            let a = value.(len).(pi).(r) and b = value.(len).(pi).(r + 1) in
            Fd.post t ~watch:[ a; b ] (fun t ->
                if Fd.is_fixed t a && Fd.is_fixed t b then
                  Fd.value t a <= Fd.value t b
                else true)
          done;
          let vars = Array.to_list (Array.sub value.(len).(pi) 0 n) in
          Fd.post t ~watch:vars (fun t ->
              if List.for_all (Fd.is_fixed t) vars then begin
                let mask =
                  List.fold_left (fun m v -> m lor (1 lsl Fd.value t v)) 0 vars
                in
                mask land (((1 lsl n) - 1) lsl 1) = ((1 lsl n) - 1) lsl 1
              end
              else true))
    perms;
  (* Search: label instructions chronologically. *)
  let solutions = ref [] in
  let on_solution t =
    let p =
      Array.init len (fun s ->
          instr_of_codes (Fd.value t ops.(s)) (Fd.value t dsts.(s))
            (Fd.value t srcs.(s)))
    in
    if Machine.Exec.sorts_all_permutations cfg p then solutions := p :: !solutions;
    not all_solutions
  in
  let res = Fd.solve ~on_solution ~node_limit t in
  let solutions = List.rev !solutions in
  let outcome =
    match (res, solutions) with
    | None, _ -> Node_limit
    | Some _, p :: _ -> Found p
    | Some _, [] -> Exhausted
  in
  {
    outcome;
    solutions;
    nodes = Fd.nodes_explored t;
    elapsed = Unix.gettimeofday () -. start;
  }

let find_min_length ?(opts = default) ?(node_limit = max_int) ?(max_len = 12) n =
  let rec go len acc =
    if len > max_len then List.rev acc
    else
      let r = synth ~opts ~node_limit ~len n in
      let acc = (len, r) :: acc in
      match r.outcome with
      | Found _ | Node_limit -> List.rev acc
      | Exhausted -> go (len + 1) acc
  in
  go 1 []
