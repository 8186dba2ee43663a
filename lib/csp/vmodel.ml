type outcome = Found of Minmax.Vexec.program | Exhausted | Node_limit

type result = {
  outcome : outcome;
  solutions : Minmax.Vexec.program list;
  nodes : int;
  elapsed : float;
}

let op_movdqa = 0
let op_pmin = 1
let _op_pmax = 2

let instr_of_codes op dst src =
  let op =
    match op with
    | 0 -> Minmax.Vinstr.Movdqa
    | 1 -> Minmax.Vinstr.Pmin
    | _ -> Minmax.Vinstr.Pmax
  in
  { Minmax.Vinstr.op; dst; src }

let synth ?(node_limit = max_int) ?(all_solutions = false) ~len n =
  let start = Unix.gettimeofday () in
  let cfg = Isa.Config.default n in
  let k = Isa.Config.nregs cfg in
  let perms = Perms.all n in
  let t = Fd.create () in
  let rec mk s acc =
    if s = len then Array.of_list (List.rev acc)
    else begin
      let o = Fd.new_var t ~lo:0 ~hi:2 in
      let d = Fd.new_var t ~lo:0 ~hi:(k - 1) in
      let sr = Fd.new_var t ~lo:0 ~hi:(k - 1) in
      mk (s + 1) ((o, d, sr) :: acc)
    end
  in
  let decisions = mk 0 [] in
  let value =
    Array.init (len + 1) (fun _ ->
        Array.init (List.length perms) (fun _ ->
            Array.init k (fun _ -> Fd.new_var t ~lo:0 ~hi:n)))
  in
  List.iteri
    (fun pi perm ->
      for r = 0 to k - 1 do
        let v = if r < n then perm.(r) else 0 in
        Fd.post t (fun t -> Fd.assign t value.(0).(pi).(r) v)
      done)
    perms;
  Array.iter
    (fun (_, d, sr) ->
      Fd.post t ~watch:[ d; sr ] (fun t ->
          if Fd.is_fixed t d then Fd.remove_value t sr (Fd.value t d)
          else if Fd.is_fixed t sr then Fd.remove_value t d (Fd.value t sr)
          else true))
    decisions;
  Array.iteri
    (fun s (o, d, sr) ->
      List.iteri
        (fun pi _ ->
          let deps = o :: d :: sr :: Array.to_list value.(s).(pi) in
          Fd.post t ~watch:deps (fun t ->
              if not (List.for_all (Fd.is_fixed t) deps) then true
              else begin
                let ov = Fd.value t o and dv = Fd.value t d and sv = Fd.value t sr in
                let cur r = Fd.value t value.(s).(pi).(r) in
                let ok = ref true in
                for r = 0 to k - 1 do
                  if r <> dv then
                    ok := !ok && Fd.assign t value.(s + 1).(pi).(r) (cur r)
                done;
                let nv =
                  if ov = op_movdqa then cur sv
                  else if ov = op_pmin then min (cur dv) (cur sv)
                  else max (cur dv) (cur sv)
                in
                ok := !ok && Fd.assign t value.(s + 1).(pi).(dv) nv;
                (* Erasure pruning: every input value must survive. *)
                if !ok then begin
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
        perms)
    decisions;
  List.iteri
    (fun pi _ ->
      for r = 0 to n - 1 do
        Fd.post t (fun t -> Fd.assign t value.(len).(pi).(r) (r + 1))
      done)
    perms;
  let solutions = ref [] in
  let on_solution t =
    let p =
      Array.map
        (fun (o, d, sr) ->
          instr_of_codes (Fd.value t o) (Fd.value t d) (Fd.value t sr))
        decisions
    in
    if Minmax.Vexec.sorts_all_permutations cfg p then solutions := p :: !solutions;
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
  { outcome; solutions; nodes = Fd.nodes_explored t; elapsed = Unix.gettimeofday () -. start }

let find_min_length ?(node_limit = max_int) ?(max_len = 16) n =
  let rec go len acc =
    if len > max_len then List.rev acc
    else
      let r = synth ~node_limit ~len n in
      let acc = (len, r) :: acc in
      match r.outcome with
      | Found _ | Node_limit -> List.rev acc
      | Exhausted -> go (len + 1) acc
  in
  go 1 []
