let binary_inputs n = List.init (1 lsl n) (fun bits ->
    Array.init n (fun i -> (bits lsr i) land 1))

let sorts_all_binary cfg p =
  List.for_all
    (fun input ->
      let output = Exec.run cfg p input in
      Exec.output_correct ~input ~output)
    (binary_inputs cfg.Isa.Config.n)

let zero_one_gap cfg p =
  if sorts_all_binary cfg p then
    match Exec.counterexample cfg p with
    | Some perm -> `Gap perm
    | None -> `Equivalent
  else `Equivalent

(* Cap on programs tried: the witness appears long before it. *)
let max_programs = 2_000_000

let find_counterexample_kernel cfg =
  let instrs = Isa.Instr.all cfg in
  let ni = Array.length instrs in
  let tried = ref 0 in
  let found = ref None in
  (* Iterative deepening over program length; prefix pruning would help but
     the witness appears at short lengths, so brute force suffices. *)
  let rec extend prog len =
    if !found = None && !tried < max_programs then
      if len = 0 then begin
        incr tried;
        let p = Array.of_list (List.rev prog) in
        match zero_one_gap cfg p with
        | `Gap perm -> found := Some (p, perm)
        | `Equivalent -> ()
      end
      else
        for i = 0 to ni - 1 do
          if !found = None then extend (instrs.(i) :: prog) (len - 1)
        done
  in
  let len = ref 1 in
  while !found = None && !tried < max_programs && !len <= 6 do
    extend [] !len;
    incr len
  done;
  !found
