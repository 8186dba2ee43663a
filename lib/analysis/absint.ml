(* Exact permutation-set abstract interpretation: the abstract state is the
   set of reachable Assign codes, the transfer function is the image under
   Assign.apply. n <= 6 bounds every set by 6! = 720 immediate ints, so
   sort_uniq per step is cheap. *)

let initial cfg =
  Perms.all cfg.Isa.Config.n
  |> List.map (Machine.Assign.of_permutation cfg)
  |> List.sort_uniq compare |> Array.of_list

let image cfg instr set =
  Array.to_list set
  |> List.map (Machine.Assign.apply cfg instr)
  |> List.sort_uniq compare |> Array.of_list

let reachable cfg p =
  let len = Array.length p in
  let sets = Array.make (len + 1) [||] in
  sets.(0) <- initial cfg;
  for i = 0 to len - 1 do
    sets.(i + 1) <- image cfg p.(i) sets.(i)
  done;
  sets

let set_sizes cfg p = Array.map Array.length (reachable cfg p)

let semantic_noops cfg p =
  let sets = reachable cfg p in
  let noop i =
    Array.for_all (fun c -> Machine.Assign.apply cfg p.(i) c = c) sets.(i)
  in
  List.filter noop (List.init (Array.length p) Fun.id)
