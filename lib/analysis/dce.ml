type removal = { index : int; rule : Lint.rule }

type result = {
  optimized : Isa.Program.t;
  removed : removal list;
  passes : int;
  certified : bool;
  refused : bool;
}

(* One dataflow pass: all instructions removable by liveness facts alone.
   Deleting them simultaneously is sound: deletion only removes uses, so
   every other dead definition stays dead. *)
let dataflow_removable cfg p =
  let df = Dataflow.analyze cfg p in
  let classify i =
    let x = p.(i) in
    let open Isa.Instr in
    match writes x with
    | Some d when not (Dataflow.reg_live_after df i d) -> Some Lint.Dead_write
    | _ -> (
        match x.op with
        | Cmp
          when not (Dataflow.lt_live_after df i || Dataflow.gt_live_after df i)
          ->
            Some Lint.Dead_cmp
        | (Cmovl | Cmovg) when Dataflow.reaching_cmp df i = None ->
            Some Lint.Orphan_cmov
        | _ -> None)
  in
  List.filter_map
    (fun i -> Option.map (fun r -> (i, r)) (classify i))
    (List.init (Array.length p) Fun.id)

(* Semantic no-ops are identity on their reachable sets, so deleting all of
   them at once leaves every downstream reachable set — and hence every
   other no-op proof — intact. *)
let noop_removable cfg p =
  List.map (fun i -> (i, Lint.Semantic_noop)) (Absint.semantic_noops cfg p)

let delete p victims =
  let dead = Array.make (Array.length p) false in
  List.iter (fun (i, _) -> dead.(i) <- true) victims;
  let keep = ref [] in
  Array.iteri (fun i x -> if not dead.(i) then keep := x :: !keep) p;
  Array.of_list (List.rev !keep)

let run cfg p =
  (* orig.(i) = index in the original program of current instruction i. *)
  let orig = ref (Array.init (Array.length p) Fun.id) in
  let cur = ref p in
  let removed = ref [] in
  let passes = ref 0 in
  let shrink victims =
    removed :=
      !removed
      @ List.map (fun (i, rule) -> { index = !orig.(i); rule }) victims;
    let victim_set = List.map fst victims in
    orig :=
      Array.of_list
        (List.filteri
           (fun i _ -> not (List.mem i victim_set))
           (Array.to_list !orig));
    cur := delete !cur victims
  in
  let rec fix () =
    incr passes;
    match dataflow_removable cfg !cur with
    | _ :: _ as victims ->
        shrink victims;
        fix ()
    | [] -> (
        match noop_removable cfg !cur with
        | _ :: _ as victims ->
            shrink victims;
            fix ()
        | [] -> ())
  in
  fix ();
  let optimized = !cur in
  let preserved = Machine.Exec.equiv cfg p optimized = Machine.Exec.Equivalent in
  let in_certifies = Result.is_ok (Machine.Exec.certify cfg p) in
  let out_certifies = Result.is_ok (Machine.Exec.certify cfg optimized) in
  if preserved && (out_certifies || not in_certifies) then
    {
      optimized;
      removed = List.sort (fun a b -> compare a.index b.index) !removed;
      passes = !passes;
      certified = out_certifies;
      refused = false;
    }
  else
    (* The proof failed: refuse the rewrite, return the input untouched. *)
    {
      optimized = p;
      removed = [];
      passes = !passes;
      certified = in_certifies;
      refused = true;
    }
