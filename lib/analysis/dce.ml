type removal = { index : int; rule : Lint.rule }

type result = {
  optimized : Isa.Program.t;
  removed : removal list;
  passes : int;
  certified : bool;
  refused : bool;
}

(* One dataflow pass: every instruction Lint proves dead, named by the
   first dead-write, dead-cmp or orphan-cmov finding at its index.
   Deleting them simultaneously is sound: deletion only removes uses, so
   every other dead definition stays dead. *)
let dataflow_removable cfg p =
  List.fold_left
    (fun acc (f : Lint.finding) ->
      match (f.rule, f.index) with
      | (Lint.Dead_write | Lint.Dead_cmp | Lint.Orphan_cmov), Some i
        when not (List.mem_assoc i acc) ->
          (i, f.rule) :: acc
      | _ -> acc)
    [] (Lint.check cfg p)

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

(* Both families to a fixpoint, unproven. *)
let shrink cfg p =
  (* orig.(i) = index in the original program of current instruction i. *)
  let orig = ref (Array.init (Array.length p) Fun.id) in
  let cur = ref p in
  let removed = ref [] in
  let passes = ref 0 in
  let drop victims =
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
        drop victims;
        fix ()
    | [] -> (
        match noop_removable cfg !cur with
        | _ :: _ as victims ->
            drop victims;
            fix ()
        | [] -> ())
  in
  fix ();
  (!cur, List.sort (fun a b -> compare a.index b.index) !removed, !passes)

let fixpoint cfg p =
  let optimized, _, _ = shrink cfg p in
  optimized

let run cfg p =
  let optimized, removed, passes = shrink cfg p in
  match Machine.Exec.prove_rewrite cfg ~pass:"dce" p optimized with
  | Ok sorts -> { optimized; removed; passes; certified = sorts; refused = false }
  | Error _ ->
      (* The proof failed: refuse the rewrite, return the input untouched. *)
      {
        optimized = p;
        removed = [];
        passes;
        certified = Result.is_ok (Machine.Exec.certify cfg p);
        refused = true;
      }
