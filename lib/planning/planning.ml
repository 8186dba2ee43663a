module Planner = struct
  type heuristic = Blind | Goal_count | Pdb
  type strategy = Uniform | Greedy | Wastar of int

  type result = {
    plan : Isa.Program.t option;
    expanded : int;
    generated : int;
    elapsed : float;
  }

  type node = { state : Sstate.t; g : int; parents : (node * Isa.Instr.t) option }

  let goal_count cfg s =
    Array.fold_left
      (fun acc c -> if Machine.Assign.is_sorted cfg c then acc else acc + 1)
      0 (Sstate.codes s)

  let solve ?(heuristic = Goal_count) ?(strategy = Greedy)
      ?(max_expansions = 2_000_000) ?max_len n =
    let t0 = Unix.gettimeofday () in
    let cfg = Isa.Config.default n in
    let instrs = Isa.Instr.all cfg in
    let dist = if heuristic = Pdb then Some (Distance.compute_cached cfg) else None in
    (* A dead state's estimate. It is never weighted, so it sorts after
       every finite priority instead of overflowing at [Wastar 4]. *)
    let dead = max_int / 4 in
    let h node =
      match heuristic with
      | Blind -> 0
      | Goal_count -> goal_count cfg node.state
      | Pdb -> (
          match dist with
          | Some d ->
              let lb = Distance.state_lower_bound d node.state in
              if lb >= Distance.infinity then dead else lb
          | None -> 0)
    in
    let prio node =
      match strategy with
      | Uniform -> node.g
      | Greedy -> h node
      | Wastar w ->
          let h = h node in
          node.g + if h = dead then dead else w * h
    in
    let bound = match max_len with Some b -> b | None -> max_int in
    let heap = Search.Heap.create () in
    let seen = Sstate.Tbl.create (1 lsl 14) in
    let init = Sstate.initial cfg in
    let root = { state = init; g = 0; parents = None } in
    Sstate.Tbl.replace seen init 0;
    Search.Heap.push heap (prio root) root;
    let expanded = ref 0 and generated = ref 0 in
    let found = ref None in
    let continue = ref true in
    while !continue do
      match Search.Heap.pop heap with
      | None -> continue := false
      | Some (_, node) ->
          incr expanded;
          if !expanded > max_expansions then continue := false
          else if Sstate.is_final cfg node.state then begin
            found := Some node;
            continue := false
          end
          else if node.g < bound then
            Array.iter
              (fun instr ->
                let state' = Sstate.apply cfg instr node.state in
                incr generated;
                match Sstate.Tbl.find_opt seen state' with
                | Some g when g <= node.g + 1 -> ()
                | _ ->
                    Sstate.Tbl.replace seen state' (node.g + 1);
                    let n' =
                      { state = state'; g = node.g + 1; parents = Some (node, instr) }
                    in
                    Search.Heap.push heap (prio n') n')
              instrs
    done;
    let plan =
      Option.map
        (fun node ->
          let rec walk acc n =
            match n.parents with
            | None -> Array.of_list acc
            | Some (p, i) -> walk (i :: acc) p
          in
          walk [] node)
        !found
    in
    (match plan with
    | Some p -> assert (Machine.Exec.sorts_all_permutations cfg p)
    | None -> ());
    {
      plan;
      expanded = !expanded;
      generated = !generated;
      elapsed = Unix.gettimeofday () -. t0;
    }
end

module Pddl = struct
  (* Tandem encoding: predicate (holds ?p ?r ?v) per permutation object,
     register object, value object; flag predicates (lt ?p) / (gt ?p). *)

  let domain cfg =
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "(define (domain sorting-kernels)\n";
    add "  (:requirements :strips :typing :conditional-effects)\n";
    add "  (:types perm reg value)\n";
    add "  (:predicates\n";
    add "    (holds ?p - perm ?r - reg ?v - value)\n";
    add "    (lt ?p - perm) (gt ?p - perm)\n";
    add "    (less ?a - value ?b - value))\n";
    add "  (:action mov\n";
    add "    :parameters (?d - reg ?s - reg)\n";
    add "    :precondition (not (= ?d ?s))\n";
    add "    :effect (forall (?p - perm ?v - value)\n";
    add "      (when (holds ?p ?s ?v)\n";
    add "        (and (holds ?p ?d ?v)\n";
    add "             (forall (?u - value)\n";
    add "               (when (not (= ?u ?v)) (not (holds ?p ?d ?u)))))))\n";
    add "  )\n";
    add "  (:action cmp\n";
    add "    :parameters (?a - reg ?b - reg)\n";
    add "    :precondition (not (= ?a ?b))\n";
    add "    :effect (forall (?p - perm ?va - value ?vb - value)\n";
    add "      (when (and (holds ?p ?a ?va) (holds ?p ?b ?vb))\n";
    add "        (and (when (less ?va ?vb) (and (lt ?p) (not (gt ?p))))\n";
    add "             (when (less ?vb ?va) (and (gt ?p) (not (lt ?p))))\n";
    add "             (when (and (not (less ?va ?vb)) (not (less ?vb ?va)))\n";
    add "                   (and (not (lt ?p)) (not (gt ?p)))))))\n";
    add "  )\n";
    add "  (:action cmovl\n";
    add "    :parameters (?d - reg ?s - reg)\n";
    add "    :precondition (not (= ?d ?s))\n";
    add "    :effect (forall (?p - perm ?v - value)\n";
    add "      (when (and (lt ?p) (holds ?p ?s ?v))\n";
    add "        (and (holds ?p ?d ?v)\n";
    add "             (forall (?u - value)\n";
    add "               (when (not (= ?u ?v)) (not (holds ?p ?d ?u)))))))\n";
    add "  )\n";
    add "  (:action cmovg\n";
    add "    :parameters (?d - reg ?s - reg)\n";
    add "    :precondition (not (= ?d ?s))\n";
    add "    :effect (forall (?p - perm ?v - value)\n";
    add "      (when (and (gt ?p) (holds ?p ?s ?v))\n";
    add "        (and (holds ?p ?d ?v)\n";
    add "             (forall (?u - value)\n";
    add "               (when (not (= ?u ?v)) (not (holds ?p ?d ?u)))))))\n";
    add "  )\n";
    add ")\n";
    ignore cfg;
    Buffer.contents buf

  let problem cfg =
    let n = cfg.Isa.Config.n in
    let k = Isa.Config.nregs cfg in
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let perms = Perms.all n in
    add "(define (problem sort-%d)\n" n;
    add "  (:domain sorting-kernels)\n";
    add "  (:objects\n";
    add "    %s - perm\n"
      (String.concat " " (List.mapi (fun i _ -> Printf.sprintf "p%d" i) perms));
    add "    %s - reg\n"
      (String.concat " " (List.init k (fun r -> Printf.sprintf "r%d" r)));
    add "    %s - value)\n"
      (String.concat " " (List.init (n + 1) (fun v -> Printf.sprintf "v%d" v)));
    add "  (:init\n";
    for a = 0 to n do
      for b = a + 1 to n do
        add "    (less v%d v%d)\n" a b
      done
    done;
    List.iteri
      (fun i perm ->
        for r = 0 to k - 1 do
          let v = if r < n then perm.(r) else 0 in
          add "    (holds p%d r%d v%d)\n" i r v
        done)
      perms;
    add "  )\n";
    add "  (:goal (and\n";
    List.iteri
      (fun i _ ->
        for r = 0 to n - 1 do
          add "    (holds p%d r%d v%d)\n" i r (r + 1)
        done)
      perms;
    add "  ))\n";
    add ")\n";
    Buffer.contents buf
end
