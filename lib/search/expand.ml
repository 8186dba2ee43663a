type heuristic = No_heuristic | Perm_count | Assign_count | Dist_bound
type cut = No_cut | Mult of float | Add of int
type action_filter = All_actions | Optimal_guided
type engine = Astar | Level_sync

type options = {
  engine : engine;
  heuristic : heuristic;
  h_weight : float;
  cut : cut;
  action_filter : action_filter;
  erasure_check : bool;
  dist_viability : bool;
  dedup : bool;
  max_len : int option;
  max_solutions : int;
  trace_every : int option;
  state_budget : int option;
}

exception Resource_exhausted of { live : int; budget : int option }

let check_budget opts ~live =
  (match opts.state_budget with
  | Some budget when live > budget ->
      raise (Resource_exhausted { live; budget = Some budget })
  | _ -> ());
  if Fault.fire Fault.Search_alloc_budget then
    (* The fault site can fire with no budget configured; report that
       honestly instead of leaking a [max_int] sentinel into messages. *)
    raise (Resource_exhausted { live; budget = opts.state_budget })

let needs_distance opts =
  opts.dist_viability || opts.heuristic = Dist_bound
  || opts.action_filter = Optimal_guided

type delta = {
  mutable generated : int;
  mutable kept : int;
  mutable finals : int;
  mutable pruned_cut : int;
  mutable pruned_viability : int;
  mutable pruned_bound : int;
}

let zero_delta () =
  {
    generated = 0;
    kept = 0;
    finals = 0;
    pruned_cut = 0;
    pruned_viability = 0;
    pruned_bound = 0;
  }

let merge_delta ~into d =
  into.generated <- into.generated + d.generated;
  into.kept <- into.kept + d.kept;
  into.finals <- into.finals + d.finals;
  into.pruned_cut <- into.pruned_cut + d.pruned_cut;
  into.pruned_viability <- into.pruned_viability + d.pruned_viability;
  into.pruned_bound <- into.pruned_bound + d.pruned_bound

type env = {
  cfg : Isa.Config.t;
  opts : options;
  instrs : Isa.Instr.t array;
  dist : Distance.t option;
  bound : int;
}

let make_env ?(bound = max_int) cfg opts =
  {
    cfg;
    opts;
    instrs = Isa.Instr.all cfg;
    dist =
      (if needs_distance opts then Some (Distance.compute_cached cfg) else None);
    bound;
  }

type succ = {
  instr : Isa.Instr.t;
  state : Sstate.t;
  pc : int;
  is_final : bool;
}

let cut_threshold opts ~min_pc =
  match opts.cut with
  | No_cut -> max_int
  | Mult k ->
      (* Round to the nearest count — [int_of_float] truncates toward
         zero, which silently tightened e.g. x1.15 of 20 to 22 instead of
         23 — and never cut below the level's own minimum: a multiplier
         >= 1 must keep every minimal-count state. *)
      max min_pc (int_of_float (Float.round (k *. float_of_int min_pc)))
  | Add d -> min_pc + d

let actions env state =
  match env.opts.action_filter with
  | All_actions -> env.instrs
  | Optimal_guided -> (
      match env.dist with
      | None -> env.instrs
      | Some d ->
          let marks = Distance.optimal_actions d env.instrs state in
          let kept =
            Array.fold_left (fun k b -> if b then k + 1 else k) 0 marks
          in
          if kept = 0 then [||]
          else begin
            let out = Array.make kept env.instrs.(0) in
            let k = ref 0 in
            Array.iteri
              (fun i b ->
                if b then begin
                  out.(!k) <- env.instrs.(i);
                  incr k
                end)
              marks;
            out
          end)

(* Successor vetting for non-final successors. The checks run in a fixed
   order — erasure, distance viability, length bound, cut — and exactly one
   counter is bumped per pruned successor, so the prune attribution is
   mutually exclusive by construction:
   [generated = kept + finals + pruned_cut + pruned_viability + pruned_bound]
   holds for every delta. [viable] and [pc] come cached from the arena
   probe (or the state's own cache); [lb] is forced at most once and only
   when distance viability is on. Returns [true] iff the successor
   survives. *)
let vet env delta ~g' ~threshold ~viable ~pc lb =
  if env.opts.erasure_check && not viable then begin
    delta.pruned_viability <- delta.pruned_viability + 1;
    false
  end
  else
    let dist_ok =
      if not env.opts.dist_viability then true
      else
        match env.dist with
        | None -> true
        | Some _ ->
            let l = lb () in
            if l >= Distance.infinity then begin
              delta.pruned_viability <- delta.pruned_viability + 1;
              false
            end
            else if env.bound < max_int && g' + l > env.bound then begin
              delta.pruned_bound <- delta.pruned_bound + 1;
              false
            end
            else true
    in
    if not dist_ok then false
    else if env.bound < max_int && g' > env.bound then begin
      delta.pruned_bound <- delta.pruned_bound + 1;
      false
    end
    else if pc > threshold then begin
      delta.pruned_cut <- delta.pruned_cut + 1;
      false
    end
    else begin
      delta.kept <- delta.kept + 1;
      true
    end

let expand env arena delta ~g' ~threshold state =
  let cfg = env.cfg in
  let acts = actions env state in
  (* Lower-bound thunks, one per path so [vet] forces the fold only when
     the distance check actually runs. Allocated once per expansion, not
     per successor. *)
  let probe_lb () =
    match env.dist with
    | Some d ->
        Sstate.Arena.probe_fold arena
          (fun acc c -> max acc (Distance.dist d c))
          0
    | None -> 0
  in
  let parent_lb () =
    match env.dist with
    | Some d -> Distance.state_lower_bound d state
    | None -> 0
  in
  let out = ref [] in
  Array.iter
    (fun instr ->
      delta.generated <- delta.generated + 1;
      match Sstate.Arena.probe arena instr state with
      | Sstate.Arena.Unchanged ->
          (* The successor is the parent state itself (engines only expand
             non-final states, so it is not final); all vetting queries hit
             the parent's caches. It survives vetting exactly when the
             parent would, and the engine's dedup then drops it. *)
          if
            vet env delta ~g' ~threshold
              ~viable:(Sstate.all_viable cfg state)
              ~pc:(Sstate.distinct_perms cfg state)
              parent_lb
          then
            out :=
              {
                instr;
                state;
                pc = Sstate.distinct_perms cfg state;
                is_final = false;
              }
              :: !out
      | Sstate.Arena.Changed ->
          if Sstate.Arena.probe_is_final arena then begin
            delta.finals <- delta.finals + 1;
            out :=
              {
                instr;
                state = Sstate.Arena.commit arena;
                pc = 1;
                is_final = true;
              }
              :: !out
          end
          else if
            vet env delta ~g' ~threshold
              ~viable:(Sstate.Arena.probe_all_viable arena)
              ~pc:(Sstate.Arena.probe_distinct_perms arena)
              probe_lb
          then
            out :=
              {
                instr;
                state = Sstate.Arena.commit arena;
                pc = Sstate.Arena.probe_distinct_perms arena;
                is_final = false;
              }
              :: !out)
    acts;
  List.rev !out
