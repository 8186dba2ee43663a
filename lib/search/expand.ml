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
  filter : (int * int) array;
}

let make_env ?(bound = max_int) cfg opts =
  let instrs = Isa.Instr.all cfg in
  let dist =
    if needs_distance opts then Some (Distance.compute_cached cfg) else None
  in
  let filter =
    match (opts.action_filter, dist) with
    | Optimal_guided, Some d -> Array.map (Distance.action_bit d) instrs
    | _ -> Array.make (Array.length instrs) (-1, 0)
  in
  { cfg; opts; instrs; dist; bound; filter }

type 'i succ =
  | Final of { instr : 'i; state : Sstate.t }
  | Open of { instr : 'i; state : Sstate.t; pc : int }
  | Known

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

(* Successor vetting for non-final successors. The checks run in a fixed
   order — erasure, distance viability, length bound, cut — and exactly one
   counter is bumped per pruned successor, so the prune attribution is
   mutually exclusive by construction:
   [generated = kept + finals + pruned_cut + pruned_viability + pruned_bound]
   holds for every delta. [viable], [pc] and [lb] come from the arena's
   order-free probe pass, or from the parent's own caches for an unchanged
   or [cmp] successor; [lb] is read only when distance viability is on.
   Returns [true] iff the successor survives. *)
let vet env delta ~g' ~(threshold : int) ~viable ~(pc : int) ~lb =
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
            if lb >= Distance.infinity then begin
              delta.pruned_viability <- delta.pruned_viability + 1;
              false
            end
            else if env.bound < max_int && g' + lb > env.bound then begin
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

let known_state known s = match known with Some k -> k s | None -> false

(* A final successor past the length bound is no solution: it counts
   under [pruned_bound], not [finals]. The level loop never generates
   one, and neither does A* while distance viability holds every
   non-final state at least one step inside the bound. *)
let final_within env delta ~g' =
  if env.bound < max_int && g' > env.bound then begin
    delta.pruned_bound <- delta.pruned_bound + 1;
    false
  end
  else begin
    delta.finals <- delta.finals + 1;
    true
  end

(* A vetted successor that is the parent state itself. *)
let unchanged known instr state ~pc =
  if known_state known state then Known else Open { instr; state; pc }

(* A vetted successor staged by the last probe. Ask before committing: a
   survivor the engine already knows is never copied into the chunk. The
   view dies with this call. *)
let staged known arena instr ~pc =
  if known_state known (Sstate.Arena.probe_view arena) then Known
  else Open { instr; state = Sstate.Arena.commit arena; pc }

let expand ?known env arena delta ~g' ~threshold state =
  let cfg = env.cfg in
  (match env.dist with Some d -> Distance.attach d arena | None -> ());
  (* The parent's facts. An unchanged successor is the parent itself (not
     final: engines only expand non-final states), and a [cmp] successor
     differs from it only in flag bits, which none of these facts reads
     (the distance table is flag-independent, see [Distance]). *)
  let pc = Sstate.distinct_perms cfg state in
  let viable = Sstate.all_viable cfg state in
  let lb =
    match env.dist with
    | Some d -> Distance.state_lower_bound d state
    | None -> -1
  in
  (* A data-moving successor rewrites only its destination, and only in
     the codes where it fires (every code for [mov], those whose flags
     read lt or gt for a cmov), so two of its verdicts follow from the
     parent and it is never probed for them.
     Erasure: it keeps every value exactly when the parent did and its
     destination is no sole holder in a firing code ([Arena.sole_holders]:
     the holders over all codes, lt codes and gt codes). A successor that
     loses one is pruned where [vet] prunes it: by the erasure check, or
     by distance viability, which holds a code missing a value dead.
     Cut: its count is at least the parent's [pc] for a scratch
     destination and [Arena.perms_without] for a value one. A floor above
     [threshold] and at least 2 is a non-final successor that the cut
     prunes, provided nothing earlier in [vet] fires: it is viable (the
     erasure step passed), so with no viable dead code its bound is
     finite and at most [max_finite_dist], and the length bound holds.
     [settle_cut] is that proviso, and also asks that the parent be above
     the threshold, which every floor needs. *)
  let viability_prunes =
    env.opts.erasure_check || (env.opts.dist_viability && env.dist <> None)
  in
  let sole =
    if viability_prunes && viable then Sstate.Arena.sole_holders arena state
    else 0
  in
  let erases (i : Isa.Instr.t) =
    viability_prunes
    && ((not viable)
       ||
       let shift =
         match i.op with Cmovl -> 10 | Cmovg -> 20 | Mov | Cmp -> 0
       in
       (sole lsr shift) land (1 lsl i.dst) <> 0)
  in
  let settle_cut =
    pc > threshold
    &&
    match env.dist with
    | Some d when env.opts.dist_viability ->
        Distance.no_viable_dead d
        && (env.bound = max_int || g' + Distance.max_finite_dist d <= env.bound)
    | _ -> env.bound = max_int || g' <= env.bound
  in
  let n = cfg.Isa.Config.n in
  (* [perms_without] per value register, counted on first use. *)
  let floors = if settle_cut then Array.make n (-1) else [||] in
  let cut_settles (i : Isa.Instr.t) =
    settle_cut
    &&
    let floor =
      if i.dst >= n then pc
      else begin
        if floors.(i.dst) < 0 then
          floors.(i.dst) <- Sstate.Arena.perms_without arena state i.dst;
        floors.(i.dst)
      end
    in
    floor > threshold && floor >= 2
  in
  (* Boxed once here, not on every non-[cmp] probe. *)
  let limit = Some threshold in
  (* The action filter's current mask word, computed on first use. *)
  let word = ref 0 and word_at = ref (-1) in
  let out = ref [] in
  for k = 0 to Array.length env.instrs - 1 do
    let instr = env.instrs.(k) in
    let w, bit = env.filter.(k) in
    if
      w < 0
      ||
      match env.dist with
      | None -> true
      | Some d ->
          if w <> !word_at then begin
            word := Distance.mask_word d state w;
            word_at := w
          end;
          !word land bit <> 0
    then begin
      delta.generated <- delta.generated + 1;
      if instr.Isa.Instr.op = Isa.Instr.Cmp then begin
        (* Vetted before mapping a single code; only survivors are
           staged, with the parent's facts, to find out whether they are
           new. *)
        if vet env delta ~g' ~threshold ~viable ~pc ~lb then
          out :=
            (match Sstate.Arena.stage_cmp arena instr state with
            | Sstate.Arena.Unchanged -> unchanged known instr state ~pc
            | Sstate.Arena.Changed -> staged known arena instr ~pc)
            :: !out
      end
      else if erases instr then
        delta.pruned_viability <- delta.pruned_viability + 1
      else if cut_settles instr then delta.pruned_cut <- delta.pruned_cut + 1
      else
        match Sstate.Arena.probe ?limit arena instr state with
        | Sstate.Arena.Unchanged ->
            (* It survives vetting exactly when the parent would, and
               dedup (the [known] pre-filter, else the engine's own table)
               then drops it. *)
            if vet env delta ~g' ~threshold ~viable ~pc ~lb then
              out := unchanged known instr state ~pc :: !out
        | Sstate.Arena.Changed ->
            if Sstate.Arena.probe_is_final arena then begin
              if final_within env delta ~g' then
                out := Final { instr; state = Sstate.Arena.commit arena } :: !out
            end
            else
              let pc = Sstate.Arena.probe_distinct_perms arena in
              (* A probe stopped at the limit reports a count above
                 [threshold]; the cut (or an earlier check) prunes it. *)
              if
                vet env delta ~g' ~threshold
                  ~viable:(Sstate.Arena.probe_all_viable arena)
                  ~pc
                  ~lb:(Sstate.Arena.probe_lower_bound arena)
              then out := staged known arena instr ~pc :: !out
    end
  done;
  List.rev !out

type 'i code_isa = {
  instrs : 'i array;
  input : int array -> int;
  apply : 'i -> int -> int;
  is_sorted : int -> bool;
  viable : int -> bool;
  perm_key : int -> int;
}

let code_perms isa codes =
  Array.fold_left (fun keys c -> isa.perm_key c :: keys) [] codes
  |> List.sort_uniq Int.compare |> List.length

let code_root isa cfg =
  let codes =
    Perms.all cfg.Isa.Config.n |> List.map isa.input |> Array.of_list
  in
  ( Sstate.of_codes ~perms:(code_perms isa codes) codes,
    Array.for_all isa.is_sorted codes )

(* The same bookkeeping as [expand], without an arena: each successor's
   codes are mapped into a fresh array, its facts read off that array,
   and only survivors are canonicalized, with their count (by this
   machine's permutation key) stored on the state for the engines. *)
let expand_codes ?known env isa delta ~g' ~threshold state =
  let codes = Sstate.codes state in
  Array.to_list isa.instrs
  |> List.filter_map (fun instr ->
         delta.generated <- delta.generated + 1;
         let codes' = Array.map (isa.apply instr) codes in
         if Array.for_all isa.is_sorted codes' then
           if final_within env delta ~g' then
             Some (Final { instr; state = Sstate.of_codes codes' })
           else None
         else
           let pc = code_perms isa codes' in
           let viable = Array.for_all isa.viable codes' in
           if not (vet env delta ~g' ~threshold ~viable ~pc ~lb:(-1)) then None
           else
             let state = Sstate.of_codes ~perms:pc codes' in
             Some (if known_state known state then Known else Open { instr; state; pc }))
