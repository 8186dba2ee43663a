module Heap = Heap
module Expand = Expand
module Stats = Stats

type heuristic = Expand.heuristic =
  | No_heuristic
  | Perm_count
  | Assign_count
  | Dist_bound

type cut = Expand.cut = No_cut | Mult of float | Add of int
type action_filter = Expand.action_filter = All_actions | Optimal_guided
type engine = Expand.engine = Astar | Level_sync
type mode = Find_first | All_optimal | Prove_none of int

exception Timeout
exception Resource_exhausted = Expand.Resource_exhausted

type options = Expand.options = {
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

let default =
  {
    engine = Astar;
    heuristic = No_heuristic;
    h_weight = 1.0;
    cut = No_cut;
    action_filter = All_actions;
    erasure_check = true;
    dist_viability = true;
    dedup = true;
    max_len = None;
    max_solutions = 10_000;
    trace_every = None;
    state_budget = None;
  }

let best =
  {
    default with
    heuristic = Perm_count;
    action_filter = Optimal_guided;
    cut = Mult 1.0;
  }

let best_preserving =
  { default with heuristic = Perm_count; cut = Mult 2.0 }

type trace_point = Stats.trace_point = {
  t : float;
  open_states : int;
  solutions_found : int;
}

type level_stat = Stats.level_stat = {
  depth : int;
  nodes_expanded : int;
  succs_generated : int;
  succs_kept : int;
  finals_found : int;
  succs_deduped : int;
  cut_pruned : int;
  viability_pruned : int;
  bound_pruned : int;
  open_after : int;
}

type stats = Stats.t = {
  expanded : int;
  generated : int;
  deduped : int;
  pruned_cut : int;
  pruned_viability : int;
  pruned_bound : int;
  max_open : int;
  elapsed : float;
  timeline : trace_point list;
  levels : level_stat list;
}

type 'i outcome = {
  programs : 'i array list;
  optimal_length : int option;
  solution_count : int;
  distinct_final_states : int;
  stats : stats;
}

type result = Isa.Instr.t outcome

(* A search node. Its distinct-permutation count, which the cut and the
   heuristic read, is its state's ([Sstate.distinct_perms], cached on the
   state). The representative parent and the instruction from it sit
   inline; only [All_optimal] adds further parents, to [more]. *)
type 'i node = {
  state : Sstate.t;
  g : int;
  mutable paths : int;
  parent : 'i node; (* the representative parent; the root is its own *)
  instr : 'i; (* the instruction from [parent]; any one at the root *)
  mutable more : ('i node * 'i) list; (* further parents, in arrival order *)
}

let is_root n = n.parent == n

let child ~g ~paths state parent instr =
  { state; g; paths; parent; instr; more = [] }

(* Record one more parent of [n] ([All_optimal]). *)
let add_parent n parent instr = n.more <- n.more @ [ (parent, instr) ]

(* One expansion step as the engines see it: the machine's own
   successor function over a domain-private scratch, vetted by the
   shared core into [delta]. *)
type 'i expander =
  Expand.delta ->
  known:(Sstate.t -> bool) option ->
  g':int ->
  threshold:int ->
  Sstate.t ->
  'i Expand.succ list

(* A machine as every engine sees it: the root state (its perm count
   cached on it), its instructions and finality, and a factory of
   expanders, one per domain. The engines know nothing else of an
   instruction set. *)
type 'i machine = {
  root : Sstate.t;
  instrs : 'i array;
  root_final : bool;
  expander : unit -> 'i expander;
}

(* The root node, its own parent: the engines build it only for a root
   that is not final, which has instructions to expand. *)
let root_node m =
  let rec root =
    {
      state = m.root;
      g = 0;
      paths = 1;
      parent = root;
      instr = m.instrs.(0);
      more = [];
    }
  in
  root

(* Per-depth stat accumulator: the expansion delta plus the merge-side
   counters only the engine knows. *)
type level_acc = {
  d : Expand.delta;
  mutable a_expanded : int;
  mutable a_deduped : int;
  mutable a_open : int;
}

type footprint = {
  states : int;
  code_bytes : int;
  record_bytes : int;
  node_bytes : int;
  cell_bytes : int;
}

(* Mutable context shared by all engines. Everything a worker domain needs
   is in the immutable [env]; the rest is touched only by the merging
   (main) domain. *)
type ctx = {
  env : Expand.env;
  start : float;
  deadline : float option;
      (** Absolute limit on the monotonic clock; see {!Timeout}. *)
  mutable expanded : int;
  mutable deduped : int;
  mutable max_open : int;
  mutable timeline : trace_point list;
  mutable solutions_found : int;
  mutable accs : level_acc array;
  mutable max_depth : int; (* number of leading [accs] entries in use *)
  weigh : bool; (* measure [footprint] as the engine ends *)
  mutable footprint : footprint option;
}

(* Monotonic: deadline math must survive the wall clock stepping
   backwards (NTP, VM suspend), and the injector can warp this clock. *)
let now () = Fault.Clock.now ()

let make_ctx ?(mode = Find_first) ?deadline ?(weigh = false) cfg opts =
  let bound =
    let b = match opts.max_len with Some b -> b | None -> max_int in
    match mode with Prove_none l -> min b l | Find_first | All_optimal -> b
  in
  {
    env = Expand.make_env ~bound cfg opts;
    start = now ();
    deadline;
    expanded = 0;
    deduped = 0;
    max_open = 0;
    timeline = [];
    solutions_found = 0;
    accs = [||];
    max_depth = 0;
    weigh;
    footprint = None;
  }

let fresh_acc () =
  { d = Expand.zero_delta (); a_expanded = 0; a_deduped = 0; a_open = 0 }

let check_deadline ctx =
  if Fault.fire Fault.Search_deadline then raise Timeout;
  match ctx.deadline with
  | Some d when now () > d -> raise Timeout
  | _ -> ()

(* The accumulator for expansions of depth-[depth] nodes. *)
let acc_at ctx depth =
  let n = Array.length ctx.accs in
  if depth >= n then begin
    let m = max (depth + 1) (2 * max 1 n) in
    ctx.accs <-
      Array.init m (fun i -> if i < n then ctx.accs.(i) else fresh_acc ())
  end;
  if depth + 1 > ctx.max_depth then ctx.max_depth <- depth + 1;
  ctx.accs.(depth)

(* A state the distance table calls dead gets [max_int / 2], unweighted,
   so it sorts after every finite estimate: weighting it (by 2 or more)
   would overflow into a negative priority that is popped first. *)
let heuristic_value ctx node =
  let opts = ctx.env.Expand.opts in
  let weigh raw =
    if opts.h_weight = 1.0 then raw
    else int_of_float (opts.h_weight *. float_of_int raw)
  in
  match opts.heuristic with
  | No_heuristic -> 0
  | Perm_count ->
      weigh (Sstate.distinct_perms ctx.env.Expand.cfg node.state - 1)
  | Assign_count -> weigh (Sstate.distinct_assignments node.state - 1)
  | Dist_bound -> (
      match ctx.env.Expand.dist with
      | Some d ->
          let lb = Distance.state_lower_bound d node.state in
          if lb >= Distance.infinity then max_int / 2 else weigh lb
      | None -> 0)

let sample_trace ctx ~open_states =
  match ctx.env.Expand.opts.trace_every with
  | Some k when ctx.expanded mod k = 0 ->
      ctx.timeline <-
        { t = now () -. ctx.start; open_states; solutions_found = ctx.solutions_found }
        :: ctx.timeline
  | _ -> ()

(* Path reconstruction: walk representative parents back to the root. *)
let program_of_node node =
  let rec go acc n = if is_root n then acc else go (n.instr :: acc) n.parent in
  Array.of_list (go [] node)

(* Enumerate up to [cap] distinct programs through the parent DAG. *)
let programs_of_final cap finals =
  let out = ref [] and count = ref 0 in
  let rec go suffix n =
    if !count < cap then
      if is_root n then begin
        out := Array.of_list suffix :: !out;
        incr count
      end
      else begin
        go (n.instr :: suffix) n.parent;
        List.iter (fun (p, i) -> go (i :: suffix) p) n.more
      end
  in
  List.iter (fun n -> go [] n) finals;
  List.rev !out

let finish ctx ~programs ~optimal_length ~solution_count ~distinct_final_states
    ~open_states =
  let levels =
    List.init ctx.max_depth (fun i ->
        let a = ctx.accs.(i) in
        {
          depth = i;
          nodes_expanded = a.a_expanded;
          succs_generated = a.d.Expand.generated;
          succs_kept = a.d.Expand.kept;
          finals_found = a.d.Expand.finals;
          succs_deduped = a.a_deduped;
          cut_pruned = a.d.Expand.pruned_cut;
          viability_pruned = a.d.Expand.pruned_viability;
          bound_pruned = a.d.Expand.pruned_bound;
          open_after = a.a_open;
        })
  in
  let sum f = List.fold_left (fun t l -> t + f l) 0 levels in
  {
    programs;
    optimal_length;
    solution_count;
    distinct_final_states;
    stats =
      {
        expanded = ctx.expanded;
        generated = sum (fun l -> l.succs_generated);
        deduped = ctx.deduped;
        pruned_cut = sum (fun l -> l.cut_pruned);
        pruned_viability = sum (fun l -> l.viability_pruned);
        pruned_bound = sum (fun l -> l.bound_pruned);
        max_open = max ctx.max_open open_states;
        elapsed = now () -. ctx.start;
        timeline = List.rev ctx.timeline;
        levels;
      };
  }

(* Weigh the dedup table [seen] and the nodes reachable from [nodes]:
   words reachable from the array of states, less the array, are the
   states' records and code storage; the table's own words are what
   [seen] reaches beyond them; the nodes' are what the pair of the array
   and [nodes] reaches beyond the array's. *)
let weigh ctx seen nodes =
  if ctx.weigh then begin
    let states =
      Array.of_list (Sstate.Tbl.fold (fun s _ acc -> s :: acc) seen [])
    in
    let n = Array.length states in
    let array_words = n + 1 in
    let of_states = Obj.reachable_words (Obj.repr states) - array_words in
    let record =
      if n = 0 then 0 else n * (Obj.size (Obj.repr states.(0)) + 1)
    in
    let cells = Obj.reachable_words (Obj.repr seen) - of_states in
    let pair_words = 3 in
    let nodes =
      Obj.reachable_words (Obj.repr (states, nodes))
      - pair_words - array_words - of_states
    in
    let bytes w = w * (Sys.word_size / 8) in
    ctx.footprint <-
      Some
        {
          states = n;
          code_bytes = bytes (of_states - record);
          record_bytes = bytes record;
          node_bytes = bytes nodes;
          cell_bytes = bytes cells;
        }
  end

let trivial_final ctx =
  finish ctx ~programs:[ [||] ] ~optimal_length:(Some 0) ~solution_count:1
    ~distinct_final_states:1 ~open_states:0

(* ------------------------------------------------------------------ *)
(* Persistent domain pool with a work-stealing shared frontier.

   The pool is spawned once per search and parked on a condition variable
   between levels — no per-level [Domain.spawn]/[Domain.join] churn. Each
   level publishes one job: the frontier as a node array plus an atomic
   cursor. Workers (and the main domain, which participates) repeatedly
   claim the next unclaimed node index and expand it with their own
   expander (over a per-domain arena) into a results slot private to that
   node, with a per-domain delta — so the drain order is load-balanced and
   nondeterministic, but the merge (performed by main, in node index
   order, after the whole level has drained) is exactly the sequential
   engine's merge. Delta sums are commutative, so the totals are
   independent of both the worker count and the steal schedule. *)

type 'i wjob = {
  j_nodes : 'i node array;
  j_g : int;  (* successor depth g' *)
  j_threshold : int;
  j_known : (Sstate.t -> bool) option;  (* reads [seen], frozen while draining *)
  j_cursor : int Atomic.t;  (* next unclaimed node index *)
  j_results : 'i Expand.succ list array;  (* slot per node *)
  j_deltas : Expand.delta array;  (* slot 0 = main, slot w + 1 = worker w *)
}

type 'i pool = {
  p_expanders : 'i expander array;  (* one per worker *)
  p_mutex : Mutex.t;
  p_work : Condition.t;
  p_finished : Condition.t;
  mutable p_job : 'i wjob option;
  mutable p_epoch : int;
  mutable p_active : int;
  mutable p_stop : bool;
  mutable p_exn : exn option;
  mutable p_workers : unit Domain.t array;
}

let drain_job job (expand : _ expander) delta =
  let n = Array.length job.j_nodes in
  let rec go () =
    let i = Atomic.fetch_and_add job.j_cursor 1 in
    if i < n then begin
      job.j_results.(i) <-
        expand delta ~known:job.j_known ~g':job.j_g ~threshold:job.j_threshold
          job.j_nodes.(i).state;
      go ()
    end
  in
  go ()

let worker_loop pool wid =
  let expand = pool.p_expanders.(wid) in
  let epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.p_mutex;
    while pool.p_epoch = !epoch && not pool.p_stop do
      Condition.wait pool.p_work pool.p_mutex
    done;
    if pool.p_stop then begin
      Mutex.unlock pool.p_mutex;
      running := false
    end
    else begin
      epoch := pool.p_epoch;
      let job = Option.get pool.p_job in
      Mutex.unlock pool.p_mutex;
      (* The core raises nothing under normal operation (fault sites live
         on the main domain), but a worker that did die would deadlock the
         level barrier — capture and re-raise from main instead. *)
      let exn =
        match drain_job job expand job.j_deltas.(wid + 1) with
        | () -> None
        | exception e -> Some e
      in
      Mutex.lock pool.p_mutex;
      (match exn with
      | Some e when pool.p_exn = None -> pool.p_exn <- Some e
      | _ -> ());
      pool.p_active <- pool.p_active - 1;
      if pool.p_active = 0 then Condition.signal pool.p_finished;
      Mutex.unlock pool.p_mutex
    end
  done

(* [machine.expander ()] builds one worker's expander; it runs here, on
   main. *)
let make_pool ~workers machine =
  let pool =
    {
      p_expanders = Array.init workers (fun _ -> machine.expander ());
      p_mutex = Mutex.create ();
      p_work = Condition.create ();
      p_finished = Condition.create ();
      p_job = None;
      p_epoch = 0;
      p_active = 0;
      p_stop = false;
      p_exn = None;
      p_workers = [||];
    }
  in
  pool.p_workers <-
    Array.init workers (fun w -> Domain.spawn (fun () -> worker_loop pool w));
  pool

let shutdown_pool pool =
  Mutex.lock pool.p_mutex;
  pool.p_stop <- true;
  Condition.broadcast pool.p_work;
  Mutex.unlock pool.p_mutex;
  Array.iter Domain.join pool.p_workers

let pool_run pool main_expand nodes ~g' ~threshold ~known =
  let nw = Array.length pool.p_workers in
  let job =
    {
      j_nodes = nodes;
      j_g = g';
      j_threshold = threshold;
      j_known = known;
      j_cursor = Atomic.make 0;
      j_results = Array.make (Array.length nodes) [];
      j_deltas = Array.init (nw + 1) (fun _ -> Expand.zero_delta ());
    }
  in
  Mutex.lock pool.p_mutex;
  pool.p_job <- Some job;
  pool.p_epoch <- pool.p_epoch + 1;
  pool.p_active <- nw;
  Condition.broadcast pool.p_work;
  Mutex.unlock pool.p_mutex;
  drain_job job main_expand job.j_deltas.(0);
  Mutex.lock pool.p_mutex;
  while pool.p_active > 0 do
    Condition.wait pool.p_finished pool.p_mutex
  done;
  let exn = pool.p_exn in
  pool.p_exn <- None;
  pool.p_job <- None;
  Mutex.unlock pool.p_mutex;
  (match exn with Some e -> raise e | None -> ());
  job

(* ------------------------------------------------------------------ *)
(* Level-synchronous engine (Dijkstra order; exact cuts; all-solutions
   enumeration and non-existence proofs), the one level search for every
   machine: it knows states, perm counts and vetted successors, never an
   instruction set. With a pool, each level's frontier is drained by the
   pool's workers plus the main domain, each with a private stat delta
   and expander; the merge into the next level's dedup table (and the
   delta merge) stays sequential on main, in node index order, so the
   pooled and the sequential path perform the exact same merges in the
   exact same order. *)

let run_level ctx ~pool m mode =
  let env = ctx.env in
  let opts = env.Expand.opts in
  if m.root_final then trivial_final ctx
  else begin
    let expand = m.expander () in
    let seen = Sstate.Tbl.create (1 lsl 16) in
    let root = root_node m in
    Sstate.Tbl.replace seen root.state 0;
    let current = ref [ root ] in
    let level = ref 0 in
    let final_tbl = Sstate.Tbl.create 64 in
    let final_order = ref [] in
    let stop = ref false in
    let last_next = ref (Sstate.Tbl.create 1) in
    let track_all = mode <> Find_first in
    while (not !stop) && !current <> [] do
      let g' = !level + 1 in
      let a = acc_at ctx !level in
      let current_len = List.length !current in
      let min_pc =
        List.fold_left
          (fun acc n -> min acc (Sstate.distinct_perms env.Expand.cfg n.state))
          max_int !current
      in
      let threshold = Expand.cut_threshold opts ~min_pc in
      let next = Sstate.Tbl.create (1 lsl 12) in
      last_next := next;
      let drop () =
        ctx.deduped <- ctx.deduped + 1;
        a.a_deduped <- a.a_deduped + 1
      in
      (* Merge one vetted successor of [node] into the level structures. *)
      let register node = function
        | Expand.Known -> drop ()
        | Expand.Final { instr; state = state' } ->
            ctx.solutions_found <- ctx.solutions_found + 1;
            (match Sstate.Tbl.find_opt final_tbl state' with
            | Some fn ->
                fn.paths <- fn.paths + node.paths;
                if track_all then add_parent fn node instr
            | None ->
                let fn = child ~g:g' ~paths:node.paths state' node instr in
                Sstate.Tbl.replace final_tbl state' fn;
                final_order := fn :: !final_order);
            if mode = Find_first then stop := true
        | Expand.Open { instr; state = state'; _ } -> (
            let seen_before =
              if opts.dedup then Sstate.Tbl.find_opt seen state' else None
            in
            match seen_before with
            | Some l when l < g' -> drop ()
            | _ -> (
                match Sstate.Tbl.find_opt next state' with
                | Some n' ->
                    drop ();
                    n'.paths <- n'.paths + node.paths;
                    if track_all then add_parent n' node instr
                | None ->
                    let n' = child ~g:g' ~paths:node.paths state' node instr in
                    if opts.dedup then Sstate.Tbl.replace seen state' g';
                    Sstate.Tbl.replace next state' n'))
      in
      (* Only states of earlier levels: [seen] gains none of those during
         the level, so the answer cannot change before [register] runs. *)
      let known =
        if opts.dedup then
          Some
            (fun v ->
              match Sstate.Tbl.find_opt seen v with
              | Some l -> l < g'
              | None -> false)
        else None
      in
      (* Live states: the cross-level dedup table dominates memory when
         dedup is on; otherwise the frontier itself is all we hold. *)
      let live () =
        if opts.dedup then Sstate.Tbl.length seen
        else current_len + Sstate.Tbl.length next
      in
      let consume node succs =
        check_deadline ctx;
        Expand.check_budget opts ~live:(live ());
        ctx.expanded <- ctx.expanded + 1;
        a.a_expanded <- a.a_expanded + 1;
        sample_trace ctx ~open_states:(Sstate.Tbl.length next);
        List.iter (fun s -> if not !stop then register node s) succs
      in
      (match pool with
      | None ->
          List.iter
            (fun n ->
              if not !stop then
                consume n (expand a.d ~known ~g' ~threshold n.state))
            !current
      | Some pool ->
          let nodes = Array.of_list !current in
          let job = pool_run pool expand nodes ~g' ~threshold ~known in
          (* The whole level drained before this merge, so the counters
             are independent of the worker count and steal schedule; only
             [consume] (budget/deadline chokepoints, dedup, registration)
             runs here, on main, in node index order. *)
          Array.iter (fun d -> Expand.merge_delta ~into:a.d d) job.j_deltas;
          Array.iteri
            (fun i ss -> if not !stop then consume nodes.(i) ss)
            job.j_results);
      a.a_open <- Sstate.Tbl.length next;
      ctx.max_open <- max ctx.max_open (Sstate.Tbl.length next);
      (* Solutions found at level [g'] are optimal: stop unless we are
         proving non-existence deeper (not needed — existence is decided). *)
      if !final_order <> [] then stop := true
      else begin
        (match mode with
        | Prove_none l when g' >= l -> stop := true
        | _ -> ());
        if env.Expand.bound < max_int && g' >= env.Expand.bound then
          stop := true;
        current := Sstate.Tbl.fold (fun _ n acc -> n :: acc) next [];
        level := g'
      end
    done;
    weigh ctx seen (Obj.repr (!current, !last_next, !final_order));
    let finals = List.rev !final_order in
    let solution_count = List.fold_left (fun a n -> a + n.paths) 0 finals in
    let programs =
      match (mode, finals) with
      | Find_first, n :: _ -> [ program_of_node n ]
      | _ -> programs_of_final opts.max_solutions finals
    in
    let optimal_length =
      match finals with [] -> None | n :: _ -> Some n.g
    in
    finish ctx ~programs ~optimal_length ~solution_count
      ~distinct_final_states:(List.length finals)
      ~open_states:0
  end

(* ------------------------------------------------------------------ *)
(* A* engine: best-first on f = g + h, for fast find-first synthesis. *)

let run_astar ctx m =
  let opts = ctx.env.Expand.opts in
  if m.root_final then trivial_final ctx
  else begin
    let expand = m.expander () in
    let seen = Sstate.Tbl.create (1 lsl 16) in
    let heap = Heap.create () in
    (* Minimum perm-count seen per level, for the cut threshold. *)
    let level_min_pc = ref [| max_int |] in
    let note_level_pc g pc =
      let a = !level_min_pc in
      if g >= Array.length a then begin
        let b = Array.make (max (g + 1) (2 * Array.length a)) max_int in
        Array.blit a 0 b 0 (Array.length a);
        level_min_pc := b
      end;
      let a = !level_min_pc in
      if pc < a.(g) then a.(g) <- pc
    in
    let root = root_node m in
    note_level_pc 0 (Sstate.distinct_perms ctx.env.Expand.cfg m.root);
    Sstate.Tbl.replace seen m.root 0;
    Heap.push heap (heuristic_value ctx root) root;
    let found = ref None in
    let continue = ref true in
    while !continue do
      match Heap.pop heap with
      | None -> continue := false
      | Some (_, node) ->
          check_deadline ctx;
          Expand.check_budget opts
            ~live:
              (if opts.dedup then Sstate.Tbl.length seen else Heap.size heap);
          let a = acc_at ctx node.g in
          ctx.expanded <- ctx.expanded + 1;
          a.a_expanded <- a.a_expanded + 1;
          sample_trace ctx ~open_states:(Heap.size heap);
          ctx.max_open <- max ctx.max_open (Heap.size heap);
          let g' = node.g + 1 in
          let threshold =
            let lm = !level_min_pc in
            if node.g < Array.length lm && lm.(node.g) < max_int then
              Expand.cut_threshold opts ~min_pc:lm.(node.g)
            else max_int
          in
          let drop () =
            ctx.deduped <- ctx.deduped + 1;
            a.a_deduped <- a.a_deduped + 1
          in
          (* [seen] only ever lowers a depth, so a state it holds at depth
             <= g' now is still dropped when its turn comes below. *)
          let known =
            if opts.dedup then
              Some
                (fun v ->
                  match Sstate.Tbl.find_opt seen v with
                  | Some l -> l <= g'
                  | None -> false)
            else None
          in
          let succs = expand a.d ~known ~g' ~threshold node.state in
          List.iter
            (function
              | _ when not !continue -> ()
              | Expand.Known -> drop ()
              | Expand.Final { instr; state } ->
                  ctx.solutions_found <- 1;
                  found := Some (child ~g:g' ~paths:node.paths state node instr);
                  continue := false
              | Expand.Open { instr; state; pc } -> (
                  match
                    if opts.dedup then Sstate.Tbl.find_opt seen state else None
                  with
                  | Some l when l <= g' -> drop ()
                  | _ ->
                      let n' = child ~g:g' ~paths:node.paths state node instr in
                      note_level_pc g' pc;
                      if opts.dedup then Sstate.Tbl.replace seen state g';
                      let ao = acc_at ctx g' in
                      ao.a_open <- ao.a_open + 1;
                      Heap.push heap (g' + heuristic_value ctx n') n'))
            succs
    done;
    weigh ctx seen (Obj.repr (heap, !found));
    match !found with
    | Some n ->
        finish ctx
          ~programs:[ program_of_node n ]
          ~optimal_length:(Some n.g) ~solution_count:1 ~distinct_final_states:1
          ~open_states:(Heap.size heap)
    | None ->
        finish ctx ~programs:[] ~optimal_length:None ~solution_count:0
          ~distinct_final_states:0 ~open_states:0
  end

(* ------------------------------------------------------------------ *)
(* Machines and the one dispatch.                                      *)

(* The cmov machine: the arena core over a private arena per domain. *)
let cmov_machine env =
  let cfg = env.Expand.cfg in
  let root = Sstate.initial cfg in
  {
    root;
    instrs = env.Expand.instrs;
    root_final = Sstate.is_final cfg root;
    expander =
      (fun () ->
        let arena = Sstate.Arena.create cfg in
        fun delta ~known ~g' ~threshold s ->
          Expand.expand ?known env arena delta ~g' ~threshold s);
  }

(* Any other machine: [Expand.expand_codes] needs no scratch of its own. *)
let code_machine env isa =
  let root, root_final = Expand.code_root isa env.Expand.cfg in
  {
    root;
    instrs = isa.Expand.instrs;
    root_final;
    expander =
      (fun () delta ~known ~g' ~threshold s ->
        Expand.expand_codes ?known env isa delta ~g' ~threshold s);
  }

let dispatch ?domains ctx mode m =
  match (domains, mode, ctx.env.Expand.opts.engine) with
  | Some domains, _, _ ->
      (* Main always participates in the drain, so [domains] total domains
         means [domains - 1] pooled workers. [domains = 1] still runs the
         pooled full-level drain (with zero workers): the statistics are
         identical whatever the domain count. *)
      let pool = make_pool ~workers:(max 0 (domains - 1)) m in
      Fun.protect
        ~finally:(fun () -> shutdown_pool pool)
        (fun () -> run_level ctx ~pool:(Some pool) m mode)
  | None, Find_first, Astar -> run_astar ctx m
  | None, _, _ ->
      (* Enumeration and non-existence proofs need exact level order. *)
      run_level ctx ~pool:None m mode

let run_mode ?(opts = default) ?deadline ?domains ~mode cfg =
  let ctx = make_ctx ~mode ?deadline cfg opts in
  dispatch ?domains ctx mode (cmov_machine ctx.env)

let run ?(opts = default) ?deadline cfg = run_mode ~opts ?deadline ~mode:Find_first cfg

let run_weighed ?(opts = default) ~mode cfg =
  let ctx = make_ctx ~mode ~weigh:true cfg opts in
  let r = dispatch ctx mode (cmov_machine ctx.env) in
  let none =
    { states = 0; code_bytes = 0; record_bytes = 0; node_bytes = 0; cell_bytes = 0 }
  in
  (r, Option.value ctx.footprint ~default:none)

let run_isa ?(opts = default) ?deadline ?domains ~mode cfg isa =
  (* The distance table has no counterpart off the cmov machine. *)
  let opts =
    {
      opts with
      heuristic = (if opts.heuristic = Dist_bound then No_heuristic else opts.heuristic);
      action_filter = All_actions;
      dist_viability = false;
    }
  in
  let ctx = make_ctx ~mode ?deadline cfg opts in
  dispatch ?domains ctx mode (code_machine ctx.env isa)

let synthesize ?(opts = best) n =
  let cfg = Isa.Config.default n in
  let r = run ~opts cfg in
  match r.programs with
  | p :: _ when Machine.Exec.sorts_all_permutations cfg p -> Some p
  | _ -> None
