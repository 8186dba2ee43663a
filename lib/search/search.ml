module Heap = Heap
module Expand = Expand
module Stats = Stats

include Types

type mode = Find_first | All_optimal | Prove_none of int

exception Timeout
exception Resource_exhausted = Expand.Resource_exhausted

let default =
  {
    engine = Astar;
    heuristic = No_heuristic;
    cut = No_cut;
    action_filter = All_actions;
    erasure_check = true;
    dist_viability = true;
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
  known:(Sstate.t -> bool) ->
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

(* A state the distance table calls dead gets [Distance.infinity], so
   it sorts after every finite estimate. *)
let heuristic_value ctx node =
  let env = ctx.env in
  match env.Expand.opts.heuristic with
  | No_heuristic -> 0
  | Perm_count -> Sstate.distinct_perms env.Expand.cfg node.state - 1
  | Assign_count -> Sstate.distinct_assignments node.state - 1
  | Dist_bound -> (
      match env.Expand.dist with
      | Some d -> Distance.state_lower_bound d node.state
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
(* Persistent domain pool, drained chunk by chunk.

   The pool is spawned once per search. The level loop publishes its
   frontier in node-order chunks of [1 + chunk_per_worker * workers]
   nodes; the workers and the main domain claim the chunk's next
   unclaimed node off an atomic cursor and expand it, each with its own
   expander (over a per-domain arena), into that node's result and delta
   slots. Once the chunk has drained, main alone merges it, node by node
   in index order, so every merge and every counter is the sequential
   one whatever the worker count and steal schedule. With no workers a
   chunk is one node, which main expands without touching the cursor:
   nothing is locked, synchronized or allocated per node. *)

(* Nodes per worker in a chunk: enough that the barrier after each chunk
   costs little, few enough that a chunk's successor lists stay a sliver
   of what the search holds. *)
let chunk_per_worker = 256

(* What every expansion of one level reads, published once per level. *)
type 'i level = {
  nodes : 'i node array;  (* the level's frontier, in merge order *)
  g' : int;  (* successor depth *)
  threshold : int;
  known : Sstate.t -> bool;  (* reads [seen], frozen while a chunk drains *)
}

type 'i pool = {
  p_expanders : 'i expander array;  (* [0] main's, [w + 1] worker [w]'s *)
  p_chunk : int;
  p_results : 'i Expand.succ list array;  (* slot [i mod p_chunk] of node [i] *)
  p_deltas : Expand.delta array;  (* likewise *)
  p_level : 'i level Atomic.t;
  p_hi : int Atomic.t;  (* end of the published chunk *)
  p_cursor : int Atomic.t;  (* next unclaimed node index *)
  p_epoch : int Atomic.t;  (* chunks published *)
  p_active : int Atomic.t;  (* workers still draining the chunk *)
  p_stop : bool Atomic.t;
  mutable p_exn : exn option;  (* a worker's, re-raised on main *)
  p_mutex : Mutex.t;
  p_wake : Condition.t;
  mutable p_workers : unit Domain.t array;
}

(* Expand node [i] of level [l] into its slots. *)
let expand_node pool l (expand : _ expander) i =
  let s = i mod pool.p_chunk in
  let d = pool.p_deltas.(s) in
  Expand.clear_delta d;
  pool.p_results.(s) <-
    expand d ~known:l.known ~g':l.g' ~threshold:l.threshold l.nodes.(i).state

(* Claim and expand nodes of the published chunk until none is left. *)
let drain pool expand =
  let l = Atomic.get pool.p_level and hi = Atomic.get pool.p_hi in
  let rec go () =
    let i = Atomic.fetch_and_add pool.p_cursor 1 in
    if i < hi then begin
      expand_node pool l expand i;
      go ()
    end
  in
  go ()

(* Wait until [ready ()], parked between [wake]s. *)
let await pool ready =
  Mutex.lock pool.p_mutex;
  while not (ready ()) do
    Condition.wait pool.p_wake pool.p_mutex
  done;
  Mutex.unlock pool.p_mutex

(* Wake every parked domain, after what it waits on has changed. *)
let wake pool =
  Mutex.lock pool.p_mutex;
  Condition.broadcast pool.p_wake;
  Mutex.unlock pool.p_mutex

let worker_loop pool w =
  let expand = pool.p_expanders.(w + 1) in
  let rec loop epoch =
    await pool (fun () ->
        Atomic.get pool.p_epoch <> epoch || Atomic.get pool.p_stop);
    if not (Atomic.get pool.p_stop) then begin
      let epoch = Atomic.get pool.p_epoch in
      (* The core raises nothing under normal operation (fault sites live
         on the main domain), but a worker that did die would hang the
         chunk barrier: main re-raises its exception instead. *)
      (try drain pool expand
       with e ->
         Mutex.lock pool.p_mutex;
         if pool.p_exn = None then pool.p_exn <- Some e;
         Mutex.unlock pool.p_mutex);
      if Atomic.fetch_and_add pool.p_active (-1) = 1 then wake pool;
      loop epoch
    end
  in
  loop 0

(* [machine.expander ()] builds every domain's expander; it runs here, on
   main. *)
let make_pool ~workers machine =
  let chunk = 1 + (chunk_per_worker * workers) in
  let pool =
    {
      p_expanders = Array.init (workers + 1) (fun _ -> machine.expander ());
      p_chunk = chunk;
      p_results = Array.make chunk [];
      p_deltas = Array.init chunk (fun _ -> Expand.zero_delta ());
      p_level =
        Atomic.make
          { nodes = [||]; g' = 0; threshold = 0; known = (fun _ -> false) };
      p_hi = Atomic.make 0;
      p_cursor = Atomic.make 0;
      p_epoch = Atomic.make 0;
      p_active = Atomic.make 0;
      p_stop = Atomic.make false;
      p_exn = None;
      p_mutex = Mutex.create ();
      p_wake = Condition.create ();
      p_workers = [||];
    }
  in
  pool.p_workers <-
    Array.init workers (fun w -> Domain.spawn (fun () -> worker_loop pool w));
  pool

let shutdown_pool pool =
  Atomic.set pool.p_stop true;
  wake pool;
  Array.iter Domain.join pool.p_workers

(* Expand nodes [lo, hi) of the published level into their slots: main
   alone when there are no workers, else every domain off the cursor. *)
let drain_chunk pool ~lo ~hi =
  let workers = Array.length pool.p_workers in
  if workers = 0 then begin
    let l = Atomic.get pool.p_level in
    for i = lo to hi - 1 do
      expand_node pool l pool.p_expanders.(0) i
    done
  end
  else begin
    Atomic.set pool.p_hi hi;
    Atomic.set pool.p_cursor lo;
    Atomic.set pool.p_active workers;
    Atomic.incr pool.p_epoch;
    wake pool;
    drain pool pool.p_expanders.(0);
    await pool (fun () -> Atomic.get pool.p_active = 0);
    Option.iter raise pool.p_exn
  end

(* ------------------------------------------------------------------ *)
(* Level-synchronous engine (Dijkstra order; exact cuts; all-solutions
   enumeration and non-existence proofs), the one level search for every
   machine and every domain count: it knows states, perm counts and
   vetted successors, never an instruction set. The pool expands each
   chunk of the frontier; the merge into the next level's dedup table,
   each node's delta included, runs on main in node index order, and
   only for nodes consumed before a [Find_first] final stops the level. *)

let run_level ctx pool m mode =
  let env = ctx.env in
  let opts = env.Expand.opts in
  if m.root_final then trivial_final ctx
  else begin
    let seen = Sstate.Tbl.create (1 lsl 16) in
    let root = root_node m in
    Sstate.Tbl.replace seen root.state 0;
    let current = ref [| root |] in
    let level = ref 0 in
    let final_tbl = Sstate.Tbl.create 64 in
    let final_order = ref [] in
    let stop = ref false in
    let last_next = ref (Sstate.Tbl.create 1) in
    let track_all = mode <> Find_first in
    while (not !stop) && Array.length !current > 0 do
      let nodes = !current in
      let g' = !level + 1 in
      let a = acc_at ctx !level in
      let min_pc =
        Array.fold_left
          (fun acc n -> min acc (Sstate.distinct_perms env.Expand.cfg n.state))
          max_int nodes
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
            match Sstate.Tbl.find_opt seen state' with
            | Some l when l < g' -> drop ()
            | _ -> (
                match Sstate.Tbl.find_opt next state' with
                | Some n' ->
                    drop ();
                    n'.paths <- n'.paths + node.paths;
                    if track_all then add_parent n' node instr
                | None ->
                    let n' = child ~g:g' ~paths:node.paths state' node instr in
                    Sstate.Tbl.replace seen state' g';
                    Sstate.Tbl.replace next state' n'))
      in
      (* Only states of earlier levels: [seen] gains none of those during
         the level, so the answer cannot change before [register] runs. *)
      let known v =
        match Sstate.Tbl.find_opt seen v with Some l -> l < g' | None -> false
      in
      let consume node succs =
        check_deadline ctx;
        (* Live states: the cross-level dedup table dominates memory. *)
        Expand.check_budget opts ~live:(Sstate.Tbl.length seen);
        ctx.expanded <- ctx.expanded + 1;
        a.a_expanded <- a.a_expanded + 1;
        sample_trace ctx ~open_states:(Sstate.Tbl.length next);
        List.iter (fun s -> if not !stop then register node s) succs
      in
      Atomic.set pool.p_level { nodes; g'; threshold; known };
      let lo = ref 0 in
      while (not !stop) && !lo < Array.length nodes do
        let hi = min (Array.length nodes) (!lo + pool.p_chunk) in
        drain_chunk pool ~lo:!lo ~hi;
        for i = !lo to hi - 1 do
          if not !stop then begin
            let s = i mod pool.p_chunk in
            Expand.merge_delta ~into:a.d pool.p_deltas.(s);
            consume nodes.(i) pool.p_results.(s)
          end
        done;
        lo := hi
      done;
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
        (* Last folded first: the order the loop has always merged in. *)
        let frontier = Array.make (Sstate.Tbl.length next) root in
        let i = ref (Array.length frontier) in
        Sstate.Tbl.fold (fun _ n () -> decr i; frontier.(!i) <- n) next ();
        current := frontier;
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
          Expand.check_budget opts ~live:(Sstate.Tbl.length seen);
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
          let known v =
            match Sstate.Tbl.find_opt seen v with
            | Some l -> l <= g'
            | None -> false
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
                  match Sstate.Tbl.find_opt seen state with
                  | Some l when l <= g' -> drop ()
                  | _ ->
                      let n' = child ~g:g' ~paths:node.paths state node instr in
                      note_level_pc g' pc;
                      Sstate.Tbl.replace seen state g';
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
          Expand.expand ~known env arena delta ~g' ~threshold s);
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
        Expand.expand_codes ~known env isa delta ~g' ~threshold s);
  }

let dispatch ?domains ctx mode m =
  match (domains, mode, ctx.env.Expand.opts.engine) with
  | None, Find_first, Astar -> run_astar ctx m
  | _ ->
      (* Main always takes part in the drain, so [domains] total domains
         means [domains - 1] workers; without [domains], none. *)
      let workers = match domains with Some d -> max 0 (d - 1) | None -> 0 in
      let pool = make_pool ~workers m in
      Fun.protect
        ~finally:(fun () -> shutdown_pool pool)
        (fun () -> run_level ctx pool m mode)

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
