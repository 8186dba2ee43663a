type result = Sat of bool array | Unsat

(* Literals are encoded as 2v (positive) / 2v+1 (negative). *)
let lit_of_int l = if l > 0 then 2 * l else (2 * -l) + 1
let var_of_lit l = l lsr 1
let neg_lit l = l lxor 1
let lit_sign l = l land 1 = 0 (* true when positive *)

type clause = { lits : int array; learnt : bool }

type t = {
  mutable nvars : int;
  mutable clauses : clause array; (* growable pool *)
  mutable nclauses : int;
  mutable watches : int list array; (* watches.(lit) = clause ids *)
  mutable assigns : int array; (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* clause id or -1 *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int list; (* stack of trail positions per level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool; (* false once trivially unsat *)
  mutable conflicts : int;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 { lits = [||]; learnt = false };
    nclauses = 0;
    watches = Array.make 16 [];
    assigns = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    trail = Array.make 8 0;
    trail_len = 0;
    trail_lim = [];
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
  }

let grow_arrays s n =
  let cap = Array.length s.assigns in
  if n >= cap then begin
    let ncap = max (n + 1) (2 * cap) in
    let copy a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assigns <- copy s.assigns (-1);
    s.level <- copy s.level 0;
    s.reason <- copy s.reason (-1);
    s.activity <- copy s.activity 0.0;
    s.polarity <- copy s.polarity false;
    let nt = Array.make ncap 0 in
    Array.blit s.trail 0 nt 0 s.trail_len;
    s.trail <- nt
  end;
  let wcap = Array.length s.watches in
  if 2 * (n + 1) >= wcap then begin
    let nw = Array.make (max (2 * (n + 1) + 2) (2 * wcap)) [] in
    Array.blit s.watches 0 nw 0 wcap;
    s.watches <- nw
  end

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  grow_arrays s v;
  v

let ensure_vars s n = while s.nvars < n do ignore (new_var s) done
let stats_conflicts s = s.conflicts

let value_lit s l =
  let a = s.assigns.(var_of_lit l) in
  if a < 0 then -1 else if lit_sign l then a else 1 - a

let push_clause s c =
  if s.nclauses = Array.length s.clauses then begin
    let nc = Array.make (2 * s.nclauses) c in
    Array.blit s.clauses 0 nc 0 s.nclauses;
    s.clauses <- nc
  end;
  s.clauses.(s.nclauses) <- c;
  s.nclauses <- s.nclauses + 1;
  s.nclauses - 1

let enqueue s l reason =
  let v = var_of_lit l in
  s.assigns.(v) <- (if lit_sign l then 1 else 0);
  s.level.(v) <- List.length s.trail_lim;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let add_clause s lits =
  if s.ok then begin
    List.iter
      (fun l ->
        if l = 0 then invalid_arg "Sat.add_clause: literal 0";
        if abs l > s.nvars then invalid_arg "Sat.add_clause: unknown variable")
      lits;
    (* Deduplicate; drop tautologies. *)
    let lits = List.sort_uniq compare lits in
    let taut = List.exists (fun l -> List.mem (-l) lits) lits in
    if not taut then begin
      let lits = List.map lit_of_int lits in
      (* At level 0 we can drop false literals and satisfied clauses. *)
      let lits =
        if s.trail_lim = [] then
          List.filter (fun l -> value_lit s l <> 0) lits
        else lits
      in
      let satisfied =
        s.trail_lim = [] && List.exists (fun l -> value_lit s l = 1) lits
      in
      if not satisfied then
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
            if s.trail_lim <> [] then
              invalid_arg "Sat.add_clause: unit clause above level 0"
            else if value_lit s l = 0 then s.ok <- false
            else if value_lit s l = -1 then enqueue s l (-1)
        | l0 :: l1 :: _ ->
            let arr = Array.of_list lits in
            let id = push_clause s { lits = arr; learnt = false } in
            s.watches.(neg_lit l0) <- id :: s.watches.(neg_lit l0);
            s.watches.(neg_lit l1) <- id :: s.watches.(neg_lit l1)
    end
  end

(* Propagate until fixpoint; returns conflicting clause id or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* Clauses watching ~l must find a new watch or propagate. *)
    let watching = s.watches.(l) in
    s.watches.(l) <- [];
    let rec go = function
      | [] -> ()
      | id :: rest ->
          if !conflict >= 0 then
            (* Conflict found: keep the remaining watchers. *)
            s.watches.(l) <- (id :: rest) @ s.watches.(l)
          else begin
            let c = s.clauses.(id) in
            let lits = c.lits in
            (* Ensure the false literal is at position 1. *)
            let falsel = neg_lit l in
            if lits.(0) = falsel then begin
              lits.(0) <- lits.(1);
              lits.(1) <- falsel
            end;
            if value_lit s lits.(0) = 1 then begin
              (* Satisfied: keep watching. *)
              s.watches.(l) <- id :: s.watches.(l);
              go rest
            end
            else begin
              (* Look for a new watch. *)
              let found = ref false in
              let k = ref 2 in
              while (not !found) && !k < Array.length lits do
                if value_lit s lits.(!k) <> 0 then begin
                  let w = lits.(!k) in
                  lits.(!k) <- lits.(1);
                  lits.(1) <- w;
                  s.watches.(neg_lit w) <- id :: s.watches.(neg_lit w);
                  found := true
                end;
                incr k
              done;
              if !found then go rest
              else begin
                (* Unit or conflicting. *)
                s.watches.(l) <- id :: s.watches.(l);
                if value_lit s lits.(0) = 0 then begin
                  conflict := id;
                  s.qhead <- s.trail_len;
                  go rest
                end
                else begin
                  enqueue s lits.(0) id;
                  go rest
                end
              end
            end
          end
    in
    go watching
  done;
  !conflict

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay_activity s = s.var_inc <- s.var_inc /. 0.95

let decision_level s = List.length s.trail_lim

let backtrack s lvl =
  while List.length s.trail_lim > lvl do
    let pos = List.hd s.trail_lim in
    s.trail_lim <- List.tl s.trail_lim;
    for i = s.trail_len - 1 downto pos do
      let v = var_of_lit s.trail.(i) in
      s.polarity.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1
    done;
    s.trail_len <- pos
  done;
  s.qhead <- min s.qhead s.trail_len

(* First-UIP conflict analysis. Returns (learnt clause lits, backtrack lvl). *)
let analyze s confl =
  let seen = Array.make (s.nvars + 1) false in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_len - 1) in
  let cur_level = decision_level s in
  let continue = ref true in
  while !continue do
    let reason_lits =
      let c = s.clauses.(!confl) in
      if !p = -1 then Array.to_list c.lits
      else List.filter (fun l -> l <> !p) (Array.to_list c.lits)
    in
    List.iter
      (fun q ->
        let v = var_of_lit q in
        if (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          bump_var s v;
          if s.level.(v) >= cur_level then incr counter
          else learnt := q :: !learnt
        end)
      reason_lits;
    (* Walk the trail backwards to the next marked literal. *)
    while not seen.(var_of_lit s.trail.(!idx)) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    let v = var_of_lit l in
    seen.(v) <- false;
    decr counter;
    if !counter = 0 then begin
      learnt := neg_lit l :: !learnt;
      continue := false
    end
    else begin
      confl := s.reason.(v);
      p := l;
      decr idx
    end
  done;
  let learnt = !learnt in
  (* Backtrack level: second-highest level in the clause. *)
  let asserting = List.hd learnt in
  let blevel =
    List.fold_left
      (fun acc l ->
        if l = asserting then acc else max acc s.level.(var_of_lit l))
      0 (List.tl learnt)
  in
  (learnt, blevel)

let pick_branch s =
  let best = ref (-1) and best_act = ref neg_infinity in
  for v = 1 to s.nvars do
    if s.assigns.(v) < 0 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  !best

(* Luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 ... *)
let luby x =
  let rec grow sz seq = if sz < x + 1 then grow ((2 * sz) + 1) (seq + 1) else (sz, seq) in
  let rec shrink x sz seq =
    if sz - 1 = x then 1 lsl seq
    else shrink (x mod ((sz - 1) / 2)) ((sz - 1) / 2) (seq - 1)
  in
  let sz, seq = grow 1 0 in
  shrink x sz seq

let solve ?(assumptions = []) ?(conflict_limit = max_int) s =
  if not s.ok then Some Unsat
  else begin
    backtrack s 0;
    match propagate s with
    | c when c >= 0 ->
        s.ok <- false;
        Some Unsat
    | _ ->
        let assumptions = List.map lit_of_int assumptions in
        let restart = ref 0 in
        let result = ref None in
        let budget_exhausted = ref false in
        while !result = None && not !budget_exhausted do
          let limit = 100 * luby !restart in
          incr restart;
          let local_conflicts = ref 0 in
          let restart_now = ref false in
          while !result = None && not !restart_now do
            let confl = propagate s in
            if confl >= 0 then begin
              s.conflicts <- s.conflicts + 1;
              incr local_conflicts;
              if decision_level s = 0 then begin
                s.ok <- false;
                result := Some Unsat
              end
              else begin
                let learnt, blevel = analyze s confl in
                backtrack s blevel;
                (match learnt with
                | [ l ] -> enqueue s l (-1)
                | _ :: _ ->
                    let arr = Array.of_list learnt in
                    (* Watch the asserting literal and a deepest-level other
                       literal, preserving the watch invariant on future
                       backtracks. *)
                    let deepest = ref 1 in
                    for k = 2 to Array.length arr - 1 do
                      if s.level.(var_of_lit arr.(k))
                         > s.level.(var_of_lit arr.(!deepest))
                      then deepest := k
                    done;
                    let w = arr.(!deepest) in
                    arr.(!deepest) <- arr.(1);
                    arr.(1) <- w;
                    let id = push_clause s { lits = arr; learnt = true } in
                    s.watches.(neg_lit arr.(0)) <- id :: s.watches.(neg_lit arr.(0));
                    s.watches.(neg_lit arr.(1)) <- id :: s.watches.(neg_lit arr.(1));
                    enqueue s arr.(0) id
                | [] -> assert false);
                decay_activity s;
                if s.conflicts >= conflict_limit then budget_exhausted := true;
                if !local_conflicts >= limit && decision_level s > 0 then
                  restart_now := true
              end
            end
            else begin
              (* Pick assumptions first, then a free variable. *)
              let dl = decision_level s in
              if dl < List.length assumptions then begin
                let a = List.nth assumptions dl in
                match value_lit s a with
                | 1 ->
                    (* Already satisfied: open a dummy level. *)
                    s.trail_lim <- s.trail_len :: s.trail_lim
                | 0 -> result := Some Unsat
                | _ ->
                    s.trail_lim <- s.trail_len :: s.trail_lim;
                    enqueue s a (-1)
              end
              else begin
                let v = pick_branch s in
                if v < 0 then begin
                  (* All assigned: model found. *)
                  let model = Array.make (s.nvars + 1) false in
                  for i = 1 to s.nvars do
                    model.(i) <- s.assigns.(i) = 1
                  done;
                  result := Some (Sat model)
                end
                else begin
                  s.trail_lim <- s.trail_len :: s.trail_lim;
                  let l = (2 * v) lor if s.polarity.(v) then 0 else 1 in
                  enqueue s l (-1)
                end
              end
            end;
            if !budget_exhausted then restart_now := true
          done;
          if !result = None && not !budget_exhausted then backtrack s 0
        done;
        (match !result with
        | Some (Sat _) | None -> backtrack s 0
        | Some Unsat -> ());
        !result
  end
