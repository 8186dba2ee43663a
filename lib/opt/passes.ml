type pass = {
  name : string;
  apply : Isa.Config.t -> Isa.Program.t -> Isa.Program.t;
}

(* ------------------------------------------------------------------ *)
(* Copy propagation / mov forwarding.                                  *)

let copy_propagate_f cfg p =
  let nregs = Isa.Config.nregs cfg in
  (* copy_of.(r) = the register whose value r currently duplicates, or -1.
     Facts always point at the chain root, so no chasing is needed. *)
  let copy_of = Array.make nregs (-1) in
  let root r = if copy_of.(r) >= 0 then copy_of.(r) else r in
  let kill r =
    copy_of.(r) <- -1;
    Array.iteri (fun x c -> if c = r then copy_of.(x) <- -1) copy_of
  in
  Array.map
    (fun i ->
      let open Isa.Instr in
      let i' =
        match i.op with
        | Mov ->
            let s = root i.src in
            if s <> i.dst then { i with src = s } else i
        | Cmp ->
            (* The canonical dst < src order constrains which forwardings
               are expressible; try both, then each side alone. Swapping
               operands to restore the order would exchange lt and gt and
               is never attempted. *)
            let a = root i.dst and b = root i.src in
            if a < b then { i with dst = a; src = b }
            else if a < i.src then { i with dst = a }
            else if i.dst < b then { i with src = b }
            else i
        | Cmovl | Cmovg ->
            let s = root i.src in
            if s <> i.dst then { i with src = s } else i
      in
      (match i.op with
      | Mov ->
          let s = root i.src in
          (* mov d s where s already duplicates d leaves d unchanged:
             every existing fact survives. *)
          if s <> i.dst then begin
            kill i.dst;
            copy_of.(i.dst) <- s
          end
      | Cmp -> ()
      | Cmovl | Cmovg ->
          (* The write is conditional: afterwards d holds either its old
             value or src's — neither fact is reliable. *)
          kill i.dst);
      i')
    p

let copy_propagate = { name = "copy-propagate"; apply = copy_propagate_f }

(* ------------------------------------------------------------------ *)
(* Redundant-cmp elimination.                                          *)

(* The flags currently in effect, as the operand pair of the defining cmp —
   valid only while neither operand has been (possibly) rewritten. *)
let redundant_cmp_f _cfg p =
  let flags_from = ref None in
  let keep =
    Array.map
      (fun i ->
        let open Isa.Instr in
        match i.op with
        | Cmp ->
            if !flags_from = Some (i.dst, i.src) then false
            else begin
              flags_from := Some (i.dst, i.src);
              true
            end
        | Mov | Cmovl | Cmovg ->
            (match !flags_from with
            | Some (a, b) when i.dst = a || i.dst = b -> flags_from := None
            | _ -> ());
            true)
      p
  in
  let out = ref [] in
  Array.iteri (fun k i -> if keep.(k) then out := i :: !out) p;
  Array.of_list (List.rev !out)

let redundant_cmp = { name = "redundant-cmp"; apply = redundant_cmp_f }

(* ------------------------------------------------------------------ *)
(* Cmov coalescing.                                                    *)

(* Shape (b): an adjacent cmovl/cmovg pair on the same (dst, src) whose
   in-effect flags compare exactly those two registers. The pair copies
   src to dst when the values differ in either direction, and on equality
   the copy is the identity — so it is mov dst src. *)
let coalesce_pair p =
  let len = Array.length p in
  let out = ref [] in
  let flags_from = ref None in
  let k = ref 0 in
  while !k < len do
    let i = p.(!k) in
    let open Isa.Instr in
    let collapsed =
      !k + 1 < len
      &&
      let j = p.(!k + 1) in
      (match (i.op, j.op) with
      | Cmovl, Cmovg | Cmovg, Cmovl -> i.dst = j.dst && i.src = j.src
      | _ -> false)
      &&
      match !flags_from with
      | Some (a, b) -> (a, b) = (i.dst, i.src) || (a, b) = (i.src, i.dst)
      | None -> false
    in
    if collapsed then begin
      out := mov i.dst i.src :: !out;
      k := !k + 2
    end
    else begin
      (match i.op with
      | Cmp -> flags_from := Some (i.dst, i.src)
      | Mov | Cmovl | Cmovg ->
          (match !flags_from with
          | Some (a, b) when i.dst = a || i.dst = b -> flags_from := None
          | _ -> ()));
      out := i :: !out;
      incr k
    end
  done;
  Array.of_list (List.rev !out)

(* Shape (a): cmovX d _ ... cmovX d _ under the same flags with no
   intervening read or write of d — whenever the first fires, the second
   fires too and overwrites it before anyone looks. *)
let drop_dominated cfg p =
  let len = Array.length p in
  let keep = Array.make len true in
  let flags = Isa.Config.nregs cfg in
  for k = 0 to len - 1 do
    let i = p.(k) in
    if Isa.Instr.is_conditional i then begin
      let d = i.Isa.Instr.dst in
      let j = ref (k + 1) in
      let stop = ref false in
      while (not !stop) && !j < len do
        let u = p.(!j) in
        if u.Isa.Instr.op = i.Isa.Instr.op && u.Isa.Instr.dst = d then begin
          keep.(k) <- false;
          stop := true
        end
        else if
          u.Isa.Instr.op = Isa.Instr.Cmp
          || List.mem d (Isa.Instr.uses ~flags u)
          || Isa.Instr.writes u = Some d
        then stop := true
        else incr j
      done
    end
  done;
  let out = ref [] in
  Array.iteri (fun k i -> if keep.(k) then out := i :: !out) p;
  Array.of_list (List.rev !out)

let coalesce_cmov =
  { name = "coalesce-cmov"; apply = (fun cfg p -> drop_dominated cfg (coalesce_pair p)) }

(* ------------------------------------------------------------------ *)
(* Canonical scratch naming.                                           *)

let canonicalize_f cfg p =
  let n = cfg.Isa.Config.n in
  let nregs = Isa.Config.nregs cfg in
  let sigma = Array.init nregs (fun r -> if r < n then r else -1) in
  let next = ref n in
  Array.iter
    (fun i ->
      match Isa.Instr.writes i with
      | Some d when d >= n && sigma.(d) < 0 ->
          sigma.(d) <- !next;
          incr next
      | _ -> ())
    p;
  for r = n to nregs - 1 do
    if sigma.(r) < 0 then begin
      sigma.(r) <- !next;
      incr next
    end
  done;
  Isa.Program.rename_registers p sigma

let canonicalize = { name = "canonicalize"; apply = canonicalize_f }

(* ------------------------------------------------------------------ *)
(* DCE, unproven: the pipeline's gate proves it.                       *)

let dce = { name = "dce"; apply = Analysis.Dce.fixpoint }

(* ------------------------------------------------------------------ *)
(* Dependence-DAG list scheduler.                                      *)

let schedule_f cfg p =
  let len = Array.length p in
  if len <= 1 then p
  else begin
    let nregs = Isa.Config.nregs cfg in
    let flags = nregs in
    let reads k = Isa.Instr.uses ~flags p.(k) in
    let writes k = Isa.Instr.defs ~flags p.(k) in
    (* Full dependence graph over registers and flags. Unlike the cost
       model's RAW-only edges, reordering must also respect WAR and WAW:
       there is no renaming here, a cmov's conditional write is a write,
       and the flags are just another resource. *)
    let last_write = Array.make (nregs + 1) (-1) in
    let readers = Array.make (nregs + 1) [] in
    let preds = Array.make len [] in
    let add a b = if a >= 0 && a <> b then preds.(b) <- a :: preds.(b) in
    for k = 0 to len - 1 do
      List.iter
        (fun r ->
          add last_write.(r) k;
          readers.(r) <- k :: readers.(r))
        (reads k);
      List.iter
        (fun r ->
          add last_write.(r) k;
          List.iter (fun j -> add j k) readers.(r);
          last_write.(r) <- k;
          readers.(r) <- [])
        (writes k)
    done;
    Array.iteri (fun b ps -> preds.(b) <- List.sort_uniq compare ps) preds;
    let succs = Array.make len [] in
    Array.iteri
      (fun b ps -> List.iter (fun a -> succs.(a) <- b :: succs.(a)) ps)
      preds;
    let lat k = (Perf.Cost.resources p.(k).Isa.Instr.op).Perf.Cost.latency in
    (* Latency-weighted height: prefer instructions that head the longest
       remaining chain. *)
    let prio = Array.make len 0 in
    for k = len - 1 downto 0 do
      prio.(k) <- lat k + List.fold_left (fun acc s -> max acc prio.(s)) 0 succs.(k)
    done;
    (* Cycle-driven greedy selection under the same in-order issue model
       as Perf.Cost.simulated_cycles, so the objective being minimized is
       the metric being reported. *)
    let remaining = Array.map List.length preds in
    let scheduled = Array.make len false in
    let ready = Array.make (nregs + 1) 0 in
    let cycle = ref 0 and issued = ref 0 and cmovs = ref 0 in
    let order = Array.make len 0 in
    let operand_ready k =
      List.fold_left (fun acc r -> max acc ready.(r)) 0 (reads k)
    in
    for pos = 0 to len - 1 do
      let pick () =
        let best = ref (-1) in
        for k = len - 1 downto 0 do
          if
            (not scheduled.(k))
            && remaining.(k) = 0
            && operand_ready k <= !cycle
            && !issued < Perf.Cost.issue_width
            && ((not (Isa.Instr.is_conditional p.(k))) || !cmovs < 2)
          then if !best < 0 || prio.(k) > prio.(!best) then best := k
        done;
        !best
      in
      let rec choose () =
        let k = pick () in
        if k >= 0 then k
        else begin
          (* Nothing can issue this cycle: jump to the earliest cycle at
             which some ready instruction's operands arrive. *)
          let next = ref max_int in
          for k = 0 to len - 1 do
            if (not scheduled.(k)) && remaining.(k) = 0 then
              next := min !next (max (operand_ready k) (!cycle + 1))
          done;
          cycle := !next;
          issued := 0;
          cmovs := 0;
          choose ()
        end
      in
      let k = choose () in
      scheduled.(k) <- true;
      order.(pos) <- k;
      incr issued;
      if Isa.Instr.is_conditional p.(k) then incr cmovs;
      let done_at = !cycle + lat k in
      List.iter (fun r -> ready.(r) <- done_at) (writes k);
      List.iter (fun s -> remaining.(s) <- remaining.(s) - 1) succs.(k)
    done;
    let q = Array.map (fun k -> p.(k)) order in
    (* Keep the reorder only when it pays: an equal-cycles shuffle would
       churn the program text for nothing. *)
    if
      (not (Isa.Program.equal q p))
      && Perf.Cost.simulated_cycles cfg q < Perf.Cost.simulated_cycles cfg p
    then q
    else p
  end

let schedule = { name = "schedule"; apply = schedule_f }

let all = [ copy_propagate; redundant_cmp; coalesce_cmov; dce; canonicalize; schedule ]
let find name = List.find_opt (fun p -> p.name = name) all
