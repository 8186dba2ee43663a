type core = {
  issue_width : int;
  window : int;
  cmov_ports : int;
  alu_ports : int;
}

let default_core = { issue_width = 4; window = 64; cmov_ports = 2; alu_ports = 4 }

type report = {
  cycles : int;
  ipc : float;
  cycles_per_iteration : float;
  bottleneck : string;
}

(* One dynamic instruction: the static instruction plus its iteration, so
   registers and flags rename per iteration (independent inputs). *)
type dyn = { instr : Isa.Instr.t; iter : int }

let run ?(core = default_core) ?(iterations = 100) cfg p =
  let n_static = Array.length p in
  let total = n_static * iterations in
  if total = 0 then
    { cycles = 0; ipc = 0.; cycles_per_iteration = 0.; bottleneck = "empty" }
  else begin
    let stream =
      Array.init total (fun i ->
          { instr = p.(i mod n_static); iter = i / n_static })
    in
    let flags = Isa.Config.nregs cfg in
    (* Last writer (dynamic index) per renamed register / flag: keyed by
       (iteration, register), the flags at register [flags]. *)
    let writer = Hashtbl.create 64 in
    let complete = Array.make total 0 in
    (* Per-cycle port bookings. *)
    let cmov_used = Hashtbl.create 256 in
    let alu_used = Hashtbl.create 256 in
    let book tbl limit from_cycle =
      let t = ref from_cycle in
      let used c = match Hashtbl.find_opt tbl c with Some u -> u | None -> 0 in
      while used !t >= limit do
        incr t
      done;
      Hashtbl.replace tbl !t (used !t + 1);
      !t
    in
    let cycle = ref 0 in
    let issued_this_cycle = ref 0 in
    let oldest_incomplete = ref 0 in
    let retire_up_to c =
      while
        !oldest_incomplete < total
        && complete.(!oldest_incomplete) <= c
      do
        incr oldest_incomplete
      done
    in
    for i = 0 to total - 1 do
      (* In-order issue: respect width and the reorder window. *)
      retire_up_to !cycle;
      while
        !issued_this_cycle >= core.issue_width
        || i - !oldest_incomplete >= core.window
      do
        incr cycle;
        issued_this_cycle := 0;
        retire_up_to !cycle
      done;
      incr issued_this_cycle;
      let d = stream.(i) in
      let instr = d.instr in
      let ready =
        List.fold_left
          (fun acc r ->
            match Hashtbl.find_opt writer (d.iter, r) with
            | Some w -> max acc complete.(w)
            | None -> acc)
          !cycle
          (Isa.Instr.uses ~flags instr)
      in
      let finish =
        match instr.Isa.Instr.op with
        | Isa.Instr.Mov ->
            (* Eliminated by renaming: completes as soon as its source is
               ready, no execution port. *)
            ready
        | Isa.Instr.Cmp -> book alu_used core.alu_ports ready + 1
        | Isa.Instr.Cmovl | Isa.Instr.Cmovg -> book cmov_used core.cmov_ports ready + 1
      in
      complete.(i) <- finish;
      List.iter
        (fun r -> Hashtbl.replace writer (d.iter, r) i)
        (Isa.Instr.defs ~flags instr)
    done;
    let cycles = Array.fold_left max 0 complete in
    let cycles = max cycles 1 in
    let cmovs =
      Array.fold_left
        (fun a i -> if Isa.Instr.is_conditional i then a + 1 else a)
        0 p
    in
    let issue_limit =
      float_of_int total /. float_of_int core.issue_width
    in
    let cmov_limit =
      float_of_int (cmovs * iterations) /. float_of_int core.cmov_ports
    in
    let fc = float_of_int cycles in
    let bottleneck =
      if cmov_limit >= 0.85 *. fc && cmovs > 0 then "cmov-ports"
      else if issue_limit >= 0.85 *. fc then "issue"
      else "latency"
    in
    {
      cycles;
      ipc = float_of_int total /. fc;
      cycles_per_iteration = fc /. float_of_int iterations;
      bottleneck;
    }
  end

let compare_kernels ?(core = default_core) cfg kernels =
  List.map (fun (name, p) -> (name, run ~core cfg p)) kernels
