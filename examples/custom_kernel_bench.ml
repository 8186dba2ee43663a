(* Bring your own kernel: parse a program from text, verify it, analyze it
   with the cost model, and race it against the synthesized and handwritten
   contenders — the workflow a downstream user follows to evaluate a kernel
   candidate for their own runtime.

     dune exec examples/custom_kernel_bench.exe *)

(* The classical sorting-network kernel, written out by hand (what a
   careful engineer would produce without a synthesizer). *)
let my_kernel_text =
  {|
# compare-and-swap r1 r2
mov s1 r1
cmp r1 r2
cmovg r1 r2
cmovg r2 s1
# compare-and-swap r2 r3
mov s1 r2
cmp r2 r3
cmovg r2 r3
cmovg r3 s1
# compare-and-swap r1 r2
mov s1 r1
cmp r1 r2
cmovg r1 r2
cmovg r2 s1
|}

let () =
  let cfg = Isa.Config.default 3 in
  let kernel =
    match Isa.Program.of_string cfg my_kernel_text with
    | Ok p -> p
    | Error e -> failwith e
  in
  (* 1. Verify: all 3! permutations, plus a random fuzz over duplicates. *)
  assert (Machine.Exec.sorts_all_permutations cfg kernel);
  assert (
    Machine.Exec.sorts_random_suite cfg kernel ~seed:7 ~cases:1000 ~lo:(-5) ~hi:5);
  Printf.printf "hand-written kernel verified (%d instructions)\n\n"
    (Array.length kernel);
  (* 2. Static analysis: instruction mix, dependence structure, predicted
        cost (the uiCA-style model of Section 5.3/5.4). *)
  let show name p =
    let a = Perf.Cost.analyze cfg p in
    Printf.printf
      "%-12s %2d instr, %2d uops, critical path %2d cycles, throughput \
       %.2f cyc/iter, score %d\n"
      name a.Perf.Cost.instructions a.Perf.Cost.total_uops
      a.Perf.Cost.critical_path a.Perf.Cost.throughput (Isa.Program.score p)
  in
  show "mine" kernel;
  let synthesized =
    match Search.synthesize 3 with Some p -> p | None -> assert false
  in
  show "synthesized" synthesized;
  show "paper" Perf.Kernels.paper_sort3;
  (* 3. Race them, standalone and inside quicksort. *)
  let contenders =
    [
      Perf.Compile.kernel ~name:"mine" cfg kernel;
      Perf.Compile.kernel ~name:"synthesized" cfg synthesized;
      Perf.Baselines.swap 3;
      Perf.Baselines.std 3;
    ]
  in
  Printf.printf "\nstandalone (1000 random triples):\n";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %8.0f ns  rank %d\n" r.Perf.Measure.name
        r.Perf.Measure.time_ns r.Perf.Measure.rank)
    (Perf.Measure.standalone ~cases:1000 ~iters:16 contenders);
  Printf.printf "\nas quicksort base case (random arrays up to 16k):\n";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %8.0f ns  rank %d\n" r.Perf.Measure.name
        r.Perf.Measure.time_ns r.Perf.Measure.rank)
    (Perf.Measure.embedded ~cases:20 ~max_len:16000 `Quicksort contenders)
