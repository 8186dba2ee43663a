(* Min/max (vector) kernels, Section 5.4 of the paper: synthesize kernels
   over movdqa/pmin/pmax, compare them against the sorting-network
   implementation, and cross-check the paper's 8-instruction example.

     dune exec examples/minmax_kernels.exe *)

let () =
  (* The paper's printed 8-instruction kernel really sorts. *)
  let cfg3 = Isa.Config.default 3 in
  Printf.printf "paper's n=3 min/max kernel (8 instructions):\n%s\n\n"
    (Minmax.Vexec.to_x86 cfg3 Minmax.paper_sort3);
  assert (Minmax.Vexec.sorts_all_permutations cfg3 Minmax.paper_sort3);
  (* Synthesize our own for n = 2..4 and compare sizes with networks. *)
  List.iter
    (fun n ->
      let r = Minmax.synthesize n in
      match r.Search.programs with
      | [] -> Printf.printf "n=%d: nothing found\n" n
      | p :: _ ->
          let cfg = Isa.Config.default n in
          assert (Minmax.Vexec.sorts_all_permutations cfg p);
          let net = Minmax.network_kernel n in
          let movs, mins, maxs = Minmax.Vexec.instruction_counts p in
          Printf.printf
            "n=%d: synthesized %d instructions (%d movdqa, %d pmin, %d pmax) \
             vs %d for the network, in %.3f s over %d states\n"
            n (Array.length p) movs mins maxs (Array.length net)
            r.Search.stats.Search.elapsed r.Search.stats.Search.expanded)
    [ 2; 3; 4 ];
  (* Enumerate all optimal n=3 min/max kernels (paper artifact:
     sol3_minmax_allsolutions). *)
  let r =
    Minmax.synthesize
      ~mode:Search.All_optimal
      ~opts:{ Minmax.default with Search.cut = Search.Mult 2.0 }
      3
  in
  Printf.printf "\nall optimal n=3 min/max kernels under cut 2: %d\n"
    r.Search.solution_count;
  (* Run one synthesized kernel against the cmov kernel on real data. *)
  match (Minmax.synthesize 3).Search.programs with
  | p :: _ ->
      let sorter = Minmax.to_sorter ~name:"minmax3" 3 p in
      let rows =
        Perf.Measure.standalone ~cases:500 ~iters:12
          [
            sorter;
            Perf.Compile.kernel ~name:"cmov3(paper)" cfg3 Perf.Kernels.paper_sort3;
            Minmax.to_sorter ~name:"network3" 3 (Minmax.network_kernel 3);
          ]
      in
      List.iter
        (fun r ->
          Printf.printf "%-16s %8.0f ns  rank %d\n" r.Perf.Measure.name
            r.Perf.Measure.time_ns r.Perf.Measure.rank)
        rows
  | [] -> ()
