include Types

let to_json ?label ?(extra = []) s =
  let open Json in
  let counters =
    Obj
      [
        ("expanded", Int s.expanded);
        ("generated", Int s.generated);
        ("deduped", Int s.deduped);
        ("pruned_cut", Int s.pruned_cut);
        ("pruned_viability", Int s.pruned_viability);
        ("pruned_bound", Int s.pruned_bound);
        ("max_open", Int s.max_open);
        ("elapsed_s", Float s.elapsed);
      ]
  in
  let point p =
    Obj
      [
        ("t", Float p.t);
        ("open_states", Int p.open_states);
        ("solutions_found", Int p.solutions_found);
      ]
  in
  let level l =
    Obj
      [
        ("depth", Int l.depth);
        ("nodes_expanded", Int l.nodes_expanded);
        ("succs_generated", Int l.succs_generated);
        ("succs_kept", Int l.succs_kept);
        ("finals_found", Int l.finals_found);
        ("succs_deduped", Int l.succs_deduped);
        ("cut_pruned", Int l.cut_pruned);
        ("viability_pruned", Int l.viability_pruned);
        ("bound_pruned", Int l.bound_pruned);
        ("open_after", Int l.open_after);
      ]
  in
  Obj
    ((match label with Some l -> [ ("label", Str l) ] | None -> [])
    @ [
        ("counters", counters);
        ("timeline", Arr (List.map point s.timeline));
        ("levels", Arr (List.map level s.levels));
      ]
    @ extra)
