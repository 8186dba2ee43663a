type t = { n : int; comparators : (int * int) list }

let make n comparators =
  if n < 0 then invalid_arg "Sortnet.make: negative width";
  List.iter
    (fun (i, j) ->
      if i < 0 || j >= n || i >= j then
        invalid_arg "Sortnet.make: comparator out of range or not i < j")
    comparators;
  { n; comparators }

let size t = List.length t.comparators

let depth t =
  (* Greedy layering: a comparator joins the earliest layer after the last
     use of either of its wires. *)
  let last = Array.make (max t.n 1) 0 in
  List.fold_left
    (fun d (i, j) ->
      let layer = 1 + max last.(i) last.(j) in
      last.(i) <- layer;
      last.(j) <- layer;
      max d layer)
    0 t.comparators

(* Size-optimal networks for n <= 8 (Knuth, TAOCP Vol. 3, Sec. 5.3.4). *)
let optimal_table =
  [|
    [];
    [];
    [ (0, 1) ];
    [ (1, 2); (0, 2); (0, 1) ];
    [ (0, 1); (2, 3); (0, 2); (1, 3); (1, 2) ];
    [ (0, 1); (3, 4); (2, 4); (2, 3); (1, 4); (0, 3); (0, 2); (1, 3); (1, 2) ];
    [
      (1, 2); (4, 5); (0, 2); (3, 5); (0, 1); (3, 4); (2, 5); (0, 3); (1, 4);
      (2, 4); (1, 3); (2, 3);
    ];
    [
      (1, 2); (3, 4); (5, 6); (0, 2); (3, 5); (4, 6); (0, 1); (4, 5); (2, 6);
      (0, 4); (1, 5); (0, 3); (2, 5); (1, 3); (2, 4); (2, 3);
    ];
    [
      (0, 1); (2, 3); (4, 5); (6, 7); (0, 2); (1, 3); (4, 6); (5, 7); (1, 2);
      (5, 6); (0, 4); (3, 7); (1, 5); (2, 6); (1, 4); (3, 6); (2, 4); (3, 5);
      (3, 4);
    ];
  |]

let optimal n =
  if n < 1 || n > 8 then invalid_arg "Sortnet.optimal: n must be in 1..8";
  make n optimal_table.(n)

let bose_nelson n =
  if n < 1 then invalid_arg "Sortnet.bose_nelson: n must be >= 1";
  let acc = ref [] in
  (* P-merge of the sorted runs [i, i+x) and [j, j+y) (Bose & Nelson 1962). *)
  let rec pbracket i x j y =
    if x = 1 && y = 1 then acc := (i, j) :: !acc
    else if x = 1 && y = 2 then begin
      acc := (i, j + 1) :: !acc;
      acc := (i, j) :: !acc
    end
    else if x = 2 && y = 1 then begin
      acc := (i, j) :: !acc;
      acc := (i + 1, j) :: !acc
    end
    else begin
      let a = x / 2 in
      let b = if x land 1 = 1 then y / 2 else (y + 1) / 2 in
      pbracket i a j b;
      pbracket (i + a) (x - a) (j + b) (y - b);
      pbracket (i + a) (x - a) j b
    end
  in
  let rec pstar i x =
    if x > 1 then begin
      let a = x / 2 in
      pstar i a;
      pstar (i + a) (x - a);
      pbracket i a (i + a) (x - a)
    end
  in
  pstar 0 n;
  make n (List.rev !acc)

let batcher n =
  if n < 1 then invalid_arg "Sortnet.batcher: n must be >= 1";
  (* Odd-even mergesort over the next power of two, dropping out-of-range
     comparators. *)
  let acc = ref [] in
  let p = ref 1 in
  while !p < n do
    let k = ref !p in
    while !k >= 1 do
      let j = ref (!k mod !p) in
      while !j + !k <= n - 1 do
        for i = 0 to min (!k - 1) (n - !j - !k - 1) do
          if (i + !j) / (!p * 2) = (i + !j + !k) / (!p * 2) then
            acc := (i + !j, i + !j + !k) :: !acc
        done;
        j := !j + (2 * !k)
      done;
      k := !k / 2
    done;
    p := !p * 2
  done;
  make n (List.rev !acc)

let insertion n =
  if n < 1 then invalid_arg "Sortnet.insertion: n must be >= 1";
  let acc = ref [] in
  for i = 1 to n - 1 do
    for j = i downto 1 do
      acc := (j - 1, j) :: !acc
    done
  done;
  make n (List.rev !acc)

let apply t input =
  if Array.length input <> t.n then invalid_arg "Sortnet.apply: wrong length";
  let a = Array.copy input in
  List.iter
    (fun (i, j) ->
      if a.(i) > a.(j) then begin
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      end)
    t.comparators;
  a

let sorts_all_binary t =
  let ok = ref true in
  for bits = 0 to (1 lsl t.n) - 1 do
    let input = Array.init t.n (fun i -> (bits lsr i) land 1) in
    if not (Perms.is_sorted (apply t input)) then ok := false
  done;
  !ok

let sorts_all_permutations t = Machine.Exec.first_unsorted t.n (apply t) = None

let to_kernel cfg t =
  if cfg.Isa.Config.n <> t.n then invalid_arg "Sortnet.to_kernel: width mismatch";
  if cfg.Isa.Config.m < 1 then invalid_arg "Sortnet.to_kernel: needs a scratch register";
  let s1 = cfg.Isa.Config.n in
  List.concat_map
    (fun (i, j) ->
      [ Isa.Instr.mov s1 i; Isa.Instr.cmp i j; Isa.Instr.cmovg i j; Isa.Instr.cmovg j s1 ])
    t.comparators
  |> Array.of_list
