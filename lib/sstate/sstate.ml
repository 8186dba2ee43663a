(* Packed synthesis states.

   A state is a canonical (strictly increasing, deduplicated) sequence of
   assignment codes, stored as a slice [off, off + len) of a shared backing
   array so the search can bump-allocate states into large chunks instead
   of one heap array per state. Derived facts that the engines query on
   every expansion — the FNV hash, the distinct-permutation count, finality
   and viability — are computed once, in the same pass that canonicalizes
   the codes, and cached in the record; [hash] in particular makes every
   dedup-table operation O(1) instead of O(len).

   The cfg-dependent caches ([pc], [tags], [lb]) are filled lazily for
   states built without a config ({!of_codes}) and eagerly on the arena
   path. They are benign under parallel access: the cached values are
   deterministic functions of the immutable codes, and an [int] store is
   atomic in OCaml, so concurrent fills write the same value. *)

type t = {
  buf : int array;  (* backing chunk; this state is buf.[off .. off+len) *)
  off : int;
  len : int;
  hash : int;  (* FNV-1a over the slice, precomputed *)
  mutable pc : int;  (* distinct-permutation count; -1 = not yet computed *)
  mutable tags : int;  (* finality/viability cache, see tag_* below *)
  mutable lb : int;  (* distance lower-bound cache (Distance); -1 = unset *)
}

let tag_final_known = 1
let tag_final = 2
let tag_viable_known = 4
let tag_viable = 8

let fnv_seed = 0x1bf29ce484222325
let fnv_prime = 0x100000001b3

(* ------------------------------------------------------------------ *)
(* Monomorphic int sort of a prefix: insertion sort for short runs,
   median-of-three quicksort above. The polymorphic [Array.sort compare]
   this replaces was the single hottest call of the old representation. *)

let rec sort_range (a : int array) lo hi =
  (* sorts a.[lo .. hi) *)
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    (* Median of first/middle/last as the pivot, parked at [lo]. *)
    if a.(mid) < a.(lo) then swap mid lo;
    if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
    swap lo mid;
    let pivot = a.(lo) in
    let i = ref (lo + 1) and j = ref (hi - 1) in
    while !i <= !j do
      while !i <= !j && a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    swap lo !j;
    sort_range a lo !j;
    sort_range a (!j + 1) hi
  end

let hash_range (a : int array) lo hi =
  let h = ref fnv_seed in
  for i = lo to hi - 1 do
    h := (!h lxor a.(i)) * fnv_prime
  done;
  !h land max_int

(* Sort + dedup [a.[0..n)] in place; returns the deduplicated length. *)
let canonicalize_prefix a n =
  if n = 0 then invalid_arg "Sstate: empty state";
  sort_range a 0 n;
  let w = ref 1 in
  for i = 1 to n - 1 do
    if a.(i) <> a.(i - 1) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  !w

(* Build a state that owns [a] (callers must not retain [a]). *)
let of_owned_prefix a n =
  let len = canonicalize_prefix a n in
  {
    buf = a;
    off = 0;
    len;
    hash = hash_range a 0 len;
    pc = -1;
    tags = 0;
    lb = -1;
  }

let of_codes a = of_owned_prefix (Array.copy a) (Array.length a)

let initial cfg =
  let n = cfg.Isa.Config.n in
  let a = Array.make (max 1 (Perms.factorial n)) 0 in
  let i = ref 0 in
  Perms.iter n (fun p ->
      a.(!i) <- Machine.Assign.of_permutation cfg p;
      incr i);
  of_owned_prefix a !i

let codes t = Array.sub t.buf t.off t.len
let size t = t.len
let distinct_assignments t = t.len

let iter f t =
  for i = t.off to t.off + t.len - 1 do
    f t.buf.(i)
  done

let fold f acc t =
  let r = ref acc in
  for i = t.off to t.off + t.len - 1 do
    r := f !r t.buf.(i)
  done;
  !r

let apply cfg instr t =
  let a = Array.make t.len 0 in
  Machine.Assign.map_sub cfg instr t.buf t.off a 0 t.len;
  of_owned_prefix a t.len

(* Packed key of the value registers: [is_final] iff every code's key is
   the sorted pattern (1, 2, ..., n in order). *)
let sorted_key cfg =
  let n = cfg.Isa.Config.n in
  let k = ref 0 in
  for i = 0 to n - 1 do
    k := !k lor ((i + 1) lsl (3 * i))
  done;
  !k

let is_final cfg t =
  if t.tags land tag_final_known <> 0 then t.tags land tag_final <> 0
  else begin
    let skey = sorted_key cfg in
    let mask = (1 lsl (3 * cfg.Isa.Config.n)) - 1 in
    let ok = ref true in
    for i = t.off to t.off + t.len - 1 do
      if (t.buf.(i) lsr 2) land mask <> skey then ok := false
    done;
    t.tags <-
      t.tags lor tag_final_known lor (if !ok then tag_final else 0);
    !ok
  end

let all_viable cfg t =
  if t.tags land tag_viable_known <> 0 then t.tags land tag_viable <> 0
  else begin
    let ok = ref true in
    for i = t.off to t.off + t.len - 1 do
      if not (Machine.Assign.viable cfg t.buf.(i)) then ok := false
    done;
    t.tags <-
      t.tags lor tag_viable_known lor (if !ok then tag_viable else 0);
    !ok
  end

let distinct_perms cfg t =
  if t.pc >= 0 then t.pc
  else begin
    let mask = (1 lsl (3 * cfg.Isa.Config.n)) - 1 in
    let keys = Array.make t.len 0 in
    for i = 0 to t.len - 1 do
      keys.(i) <- (t.buf.(t.off + i) lsr 2) land mask
    done;
    sort_range keys 0 t.len;
    let d = ref 1 in
    for i = 1 to t.len - 1 do
      if keys.(i) <> keys.(i - 1) then incr d
    done;
    t.pc <- !d;
    !d
  end

let lb_cache t = t.lb
let set_lb_cache t lb = t.lb <- lb

let equal a b =
  a == b
  || (a.hash = b.hash && a.len = b.len
     &&
     let i = ref 0 in
     while !i < a.len && a.buf.(a.off + !i) = b.buf.(b.off + !i) do
       incr i
     done;
     !i = a.len)

let compare a b =
  (* Same order as the old [int array] polymorphic compare: length first,
     then elementwise. *)
  if a.len <> b.len then Stdlib.compare a.len b.len
  else begin
    let rec go i =
      if i = a.len then 0
      else
        let c = Stdlib.compare a.buf.(a.off + i) b.buf.(b.off + i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let hash t = t.hash

let pp cfg ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.len - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Machine.Assign.pp cfg ppf t.buf.(t.off + i)
  done;
  Format.fprintf ppf "@]"

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Arena: per-domain scratch for the expansion hot loop. *)

module Arena = struct
  type state = t

  type arena = {
    cfg : Isa.Config.t;
    kmask : int;  (* value-register key mask *)
    skey : int;  (* sorted key pattern *)
    nregs : int;
    need : int;  (* viability: bit set per required value 1..n *)
    mutable map_buf : int array;  (* probe scratch *)
    stamp : int array;  (* perm-key -> generation, for O(1) counting *)
    mutable gen : int;
    mutable chunk : int array;  (* current bump chunk for commits *)
    mutable used : int;
    (* Probe results, valid from [probe] returning [Changed] until the
       next probe. *)
    mutable p_len : int;
    mutable p_hash : int;
    mutable p_pc : int;
    mutable p_final : bool;
    mutable p_viable : bool;
  }

  let chunk_words = 1 lsl 15

  let create cfg =
    let n = cfg.Isa.Config.n in
    {
      cfg;
      kmask = (1 lsl (3 * n)) - 1;
      skey = sorted_key cfg;
      nregs = Isa.Config.nregs cfg;
      need = ((1 lsl n) - 1) lsl 1;
      map_buf = Array.make (max 8 (Perms.factorial n)) 0;
      stamp = Array.make (1 lsl (3 * n)) 0;
      gen = 0;
      chunk = Array.make chunk_words 0;
      used = 0;
      p_len = 0;
      p_hash = 0;
      p_pc = 0;
      p_final = false;
      p_viable = false;
    }

  type outcome = Unchanged | Changed

  let probe a instr (s : state) =
    let len = s.len in
    if Array.length a.map_buf < len then a.map_buf <- Array.make (2 * len) 0;
    let buf = a.map_buf in
    Machine.Assign.map_sub a.cfg instr s.buf s.off buf 0 len;
    let same = ref true and nondecr = ref true in
    let prev = ref min_int in
    for i = 0 to len - 1 do
      let c' = buf.(i) in
      if c' <> s.buf.(s.off + i) then same := false;
      if c' < !prev then nondecr := false;
      prev := c'
    done;
    if !same then Unchanged
    else begin
      (* Instructions frequently preserve the order of an already-sorted
         state; skip the sort whenever the map pass stayed monotone. *)
      if not !nondecr then sort_range buf 0 len;
      a.gen <- a.gen + 1;
      if a.gen = max_int then begin
        Array.fill a.stamp 0 (Array.length a.stamp) 0;
        a.gen <- 1
      end;
      let g = a.gen and stamp = a.stamp in
      let h = ref fnv_seed in
      let w = ref 0 and pc = ref 0 in
      let final = ref true and viable = ref true in
      let prev = ref min_int in
      (* Fused pass: dedup in place while computing the hash, the
         distinct-permutation count (via the stamp table: no per-probe
         allocation, no key sort), finality and viability. *)
      for i = 0 to len - 1 do
        let c = buf.(i) in
        if c <> !prev then begin
          prev := c;
          buf.(!w) <- c;
          incr w;
          h := (!h lxor c) * fnv_prime;
          let key = (c lsr 2) land a.kmask in
          if stamp.(key) <> g then begin
            stamp.(key) <- g;
            incr pc
          end;
          if !final && key <> a.skey then final := false;
          if !viable then begin
            let present = ref 0 in
            for k = 0 to a.nregs - 1 do
              present := !present lor (1 lsl ((c lsr (2 + (3 * k))) land 7))
            done;
            if !present land a.need <> a.need then viable := false
          end
        end
      done;
      a.p_len <- !w;
      a.p_hash <- !h land max_int;
      a.p_pc <- !pc;
      a.p_final <- !final;
      a.p_viable <- !viable;
      Changed
    end

  let probe_size a = a.p_len
  let probe_distinct_perms a = a.p_pc
  let probe_is_final a = a.p_final
  let probe_all_viable a = a.p_viable

  let probe_fold a f acc =
    let r = ref acc in
    for i = 0 to a.p_len - 1 do
      r := f !r a.map_buf.(i)
    done;
    !r

  let commit a =
    let len = a.p_len in
    if a.used + len > Array.length a.chunk then begin
      (* The old chunk stays alive exactly as long as states committed
         into it do; we just stop bumping into it. *)
      a.chunk <- Array.make (max chunk_words len) 0;
      a.used <- 0
    end;
    let off = a.used in
    Array.blit a.map_buf 0 a.chunk off len;
    a.used <- off + len;
    {
      buf = a.chunk;
      off;
      len;
      hash = a.p_hash;
      pc = a.p_pc;
      tags =
        tag_final_known lor tag_viable_known
        lor (if a.p_final then tag_final else 0)
        lor (if a.p_viable then tag_viable else 0);
      lb = -1;
    }
end
