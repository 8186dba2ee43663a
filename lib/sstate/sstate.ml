(* Packed synthesis states.

   A state is a canonical (strictly increasing, deduplicated) sequence of
   assignment codes, stored as a run of fixed-width little cells in a
   shared [Bytes] chunk, so the search can bump-allocate states into large
   chunks instead of one heap block per state. The cell width is 3 bytes
   when the state's largest code fits in 24 bits, as every code does in a
   configuration with at most 7 registers, else 4 (codes are below 2^29).
   The width is a function of the codes, so equal states have equal
   widths and [equal] compares raw bytes. Cells are written and read in
   the machine's own byte order: they never leave the process.

   Derived facts that the engines query on every expansion — the FNV hash
   (over the int codes, whatever the width), the distinct-permutation
   count, finality and viability — are computed once and cached; [hash]
   makes every dedup-table operation O(1) instead of O(len). The length,
   the cell width and the caches share one immediate word, [meta]. On the
   arena path the parent is decoded once into int scratch, the order-free
   facts (count, finality, viability, the distance bound) come from one
   pass over the raw mapped codes, and only successors that survive
   vetting are sorted, deduplicated, hashed and encoded. A probe given the
   cut threshold stops counting once the cut is decided.

   The cfg-dependent caches (count, tags, bound) are filled lazily for
   states built without a config ({!of_codes}) and eagerly on the arena
   path. They are benign under parallel access: each fill writes the whole
   [meta] word (an [int] store is atomic in OCaml), every value it caches
   is a deterministic function of the immutable codes, and the length and
   width bits are the same in every word ever written. A fill racing
   another may drop the other's bits; that cache then reads as unknown
   and is computed again. *)

type t = {
  buf : Bytes.t;  (* backing chunk; cells at buf.[off .. off + len * width) *)
  off : int;  (* byte offset of the first cell *)
  hash : int;  (* FNV-1a over the int codes, precomputed *)
  mutable meta : int;  (* length, cell width and caches; layout below *)
}

(* [meta], from bit 0: the four tag bits, the cell width (4 bits), the
   distance bound plus one (16 bits; 0 = not cached), the
   distinct-permutation count plus one (19 bits; 0 = not computed) and
   the length (19 bits). A bound too large for its field (the distance
   table's infinity) is never cached; it is recomputed when asked. *)
let tag_final_known = 1
let tag_final = 2
let tag_viable_known = 4
let tag_viable = 8
let width_shift = 4
let lb_shift = 8
let lb_mask = 0xffff
let pc_shift = 24
let pc_mask = (1 lsl 19) - 1
let len_shift = 43
let max_len = (1 lsl 19) - 1

let pack ~len ~width ~pc ~tags ~lb =
  if len > max_len then invalid_arg "Sstate: too many codes";
  (len lsl len_shift)
  lor ((pc + 1) lsl pc_shift)
  lor ((if lb >= 0 && lb < lb_mask then lb + 1 else 0) lsl lb_shift)
  lor (width lsl width_shift)
  lor tags

(* Overwrite one field of [meta] with one word-sized write. *)
let set_field t shift mask v =
  t.meta <- t.meta land lnot (mask lsl shift) lor (v lsl shift)

let size t = t.meta lsr len_shift
let width t = (t.meta lsr width_shift) land 15
let pc_cache t = ((t.meta lsr pc_shift) land pc_mask) - 1
let tags t = t.meta land 15

let fnv_seed = 0x1bf29ce484222325
let fnv_prime = 0x100000001b3

(* ------------------------------------------------------------------ *)
(* Cells. *)

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* The cell width of the sorted codes [lo .. hi]. *)
let width_for ~lo ~hi =
  if lo < 0 || hi >= 1 lsl 32 then invalid_arg "Sstate: code out of range";
  if hi < 1 lsl 24 then 3 else 4

let get_cell b p w =
  if w = 3 then get16 b p lor (Char.code (Bytes.get b (p + 2)) lsl 16)
  else get16 b p lor (get16 b (p + 2) lsl 16)
  [@@inline]

(* Write [a.[0 .. len)] as [w]-byte cells from byte [off] of [b]. *)
let encode (a : int array) len w b off =
  if w = 3 then
    for i = 0 to len - 1 do
      let c = a.(i) and p = off + (3 * i) in
      set16 b p (c land 0xffff);
      Bytes.set b (p + 2) (Char.unsafe_chr ((c lsr 16) land 0xff))
    done
  else
    for i = 0 to len - 1 do
      let c = a.(i) and p = off + (4 * i) in
      set16 b p (c land 0xffff);
      set16 b (p + 2) ((c lsr 16) land 0xffff)
    done

(* The codes of [t] into [dst.[0 .. size t)]. *)
let decode t (dst : int array) =
  let w = width t and b = t.buf and off = t.off in
  for i = 0 to size t - 1 do
    dst.(i) <- get_cell b (off + (w * i)) w
  done

let code t i = get_cell t.buf (t.off + (width t * i)) (width t) [@@inline]

(* ------------------------------------------------------------------ *)
(* Monomorphic int sort of a prefix: insertion sort for short runs,
   median-of-three quicksort above. The polymorphic [Array.sort compare]
   this replaces was the single hottest call of the old representation. *)

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

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
    (* Median of first/middle/last as the pivot, parked at [lo]. *)
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi - 1) < a.(lo) then swap a (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap a (hi - 1) mid;
    swap a lo mid;
    let pivot = a.(lo) in
    let i = ref (lo + 1) and j = ref (hi - 1) in
    while !i <= !j do
      while !i <= !j && a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    swap a lo !j;
    sort_range a lo !j;
    sort_range a (!j + 1) hi
  end

let hash_range (a : int array) lo hi =
  let h = ref fnv_seed in
  for i = lo to hi - 1 do
    h := (!h lxor a.(i)) * fnv_prime
  done;
  !h land max_int

(* Dedup the sorted, non-empty [a.[0..n)] in place; returns the
   deduplicated length. *)
let dedup_sorted (a : int array) n =
  let w = ref 1 in
  for i = 1 to n - 1 do
    if a.(i) <> a.(i - 1) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  !w

(* Build a state from the codes [a.[0..n)], which it may reorder. *)
let of_prefix ?(pc = -1) a n =
  if n = 0 then invalid_arg "Sstate: empty state";
  sort_range a 0 n;
  let len = dedup_sorted a n in
  let width = width_for ~lo:a.(0) ~hi:a.(len - 1) in
  let buf = Bytes.create (len * width) in
  encode a len width buf 0;
  {
    buf;
    off = 0;
    hash = hash_range a 0 len;
    meta = pack ~len ~width ~pc ~tags:0 ~lb:(-1);
  }

let of_codes ?perms a =
  of_prefix ?pc:perms (Array.copy a) (Array.length a)

let initial cfg =
  let n = cfg.Isa.Config.n in
  let a = Array.make (max 1 (Perms.factorial n)) 0 in
  let i = ref 0 in
  Perms.iter n (fun p ->
      a.(!i) <- Machine.Assign.of_permutation cfg p;
      incr i);
  of_prefix a !i

let codes t =
  let a = Array.make (size t) 0 in
  decode t a;
  a

let distinct_assignments = size

let fold f acc t =
  let r = ref acc in
  for i = 0 to size t - 1 do
    r := f !r (code t i)
  done;
  !r

let apply cfg instr t =
  let a = codes t in
  Machine.Assign.map_sub cfg instr a 0 a 0 (Array.length a);
  of_prefix a (Array.length a)

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
  let tags = tags t in
  if tags land tag_final_known <> 0 then tags land tag_final <> 0
  else begin
    let skey = sorted_key cfg in
    let mask = (1 lsl (3 * cfg.Isa.Config.n)) - 1 in
    let ok = ref true in
    for i = 0 to size t - 1 do
      if (code t i lsr 2) land mask <> skey then ok := false
    done;
    t.meta <- t.meta lor tag_final_known lor (if !ok then tag_final else 0);
    !ok
  end

let all_viable cfg t =
  let tags = tags t in
  if tags land tag_viable_known <> 0 then tags land tag_viable <> 0
  else begin
    let ok = ref true in
    for i = 0 to size t - 1 do
      if not (Machine.Assign.viable cfg (code t i)) then ok := false
    done;
    t.meta <- t.meta lor tag_viable_known lor (if !ok then tag_viable else 0);
    !ok
  end

let distinct_perms cfg t =
  let cached = pc_cache t in
  if cached >= 0 then cached
  else begin
    let mask = (1 lsl (3 * cfg.Isa.Config.n)) - 1 in
    let len = size t in
    let keys = codes t in
    for i = 0 to len - 1 do
      keys.(i) <- (keys.(i) lsr 2) land mask
    done;
    sort_range keys 0 len;
    let d = ref 1 in
    for i = 1 to len - 1 do
      if keys.(i) <> keys.(i - 1) then incr d
    done;
    set_field t pc_shift pc_mask (!d + 1);
    !d
  end

let lb_cache t = ((t.meta lsr lb_shift) land lb_mask) - 1

let set_lb_cache t lb =
  if lb >= 0 && lb < lb_mask then
    set_field t lb_shift lb_mask (lb + 1)

(* The same [bytes] bytes from [pa] in [a] and [pb] in [b], eight at a
   time. *)
let bytes_equal a pa b pb bytes =
  let i = ref 0 in
  while !i + 8 <= bytes && (get64 a (pa + !i) : int64) = get64 b (pb + !i) do
    i := !i + 8
  done;
  if !i + 8 <= bytes then false
  else begin
    while !i < bytes && Bytes.get a (pa + !i) = Bytes.get b (pb + !i) do
      incr i
    done;
    !i = bytes
  end

let equal a b =
  a == b
  || a.hash = b.hash
     && a.meta lsr len_shift = b.meta lsr len_shift
     && width a = width b
     && bytes_equal a.buf a.off b.buf b.off (size a * width a)

let compare a b =
  (* Same order as the old [int array] polymorphic compare: length first,
     then elementwise. *)
  let len = size a in
  if len <> size b then Int.compare len (size b)
  else begin
    let rec go i =
      if i = len then 0
      else
        let c = Int.compare (code a i) (code b i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let hash t = t.hash

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Sole holders, tabulated. *)

(* [Machine.Assign.sole_holders] depends only on a code's register
   fields, so for up to 7 registers (a 21-bit field, a register mask that
   fits a byte) it is one byte per field value, built once per (n, m)
   and shared by every arena. Larger register files get no table (it
   would take 16 MB at 8 registers) and compute the holders per code. *)
let sole_table_regs = 7
let sole_cache : (int * int, Bytes.t) Hashtbl.t = Hashtbl.create 8
let sole_cache_lock = Mutex.create ()

let sole_table cfg =
  let nregs = Isa.Config.nregs cfg in
  if nregs > sole_table_regs then Bytes.empty
  else
    Mutex.protect sole_cache_lock (fun () ->
        let key = (cfg.Isa.Config.n, cfg.Isa.Config.m) in
        match Hashtbl.find_opt sole_cache key with
        | Some t -> t
        | None ->
            let t =
              Bytes.init (1 lsl (3 * nregs)) (fun field ->
                  Char.chr (Machine.Assign.sole_holders cfg (field lsl 2)))
            in
            Hashtbl.replace sole_cache key t;
            t)

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
    sole : Bytes.t;  (* [sole_table cfg]; empty above 7 registers *)
    mutable parent : state;  (* the state whose codes [pcodes] holds *)
    mutable pcodes : int array;
    mutable sole_masks : int;  (* [sole_holders] of [parent]; -1 = not yet *)
    mutable map_buf : int array;  (* probe scratch *)
    stamp : int array;  (* perm-key -> generation, for O(1) counting *)
    mutable gen : int;
    mutable chunk : Bytes.t;  (* current bump chunk for commits *)
    mutable used : int;  (* bytes of [chunk] committed *)
    mutable dist : int array;  (* attached distance table; [||] = none *)
    mutable dist_inf : int;  (* its bound for a code that cannot be sorted *)
    (* Probe results, valid from [probe] returning [Changed] until the
       next probe. [map_buf.[0 .. p_len)] holds the raw mapped codes until
       [canonicalize] sorts and dedups them in place ([p_canon]); [p_hash]
       and [p_width] are meaningful only once they are canonical, and
       [p_enc] says they are also encoded at [chunk.[used ..)]. *)
    mutable p_over : bool;  (* the count passed the limit; partial facts *)
    mutable p_len : int;
    mutable p_sorted : bool;  (* the raw codes came out non-decreasing *)
    mutable p_canon : bool;
    mutable p_hash : int;
    mutable p_width : int;
    mutable p_enc : bool;
    mutable p_pc : int;
    mutable p_final : bool;
    mutable p_viable : bool;
    mutable p_lb : int;  (* -1 when no table is attached *)
  }

  let chunk_bytes = 1 lsl 18

  let create cfg =
    let n = cfg.Isa.Config.n in
    {
      cfg;
      kmask = (1 lsl (3 * n)) - 1;
      skey = sorted_key cfg;
      nregs = Isa.Config.nregs cfg;
      need = ((1 lsl n) - 1) lsl 1;
      sole = sole_table cfg;
      parent = { buf = Bytes.empty; off = 0; hash = 0; meta = 0 };
      pcodes = Array.make (max 8 (Perms.factorial n)) 0;
      sole_masks = -1;
      map_buf = Array.make (max 8 (Perms.factorial n)) 0;
      stamp = Array.make (1 lsl (3 * n)) 0;
      gen = 0;
      chunk = Bytes.create chunk_bytes;
      used = 0;
      dist = [||];
      dist_inf = 0;
      p_over = false;
      p_len = 0;
      p_sorted = false;
      p_canon = false;
      p_hash = 0;
      p_width = 3;
      p_enc = false;
      p_pc = 0;
      p_final = false;
      p_viable = false;
      p_lb = -1;
    }

  let attach_distance a table ~infinity =
    a.dist <- table;
    a.dist_inf <- infinity

  type outcome = Unchanged | Changed

  (* Decode [s] into [pcodes] unless it is already there: every call of
     one expansion reads the same parent, decoded once. *)
  let load a (s : state) =
    if a.parent != s then begin
      let len = size s in
      if Array.length a.pcodes < len then a.pcodes <- Array.make (2 * len) 0;
      decode s a.pcodes;
      a.parent <- s;
      a.sole_masks <- -1
    end

  (* A fresh stamp generation, under which every key reads as unseen. *)
  let next_gen a =
    a.gen <- a.gen + 1;
    if a.gen = max_int then begin
      Array.fill a.stamp 0 (Array.length a.stamp) 0;
      a.gen <- 1
    end;
    a.gen

  (* [instr] applied to every code of the loaded parent, into the probe
     scratch; the staging is now unencoded. *)
  let map_into a instr len =
    if Array.length a.map_buf < len then a.map_buf <- Array.make (2 * len) 0;
    Machine.Assign.map_sub a.cfg instr a.pcodes 0 a.map_buf 0 len;
    a.p_enc <- false;
    a.map_buf

  let probe ?(limit = max_int) a instr (s : state) =
    load a s;
    let len = size s in
    let pcodes = a.pcodes in
    let buf = map_into a instr len in
    let g = next_gen a and stamp = a.stamp and dist = a.dist in
    let has_dist = Array.length dist > 0 in
    let same = ref true and nondecr = ref true and prev = ref min_int in
    let pc = ref 0 and lb = ref (if has_dist then 0 else -1) in
    let final = ref true and viable = ref true in
    (* The count at which the cut is decided: above [limit], and at least
       2, so the successor cannot be final either. *)
    let stop = if limit = max_int then max_int else max 2 (limit + 1) in
    let counting = ref true in
    (* One pass over the mapped codes as they come. Besides spotting an
       unchanged or still-sorted result, it computes every fact vetting
       needs; duplicates and order change none of the distinct-permutation
       count (via the stamp table: no per-probe allocation, no key sort),
       finality, viability or the distance bound, so none of them waits
       for the sort. Once the count reaches [stop] only the bound and
       viability, which vetting reads before the cut, are still tracked.
       A finite distance implies every value is still present; only the
       codes the table calls dead (or every code, without a table) need
       the register scan. *)
    for i = 0 to len - 1 do
      let c = buf.(i) in
      if !counting then begin
        if c <> pcodes.(i) then same := false;
        if c < !prev then nondecr := false;
        prev := c;
        let key = (c lsr 2) land a.kmask in
        if stamp.(key) <> g then begin
          stamp.(key) <- g;
          incr pc;
          if !pc >= stop then counting := false
        end;
        if !final && key <> a.skey then final := false
      end;
      let d = if has_dist then dist.(c) else -1 in
      if d >= 0 then begin
        if d > !lb then lb := d
      end
      else begin
        if has_dist then begin
          if d = -2 then invalid_arg "Sstate.Arena.probe: code not reachable";
          lb := a.dist_inf
        end;
        if !viable then begin
          let present = ref 0 in
          for k = 0 to a.nregs - 1 do
            present := !present lor (1 lsl ((c lsr (2 + (3 * k))) land 7))
          done;
          if !present land a.need <> a.need then viable := false
        end
      end
    done;
    if !same && !counting then Unchanged
    else begin
      a.p_over <- not !counting;
      a.p_len <- len;
      a.p_sorted <- !nondecr;
      a.p_canon <- false;
      a.p_pc <- !pc;
      a.p_final <- !final;
      a.p_viable <- !viable;
      a.p_lb <- !lb;
      Changed
    end

  (* Takes its own stamp generation and touches no probe result, so the
     staged successor survives it. *)
  let perms_without a (s : state) d =
    load a s;
    let g = next_gen a and stamp = a.stamp and pcodes = a.pcodes in
    let mask = a.kmask land lnot (7 lsl (3 * d)) in
    let count = ref 0 in
    for i = 0 to size s - 1 do
      let key = (pcodes.(i) lsr 2) land mask in
      if stamp.(key) <> g then begin
        stamp.(key) <- g;
        incr count
      end
    done;
    !count

  let sole_shift_lt = 10
  let sole_shift_gt = 20

  (* One pass over the decoded parent, one table load per code (or the
     holders computed, above 7 registers). *)
  let sole_holders a (s : state) =
    load a s;
    if a.sole_masks < 0 then begin
      let pcodes = a.pcodes and table = a.sole in
      let tabled = Bytes.length table > 0 in
      let any = ref 0 and lt = ref 0 and gt = ref 0 in
      for i = 0 to size s - 1 do
        let c = pcodes.(i) in
        let h =
          if tabled then Char.code (Bytes.get table (c lsr 2))
          else Machine.Assign.sole_holders a.cfg c
        in
        any := !any lor h;
        let f = c land 3 in
        if f = Machine.Assign.flag_lt then lt := !lt lor h
        else if f = Machine.Assign.flag_gt then gt := !gt lor h
      done;
      a.sole_masks <-
        !any lor (!lt lsl sole_shift_lt) lor (!gt lsl sole_shift_gt)
    end;
    a.sole_masks

  (* A [cmp] rewrites only the flag bits, below every register field, so
     the mapped codes of a canonical state stay non-decreasing: codes that
     differed only in flags become adjacent duplicates. One pass spots an
     unchanged result, drops those duplicates and hashes what is left; the
     order-free facts are the parent's, since none of them reads flags. *)
  let stage_cmp a (instr : Isa.Instr.t) (s : state) =
    if instr.op <> Isa.Instr.Cmp then
      invalid_arg "Sstate.Arena.stage_cmp: not a cmp";
    load a s;
    let len = size s and pcodes = a.pcodes in
    let buf = map_into a instr len in
    let same = ref true and w = ref 0 and h = ref fnv_seed in
    for i = 0 to len - 1 do
      let c = buf.(i) in
      if c <> pcodes.(i) then same := false;
      if !w = 0 || c <> buf.(!w - 1) then begin
        buf.(!w) <- c;
        incr w;
        h := (!h lxor c) * fnv_prime
      end
    done;
    if !same then Unchanged
    else begin
      let dist = a.dist in
      a.p_over <- false;
      a.p_len <- !w;
      a.p_sorted <- true;
      a.p_canon <- true;
      a.p_hash <- !h land max_int;
      a.p_width <- width_for ~lo:buf.(0) ~hi:buf.(!w - 1);
      a.p_pc <- distinct_perms a.cfg s;
      a.p_final <- is_final a.cfg s;
      a.p_viable <- all_viable a.cfg s;
      a.p_lb <-
        (if Array.length dist = 0 then -1
         else if lb_cache s >= 0 then lb_cache s
         else begin
           let lb = ref 0 in
           for i = 0 to len - 1 do
             match dist.(pcodes.(i)) with
             | -2 -> invalid_arg "Sstate.Arena.stage_cmp: code not reachable"
             | -1 -> lb := max !lb a.dist_inf
             | d -> lb := max !lb d
           done;
           !lb
         end);
      Changed
    end

  let probe_distinct_perms a = a.p_pc
  let probe_is_final a = a.p_final
  let probe_all_viable a = a.p_viable
  let probe_lower_bound a = a.p_lb

  (* Sort (unless the map pass stayed monotone), dedup and hash the staged
     codes in place, once per probe. *)
  let canonicalize a =
    if a.p_over then invalid_arg "Sstate.Arena: the probe stopped at its limit";
    if not a.p_canon then begin
      let buf = a.map_buf in
      if not a.p_sorted then sort_range buf 0 a.p_len;
      a.p_len <- dedup_sorted buf a.p_len;
      a.p_hash <- hash_range buf 0 a.p_len;
      a.p_width <- width_for ~lo:buf.(0) ~hi:buf.(a.p_len - 1);
      a.p_canon <- true
    end

  let probe_size a =
    canonicalize a;
    a.p_len

  (* Canonicalize and encode the staged codes at the chunk's free end,
     once per probe, starting a new chunk when they do not fit. *)
  let encode_staged a =
    canonicalize a;
    if not a.p_enc then begin
      let bytes = a.p_len * a.p_width in
      if a.used + bytes > Bytes.length a.chunk then begin
        (* The old chunk stays alive exactly as long as states committed
           into it do; we just stop bumping into it. *)
        a.chunk <- Bytes.create (max chunk_bytes bytes);
        a.used <- 0
      end;
      encode a.map_buf a.p_len a.p_width a.chunk a.used;
      a.p_enc <- true
    end

  let staged a =
    {
      buf = a.chunk;
      off = a.used;
      hash = a.p_hash;
      meta =
        pack ~len:a.p_len ~width:a.p_width ~pc:a.p_pc ~lb:a.p_lb
          ~tags:
            (tag_final_known lor tag_viable_known
            lor (if a.p_final then tag_final else 0)
            lor if a.p_viable then tag_viable else 0);
    }

  let probe_view a =
    encode_staged a;
    staged a

  let commit a =
    encode_staged a;
    let s = staged a in
    a.used <- a.used + (a.p_len * a.p_width);
    a.p_enc <- false;
    s
end
