type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }
let size h = h.len

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow h e =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nd = Array.make ncap e in
    Array.blit h.data 0 nd 0 h.len;
    h.data <- nd
  end

let push h prio value =
  let e = { prio; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h e;
  let i = ref h.len in
  h.len <- h.len + 1;
  h.data.(!i) <- e;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if less h.data.(!i) h.data.(p) then begin
      let t = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- t;
      i := p
    end
    else continue := false
  done

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.len && less h.data.(l) h.data.(!best) then best := l;
        if r < h.len && less h.data.(r) h.data.(!best) then best := r;
        if !best <> !i then begin
          let t = h.data.(!best) in
          h.data.(!best) <- h.data.(!i);
          h.data.(!i) <- t;
          i := !best
        end
        else continue := false
      done
    end;
    Some (top.prio, top.value)
  end
