(* One FIFO queue per distinct priority, in a map keyed by priority. A
   search pushes a handful of distinct priorities (g + h spans tens of
   values), so the map stays tiny and a push or pop costs one small map
   lookup plus an O(1) queue operation. An emptied queue leaves the map,
   so the least binding is always the next pop. *)

module Buckets = Map.Make (Int)

type 'a t = { mutable buckets : 'a Queue.t Buckets.t; mutable size : int }

let create () = { buckets = Buckets.empty; size = 0 }
let size h = h.size

let push h prio value =
  (match Buckets.find_opt prio h.buckets with
  | Some q -> Queue.push value q
  | None ->
      let q = Queue.create () in
      Queue.push value q;
      h.buckets <- Buckets.add prio q h.buckets);
  h.size <- h.size + 1

let pop h =
  match Buckets.min_binding_opt h.buckets with
  | None -> None
  | Some (prio, q) ->
      let value = Queue.pop q in
      if Queue.is_empty q then h.buckets <- Buckets.remove prio h.buckets;
      h.size <- h.size - 1;
      Some (prio, value)
