(* Spans for the traced run. The benchmark times its own calls into each
   layer's public functions; nothing inside lib/ is instrumented. Spans
   are kept in memory and written as JSONL when the run ends, so the
   write costs nothing while measuring. All spans of one request (or one
   offline operation) share its [rid]; [parent] is the id of the span
   that caused it, 0 for a root. A [reported] span is a duration the
   server put in its reply (its own [elapsed]), not one timed here. *)

type span = {
  rid : int;
  id : int;
  parent : int;
  name : string;
  start : float;  (** Seconds since tracing was enabled. *)
  dur : float;  (** Seconds. *)
  reported : bool;
}

let on = Atomic.make false
let origin = ref 0.
let next_id = Atomic.make 1
let lock = Mutex.create ()
let spans : span list ref = ref []

let enable () =
  origin := Mono.now ();
  Atomic.set on true

let disable () = Atomic.set on false

let record s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* [span ~rid ~parent name f] runs [f id], where [id] is the new span's
   id (0 when tracing is off, in which case nothing is recorded). The
   span starts at [start] ({!Mono.now} when omitted). *)
let span ?(rid = 0) ?(parent = 0) ?start name f =
  if not (Atomic.get on) then f 0
  else
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = match start with Some t -> t | None -> Mono.now () in
    let finish () =
      record
        {
          rid;
          id;
          parent;
          name;
          start = t0 -. !origin;
          dur = Mono.now () -. t0;
          reported = false;
        }
    in
    match f id with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e

let reported ?(rid = 0) ~parent name dur =
  if Atomic.get on then
    record
      {
        rid;
        id = Atomic.fetch_and_add next_id 1;
        parent;
        name;
        start = Float.nan;
        dur;
        reported = true;
      }

(* All spans recorded so far, oldest first; clears the buffer. *)
let take () =
  Mutex.lock lock;
  let s = List.rev !spans in
  spans := [];
  Mutex.unlock lock;
  s

let to_json ~workload s =
  Registry.Json.(
    Obj
      [
        ("workload", Str workload);
        ("rid", Int s.rid);
        ("id", Int s.id);
        ("parent", Int s.parent);
        ("name", Str s.name);
        ( "start_us",
          if Float.is_nan s.start then Null else Float (s.start *. 1e6) );
        ("dur_us", Float (s.dur *. 1e6));
        ("source", Str (if s.reported then "server" else "bench"));
      ])

let append_jsonl path ~workload spans =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644 path
  in
  List.iter
    (fun s ->
      output_string oc (Registry.Json.to_string (to_json ~workload s));
      output_char oc '\n')
    spans;
  close_out oc

(* Decomposition of the operations rooted at spans named [root]: per
   operation, the time inside each leaf span (a layer call with no child
   span) and the named residual — the root's duration not covered by any
   leaf (socket, accept, thread spawn, queue and mutex waits, glue). *)
type breakdown = {
  latency : float array;  (** Root durations, seconds. *)
  layers : (string * float array) list;  (** Per leaf name, per operation. *)
  residual : float array;
}

let breakdown ~root spans =
  let roots = List.filter (fun s -> s.name = root && s.parent = 0) spans in
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  let rec leaves s =
    match Hashtbl.find_all children s.id with
    | [] -> [ s ]
    | cs -> List.concat_map leaves cs
  in
  let names = Hashtbl.create 16 in
  let per_op =
    List.map
      (fun r ->
        let ls =
          match Hashtbl.find_all children r.id with
          | [] -> []
          | cs -> List.concat_map leaves cs
        in
        let by_name = Hashtbl.create 8 in
        List.iter
          (fun l ->
            Hashtbl.replace names l.name ();
            Hashtbl.replace by_name l.name
              (l.dur +. Option.value ~default:0. (Hashtbl.find_opt by_name l.name)))
          ls;
        let covered = List.fold_left (fun a l -> a +. l.dur) 0. ls in
        (r.dur, by_name, r.dur -. covered))
      roots
  in
  let names = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) names []) in
  {
    latency = Array.of_list (List.map (fun (d, _, _) -> d) per_op);
    layers =
      List.map
        (fun n ->
          ( n,
            Array.of_list
              (List.map
                 (fun (_, h, _) -> Option.value ~default:0. (Hashtbl.find_opt h n))
                 per_op) ))
        names;
    residual = Array.of_list (List.map (fun (_, _, r) -> r) per_op);
  }
