type engine = Astar | Level | Parallel

type t = {
  n : int;
  m : int;
  isa : string;
  engine : engine;
  heuristic : Search.heuristic;
  cut : Search.cut;
  max_len : int option;
}

let engine_assoc = [ ("astar", Astar); ("level", Level); ("parallel", Parallel) ]

let heuristic_assoc =
  [
    ("none", Search.No_heuristic);
    ("perm", Search.Perm_count);
    ("assign", Search.Assign_count);
    ("dist", Search.Dist_bound);
  ]

let of_assoc what assoc s =
  match List.assoc_opt s assoc with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (expected one of: %s)" what s
           (String.concat ", " (List.map fst assoc)))

let to_assoc assoc v = fst (List.find (fun (_, v') -> v = v') assoc)
let engine_to_string = to_assoc engine_assoc
let engine_of_string = of_assoc "engine" engine_assoc
let heuristic_to_string = to_assoc heuristic_assoc
let heuristic_of_string = of_assoc "heuristic" heuristic_assoc

let cut_to_string = function
  | Search.No_cut -> "none"
  | Search.Mult k -> Printf.sprintf "mult:%.3f" k
  | Search.Add d -> Printf.sprintf "add:%d" d

let cut_of_string s =
  let num prefix =
    String.sub s (String.length prefix) (String.length s - String.length prefix)
  in
  if s = "none" then Ok Search.No_cut
  else if String.starts_with ~prefix:"mult:" s then
    match float_of_string_opt (num "mult:") with
    | Some k when Float.is_finite k && k > 0. -> Ok (Search.Mult k)
    | _ -> Error (Printf.sprintf "bad cut factor in %S" s)
  else if String.starts_with ~prefix:"add:" s then
    match int_of_string_opt (num "add:") with
    | Some d when d >= 0 -> Ok (Search.Add d)
    | _ -> Error (Printf.sprintf "bad cut delta in %S" s)
  else Error (Printf.sprintf "unknown cut %S (none, mult:K, or add:D)" s)

let cut_of_factor k = if k <= 0. then Search.No_cut else Search.Mult k

let make ?(m = 1) ?(isa = "cmov") ?(engine = Astar) ?(heuristic = Search.Perm_count)
    ?(cut = Search.Mult 1.0) ?max_len n =
  if isa <> "cmov" then
    invalid_arg (Printf.sprintf "Key.make: unknown ISA %S" isa);
  (match cut with
  | Search.Mult k when not (Float.is_finite k && k > 0.) ->
      invalid_arg (Printf.sprintf "Key.make: cut factor %g is not a finite number > 0" k)
  | _ -> ());
  (* Validate the register file up front so a key can always be executed. *)
  ignore (Isa.Config.make ~n ~m);
  { n; m; isa; engine; heuristic; cut; max_len }

let equal = ( = )

let canonical k =
  Printf.sprintf "v1;isa=%s;n=%d;m=%d;engine=%s;heuristic=%s;cut=%s;len=%s"
    k.isa k.n k.m (engine_to_string k.engine)
    (heuristic_to_string k.heuristic)
    (cut_to_string k.cut)
    (match k.max_len with Some l -> string_of_int l | None -> "-")

let hash k = Digest.to_hex (Digest.string (canonical k))
let config k = Isa.Config.make ~n:k.n ~m:k.m

let options k =
  {
    Search.best with
    Search.engine = (match k.engine with Astar -> Search.Astar | Level | Parallel -> Search.Level_sync);
    heuristic = k.heuristic;
    cut = k.cut;
    max_len = k.max_len;
    max_solutions = 50;
  }

let describe k =
  Printf.sprintf "n=%d m=%d %s %s/%s cut=%s len=%s" k.n k.m k.isa
    (engine_to_string k.engine)
    (heuristic_to_string k.heuristic)
    (cut_to_string k.cut)
    (match k.max_len with Some l -> string_of_int l | None -> "-")

let to_json k =
  Json.Obj
    [
      ("n", Json.Int k.n);
      ("m", Json.Int k.m);
      ("isa", Json.Str k.isa);
      ("engine", Json.Str (engine_to_string k.engine));
      ("heuristic", Json.Str (heuristic_to_string k.heuristic));
      ("cut", Json.Str (cut_to_string k.cut));
      ( "max_len",
        match k.max_len with Some l -> Json.Int l | None -> Json.Null );
    ]

let ( let* ) = Result.bind

(* Absent or null members take {!make}'s defaults. *)
let of_json j =
  match j with
  | Json.Obj _ -> (
      let* n =
        match Json.member "n" j with
        | Some v -> Json.to_int v
        | None -> Error "job is missing required field \"n\""
      in
      let* m = Json.opt "m" Json.to_int j in
      let* isa = Json.opt "isa" Json.to_str j in
      let* engine =
        Json.opt "engine" (fun v -> Result.bind (Json.to_str v) engine_of_string) j
      in
      let* heuristic =
        Json.opt "heuristic" (fun v -> Result.bind (Json.to_str v) heuristic_of_string) j
      in
      let* cut =
        Json.opt "cut"
          (fun v ->
            (* Batch jobs may give the CLI's numeric factor instead of the
               canonical string form. *)
            match v with
            | Json.Int _ | Json.Float _ ->
                let* k = Json.to_float v in
                if Float.is_finite k then Ok (cut_of_factor k)
                else Error "cut: factor must be finite"
            | _ -> Result.bind (Json.to_str v) cut_of_string)
          j
      in
      let* max_len = Json.opt "max_len" Json.to_int j in
      match make ?m ?isa ?engine ?heuristic ?cut ?max_len n with
      | k -> Ok k
      | exception Invalid_argument msg -> Error msg)
  | _ -> Error "job must be a JSON object"
