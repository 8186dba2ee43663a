type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission.                                                          *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b x =
  if not (Float.is_finite x) then
    Buffer.add_string b
      (if x > 0. then "1e308" else if x < 0. then "-1e308" else "0.0")
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" x)
  else
    (* Shortest of %.9g/%.17g that parses back to exactly x. %.9g alone
       silently rounds epoch-seconds timestamps (10 integer digits) to
       ~10 s granularity, which moved propagated deadlines by up to 5 s
       on the wire. *)
    let s = Printf.sprintf "%.9g" x in
    let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
    Buffer.add_string b s

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x -> add_float b x
  | Str s -> escape_string b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

exception Bad of int * string

let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word = String.iter (fun c -> expect c) word in
  (* UTF-8-encode a \uXXXX codepoint; our emitters only escape < 0x20. *)
  let add_codepoint b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'u' ->
              advance ();
              let cp = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' as c) -> cp := (!cp * 16) + (Char.code c - 48)
                | Some ('a' .. 'f' as c) -> cp := (!cp * 16) + (Char.code c - 87)
                | Some ('A' .. 'F' as c) -> cp := (!cp * 16) + (Char.code c - 55)
                | _ -> fail "bad \\u escape");
                advance ()
              done;
              add_codepoint b !cp;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            saw := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected digit");
    let integral = ref true in
    (match peek () with
    | Some '.' ->
        integral := false;
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub src start (!pos - start) in
    if !integral then
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
    else Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some '}' ->
            advance ();
            Obj []
        | _ ->
            let rec members acc =
              skip_ws ();
              let k = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        (match peek () with
        | Some ']' ->
            advance ();
            Arr []
        | _ ->
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements [])
    | Some '"' -> Str (string_body ())
    | Some 't' ->
        literal "true";
        Bool true
    | Some 'f' ->
        literal "false";
        Bool false
    | Some 'n' ->
        literal "null";
        Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) -> Error (Printf.sprintf "at offset %d: %s" p msg)

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let to_int = function
  | Int i -> Ok i
  | Float x when Float.is_integer x && Float.abs x < 1e15 ->
      Ok (int_of_float x)
  | v -> Error (Printf.sprintf "expected int, got %s" (type_name v))

let to_float = function
  | Int i -> Ok (float_of_int i)
  | Float x -> Ok x
  | v -> Error (Printf.sprintf "expected number, got %s" (type_name v))

let to_str = function
  | Str s -> Ok s
  | v -> Error (Printf.sprintf "expected string, got %s" (type_name v))

let to_list = function
  | Arr l -> Ok l
  | v -> Error (Printf.sprintf "expected array, got %s" (type_name v))

let opt k conv j =
  match member k j with
  | None | Some Null -> Ok None
  | Some v -> Result.map Option.some (conv v)

let list ?item conv j =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
        match (conv v, item) with
        | Ok x, _ -> go (i + 1) (x :: acc) rest
        | Error e, Some item -> Error (Printf.sprintf "%s %d: %s" item i e)
        | (Error _ as e), None -> e)
  in
  Result.bind (to_list j) (go 0 [])
