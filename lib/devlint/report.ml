type run = {
  unwaived : Lint.finding list;
  waived : (Lint.finding * Waivers.t) list;
  unused : Waivers.t list;
  errors : (string * string) list;
  files_scanned : int;
}

let finding_line (f : Lint.finding) =
  Printf.sprintf "%s:%d:%d: %s[%s] %s; fix: %s" f.file f.line f.col
    (Rule.id f.rule) (Rule.title f.rule) f.message (Rule.hint f.rule)

let text run =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter (fun (path, err) -> line "%s: error: %s" path err) run.errors;
  List.iter (fun f -> line "%s" (finding_line f)) run.unwaived;
  if run.waived <> [] then begin
    line "waived:";
    List.iter
      (fun ((f : Lint.finding), (w : Waivers.t)) ->
        line "  %s:%d: %s — %s" f.file f.line (Rule.id f.rule)
          w.justification)
      run.waived
  end;
  if run.unused <> [] then begin
    line "stale waivers (cover no finding — remove them):";
    List.iter
      (fun (w : Waivers.t) -> line "  %s %s" (Rule.id w.rule) w.path)
      run.unused
  end;
  line "devlint: %d file%s scanned, %d finding%s (%d waived)%s"
    run.files_scanned
    (if run.files_scanned = 1 then "" else "s")
    (List.length run.unwaived)
    (if List.length run.unwaived = 1 then "" else "s")
    (List.length run.waived)
    (if run.errors = [] then "" else Printf.sprintf ", %d error%s"
       (List.length run.errors)
       (if List.length run.errors = 1 then "" else "s"));
  Buffer.contents b

let json run =
  let open Json in
  let finding (f : Lint.finding) extra =
    Obj
      ([
         ("file", Str f.file);
         ("line", Int f.line);
         ("col", Int f.col);
         ("rule", Str (Rule.id f.rule));
         ("title", Str (Rule.title f.rule));
         ("message", Str f.message);
         ("hint", Str (Rule.hint f.rule));
       ]
      @ extra)
  in
  Obj
    [
      ("files_scanned", Int run.files_scanned);
      ("findings", Arr (List.map (fun f -> finding f []) run.unwaived));
      ( "waived",
        Arr
          (List.map
             (fun (f, (w : Waivers.t)) ->
               finding f [ ("waived_by", Str w.justification) ])
             run.waived) );
      ( "stale_waivers",
        Arr
          (List.map
             (fun (w : Waivers.t) ->
               Obj [ ("rule", Str (Rule.id w.rule)); ("path", Str w.path) ])
             run.unused) );
      ( "errors",
        Arr
          (List.map
             (fun (path, err) -> Obj [ ("file", Str path); ("error", Str err) ])
             run.errors) );
      ("ok", Bool (run.unwaived = [] && run.errors = []));
    ]

let exit_code run = if run.unwaived = [] && run.errors = [] then 0 else 1
