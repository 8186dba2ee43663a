type severity = Error | Warning

type rule =
  | Dead_write
  | Dead_cmp
  | Redundant_cmp
  | Orphan_cmov
  | Uninit_scratch_read
  | Trailing_code
  | Semantic_noop
  | Not_sorting

type finding = {
  rule : rule;
  severity : severity;
  index : int option;
  message : string;
}

let rule_id = function
  | Dead_write -> "dead-write"
  | Dead_cmp -> "dead-cmp"
  | Redundant_cmp -> "redundant-cmp"
  | Orphan_cmov -> "orphan-cmov"
  | Uninit_scratch_read -> "uninit-scratch-read"
  | Trailing_code -> "trailing-code"
  | Semantic_noop -> "semantic-noop"
  | Not_sorting -> "not-sorting"

let severity_of_rule = function
  | Uninit_scratch_read -> Warning
  | Dead_write | Dead_cmp | Redundant_cmp | Orphan_cmov | Trailing_code
  | Semantic_noop | Not_sorting ->
      Error

let severity_to_string = function Error -> "error" | Warning -> "warning"

let rules =
  [
    Dead_write;
    Dead_cmp;
    Redundant_cmp;
    Orphan_cmov;
    Uninit_scratch_read;
    Trailing_code;
    Semantic_noop;
    Not_sorting;
  ]

(* One-line descriptions, kept byte-identical to the README rule table
   (a test pins the sync). *)
let describe = function
  | Dead_write ->
      "a (conditional) move whose destination is never read before being \
       overwritten or ignored at exit"
  | Dead_cmp ->
      "a `cmp` whose flags are never consumed before the next `cmp` \
       clobbers them"
  | Redundant_cmp ->
      "a `cmp` repeating the in-effect cmp's exact operand pair with no \
       intervening flag reader or operand write — the flags are already \
       set (anchors to the second, removable cmp)"
  | Orphan_cmov ->
      "a conditional move with no reaching `cmp`: the flags still hold \
       their cleared initial state, so it can never fire"
  | Uninit_scratch_read ->
      "a read of a scratch register no earlier instruction wrote (the \
       value is the constant 0)"
  | Trailing_code ->
      "a maximal trailing run of instructions that cannot affect the \
       value registers"
  | Semantic_noop ->
      "the abstract interpreter proved the instruction changes no \
       reachable assignment"
  | Not_sorting ->
      "the exact n! check rejected the program: some input permutation \
       comes out unsorted"

let finding rule index message =
  { rule; severity = severity_of_rule rule; index; message }

(* Findings sort by anchor: whole-program findings first, then by
   instruction index, warnings after errors at the same index; equal
   (index, severity) pairs tie-break on the rule id so reports are byte
   stable however the checks happened to run. *)
let sort fs =
  List.stable_sort
    (fun a b ->
      match compare a.index b.index with
      | 0 -> (
          match compare a.severity b.severity with
          | 0 -> compare (rule_id a.rule) (rule_id b.rule)
          | c -> c)
      | c -> c)
    fs

let check cfg p =
  let df = Dataflow.analyze cfg p in
  let len = Array.length p in
  let fs = ref [] in
  let add rule i message = fs := finding rule (Some i) message :: !fs in
  for i = 0 to len - 1 do
    let x = p.(i) in
    let str = Isa.Instr.to_string cfg x in
    let open Isa.Instr in
    (match writes x with
    | Some d when not (Dataflow.reg_live_after df i d) ->
        add Dead_write i
          (Printf.sprintf
             "'%s' writes %s, which is never read before being overwritten \
              or falling off the end"
             str (Isa.Config.reg_name cfg d))
    | _ -> ());
    (match x.op with
    | Cmp when not (Dataflow.lt_live_after df i || Dataflow.gt_live_after df i)
      ->
        add Dead_cmp i
          (Printf.sprintf
             "'%s' sets flags that are never consumed before being clobbered \
              or falling off the end"
             str)
    | (Cmovl | Cmovg) when Dataflow.reaching_cmp df i = None ->
        add Orphan_cmov i
          (Printf.sprintf
             "'%s' has no reaching cmp: the flags still hold their initial \
              cleared state, so the move can never fire"
             str)
    | _ -> ());
    List.iter
      (fun r ->
        if
          (not (Isa.Config.is_value_reg cfg r))
          && not (Dataflow.reg_written_before df i r)
        then
          add Uninit_scratch_read i
            (Printf.sprintf "'%s' reads %s, which was never written: its \
                             value is the constant 0" str
               (Isa.Config.reg_name cfg r)))
      (reads x)
  done;
  (* redundant-cmp: a cmp re-comparing the exact operand pair of the cmp
     whose flags are still in effect, with nothing in between reading the
     flags or writing either operand — the flags it computes are already
     set. Tracked separately from the dataflow facts above because the
     witness is a *pair* of cmps, not a single dead instruction. *)
  let last_cmp = ref None in
  for i = 0 to len - 1 do
    let x = p.(i) in
    let open Isa.Instr in
    match x.op with
    | Cmp ->
        (match !last_cmp with
        | Some (j, a, b) when a = x.dst && b = x.src ->
            add Redundant_cmp i
              (Printf.sprintf
                 "'%s' repeats the cmp at %d on an unchanged operand pair: \
                  the flags are already set"
                 (Isa.Instr.to_string cfg x) j)
        | _ -> ());
        last_cmp := Some (i, x.dst, x.src)
    | Cmovl | Cmovg ->
        (* A flag reader between the two cmps breaks the back-to-back
           pattern (and its conditional write may change an operand). *)
        last_cmp := None
    | Mov -> (
        match !last_cmp with
        | Some (_, a, b) when x.dst = a || x.dst = b -> last_cmp := None
        | _ -> ())
  done;
  let rec suffix_start k =
    if k > 0 && not (Dataflow.is_effective df (k - 1)) then suffix_start (k - 1)
    else k
  in
  let s = suffix_start len in
  if s < len then
    fs :=
      finding Trailing_code (Some s)
        (Printf.sprintf
           "the last %d instruction(s) cannot affect the value registers"
           (len - s))
      :: !fs;
  sort (List.rev !fs)

let check_all cfg p =
  let base = check cfg p in
  let error_at i =
    List.exists (fun f -> f.severity = Error && f.index = Some i) base
  in
  let sem =
    Absint.semantic_noops cfg p
    |> List.filter (fun i -> not (error_at i))
    |> List.map (fun i ->
           finding Semantic_noop (Some i)
             (Printf.sprintf
                "'%s' changes no reachable assignment across all inputs: a \
                 guaranteed no-op"
                (Isa.Instr.to_string cfg p.(i))))
  in
  let cert =
    match Machine.Exec.certify cfg p with
    | Ok () -> []
    | Error m -> [ finding Not_sorting None m ]
  in
  sort (base @ sem @ cert)

let errors fs = List.filter (fun f -> f.severity = Error) fs

let summary fs =
  let e = List.length (errors fs) in
  let w = List.length fs - e in
  Printf.sprintf "%d finding%s (%d error%s, %d warning%s)" (List.length fs)
    (if List.length fs = 1 then "" else "s")
    e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let report_json ?file ?lines fs =
  let open Json in
  let opt_int = function Some i -> Int i | None -> Null in
  let finding f =
    let line =
      match (f.index, lines) with
      | Some i, Some ls when i < Array.length ls -> Some ls.(i)
      | _ -> None
    in
    Obj
      [
        ("rule", Str (rule_id f.rule));
        ("severity", Str (severity_to_string f.severity));
        ("index", opt_int f.index);
        ("line", opt_int line);
        ("message", Str f.message);
      ]
  in
  let errs = List.length (errors fs) in
  Obj
    ((match file with Some f -> [ ("file", Str f) ] | None -> [])
    @ [
        ("findings", Arr (List.map finding fs));
        ("errors", Int errs);
        ("warnings", Int (List.length fs - errs));
      ])
