(* The benchmark's correctness checks. Each returns [Error] with a
   printable reason; the oracle is always independent of the code path
   being measured (exact n! execution, the standard library's sort, an
   in-process re-run of the same request). *)

let ( let* ) = Result.bind

(* Exact certification: every permutation of 1..n run on the machine. *)
let kernel cfg p =
  Result.map_error
    (fun e -> "kernel does not sort: " ^ e)
    (Registry.Verify.certify cfg p)

let kernel_text cfg text =
  let* p = Isa.Program.of_string cfg text in
  let* () = kernel cfg p in
  Ok p

(* A search run against its spec: the generated-states fingerprint, the
   kernel length, and the kernel itself. *)
let search (s : Spec.search) (r : Search.result) =
  let generated = r.Search.stats.Search.generated in
  let* () =
    if generated = s.Spec.generated then Ok ()
    else
      Error
        (Printf.sprintf "%s generated %d states, fingerprint is %d" s.Spec.label
           generated s.Spec.generated)
  in
  match (s.Spec.length, r.Search.programs) with
  | None, [] -> Ok ()
  | None, p :: _ ->
      Error
        (Printf.sprintf "%s found a %d-instruction kernel inside its bound"
           s.Spec.label (Isa.Program.length p))
  | Some _, [] -> Error (s.Spec.label ^ " found no kernel")
  | Some l, p :: _ ->
      if Isa.Program.length p <> l then
        Error
          (Printf.sprintf "%s kernel has %d instructions, expected %d"
             s.Spec.label (Isa.Program.length p) l)
      else kernel (Spec.config s) p

let sorted ~expected a =
  if a = expected then Ok ()
  else
    let n = min (Array.length a) (Array.length expected) in
    let rec first i =
      if i >= n || a.(i) <> expected.(i) then i else first (i + 1)
    in
    Error
      (Printf.sprintf "embedded sort output differs from Array.sort at index %d"
         (first 0))

let same_kernel ~expected text =
  if String.equal expected text then Ok ()
  else Error "served kernel differs from the reference bytes"
