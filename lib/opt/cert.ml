type t = { pass : string; before : Isa.Program.t; after : Isa.Program.t }

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let discharge cfg { pass; before; after } =
  match Machine.Exec.equiv cfg before after with
  | Machine.Exec.Differs { input; out_a; out_b } ->
      Error
        (Printf.sprintf
           "pass %s is not behavior-preserving: on input [%s] the rewrite \
            produces [%s] where the original produces [%s]"
           pass (ints input) (ints out_b) (ints out_a))
  | Machine.Exec.Equivalent ->
      (* Independent second proof: when the input certifies, the output
         must re-certify. Equivalence already implies it semantically;
         running the certifier anyway means a bug in either check is
         caught by the other. *)
      if
        Result.is_ok (Machine.Exec.certify cfg before)
        && Result.is_error (Machine.Exec.certify cfg after)
      then
        Error
          (Printf.sprintf
             "pass %s: the rewrite no longer certifies as a sorting \
              kernel although the input did"
             pass)
      else Ok ()
