(* Thin blocking client for the synthesis daemon.

   Every failure — no socket, refused connection, torn response, JSON
   that does not parse — comes back as Error with a human-readable
   message; the CLI maps all of them to exit code 5 (server unreachable
   or protocol error). *)

type connection = { ic : in_channel; oc : out_channel }

(* A server that sheds the connection (overload) closes its end as soon
   as the typed response is written — possibly while we are still
   flushing the request. That write must surface as EPIPE/Sys_error,
   not kill the process with SIGPIPE. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let connect ~socket =
  Lazy.force ignore_sigpipe;
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot create socket: %s" (Unix.error_message e))
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> Ok { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e)))

(* Close once: both channels share the descriptor, and closing the
   second would re-close the same fd number — which, in a threaded
   process that has meanwhile reused it (the in-process test harness
   runs client and server threads side by side), closes somebody else's
   descriptor. *)
let close c = close_out_noerr c.oc

let request c req =
  let receive () =
    match input_line c.ic with
    | exception End_of_file ->
        Error "connection closed mid-response (torn or server gone)"
    | exception Sys_error msg -> Error (Printf.sprintf "receive failed: %s" msg)
    | line -> (
        match Protocol.parse_response line with
        | Ok resp -> Ok resp
        | Error msg -> Error (Printf.sprintf "protocol error: %s" msg))
  in
  match
    output_string c.oc (Protocol.request_line req);
    flush c.oc
  with
  | () -> receive ()
  | exception Sys_error msg -> (
      (* A shed connection: the server may have written its typed answer
         and closed before our request went out. That answer is still in
         our socket buffer; it beats reporting the send error. *)
      match receive () with
      | Ok _ as answer -> answer
      | Error _ -> Error (Printf.sprintf "send failed: %s" msg))

let roundtrip ~socket req =
  match connect ~socket with
  | Error _ as e -> e
  | Ok c ->
      Fun.protect ~finally:(fun () -> close c) (fun () -> request c req)
