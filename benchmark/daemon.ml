(* A `synth serve` daemon started the way users start it: the real
   bin/synth.exe in its own process, talking over its Unix socket. Every
   daemon started here, and every short-lived [helper] process, is
   stopped and reaped before the benchmark exits, including on an
   exception. *)

module P = Serve.Protocol

type t = { pid : int; socket : string }

(* main.exe is built next to bin/synth.exe (dune's link_deps keeps the
   two in step): _build/default/{benchmark,bin}. *)
let synth_exe () =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.dirname dir) "bin") "synth.exe"

let live : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = List.iter kill !live
let () = at_exit kill_all

(* Run this executable again with [args], to its end, and return its
   standard output with the seconds from spawn to exit. Like a daemon, it
   is killed if the benchmark exits first. *)
let helper args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Mono.now () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  live := pid :: !live;
  let ic = Unix.in_channel_of_descr rd in
  let out = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let dt = Mono.now () -. t0 in
  live := List.filter (( <> ) pid) !live;
  match status with
  | Unix.WEXITED 0 -> (out, dt)
  | _ -> failwith (Printf.sprintf "%s %s failed" exe (String.concat " " args))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error _) ->
      live := List.filter (( <> ) pid) !live;
      true

(* The daemon must not pick up a fault plan or registry root from the
   caller's environment: the flags below are the whole configuration. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"SORTSYNTH_" kv))
       (Array.to_list (Unix.environment ())))

let roundtrip t req = Serve.Client.roundtrip ~socket:t.socket req

(* Spawn [synth serve] on [root], listening on [socket] (a path relative
   to the working directory, so it stays under the 108-byte sun_path
   limit wherever the checkout lives), and wait until a [stats] request
   succeeds. Returns the daemon and the seconds from spawn to that first
   answer: process start, crash recovery, warm-set restore, bind. *)
let start ?(args = []) ~root ~socket () =
  let synth = synth_exe () in
  if not (Sys.file_exists synth) then
    failwith (Printf.sprintf "%s not found: build it with `dune build`" synth);
  let log =
    Unix.openfile (socket ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    Array.of_list
      ([ synth; "serve"; "--socket"; socket; "--cache-dir"; root ] @ args)
  in
  let t0 = Mono.now () in
  let pid = Unix.create_process_env synth argv (clean_env ()) Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  let t = { pid; socket } in
  let rec poll () =
    match roundtrip t P.Stats with
    | Ok (P.Snapshot _) -> Mono.now () -. t0
    | _ when exited pid ->
        failwith (Printf.sprintf "synth serve exited early; see %s.log" socket)
    | _ when Mono.now () -. t0 > 60. ->
        kill pid;
        failwith "synth serve not ready after 60 s"
    | _ ->
        (* Short: the start-up being timed takes a few milliseconds. *)
        Unix.sleepf 0.0002;
        poll ()
  in
  let ready = poll () in
  (t, ready)

let stats t =
  match roundtrip t P.Stats with
  | Ok (P.Snapshot j) -> j
  | Ok _ -> failwith "stats: unexpected response"
  | Error e -> failwith ("stats: " ^ e)

(* An integer counter from a stats snapshot, by path. *)
let counter j path =
  let rec go j = function
    | [] -> ( match Registry.Json.to_int j with Ok i -> i | Error _ -> 0)
    | k :: rest -> (
        match Registry.Json.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let daemon_rss_mb t = peak_rss_mb (string_of_int t.pid)

(* Ask the daemon to shut down (it drains and writes its warm set), then
   reap it; a daemon still alive after 30 s is killed. *)
let stop t =
  (match roundtrip t P.Shutdown with
  | Ok P.Goodbye -> ()
  | _ -> (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = Mono.now () +. 30. in
  let rec wait () =
    if exited t.pid then ()
    else if Mono.now () > deadline then kill t.pid
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()
