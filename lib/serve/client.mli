(** Blocking client for the synthesis daemon's socket.

    Everything that can go wrong on the wire — no socket file, refused
    connection, a response cut off mid-line (the [serve.torn_connection]
    site), unparsable JSON — is an [Error] with a printable message. The
    CLI maps every such error to exit code 5: the request may or may not
    have executed server-side, but this client cannot say. *)

type connection

val connect : socket:string -> (connection, string) result

val request : connection -> Protocol.request -> (Protocol.response, string) result
(** Send one request line, block for one response line. The connection
    stays usable for further requests on success. When the send fails
    (a server over its connection budget answers and hangs up before the
    request goes out), the response already waiting on the socket is
    still read and returned; the send error is reported only when there
    is none. *)

val close : connection -> unit

val roundtrip : socket:string -> Protocol.request -> (Protocol.response, string) result
(** Connect, send one request, read the response, close. *)
