(** Blocking protocol client, used by [magic client] and the tests. *)

type t

val connect : ?retries:int -> Unix.sockaddr -> t
(** Connect to a daemon.  [retries] (default 50) spaced 20ms apart
    cover the race against a daemon still binding its socket.
    @raise Unix.Unix_error when the daemon never comes up. *)

val unix : ?retries:int -> string -> t
val tcp : ?retries:int -> int -> t
(** Convenience wrappers: Unix-domain path / TCP port on localhost. *)

val request : t -> Protocol.request -> Protocol.response
(** Send one request line and block for its response line.
    @raise Failure on a closed connection or an unparseable reply. *)

val close : t -> unit
