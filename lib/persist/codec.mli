(** Binary encoding primitives shared by the snapshot and WAL formats:
    little-endian fixed-width integers, length-prefixed strings, and a
    cursor-style reader whose every failure is a located {!Corrupt} —
    file, section, byte offset, message — so a refused load always says
    where the bytes went wrong. *)

exception
  Corrupt of {
    file : string;  (** path of the offending file *)
    section : string;  (** section tag or logical region *)
    offset : int;  (** byte offset into the file *)
    message : string;
  }

val corrupt : file:string -> section:string -> offset:int -> string -> 'a
(** Raise {!Corrupt}. *)

val explain : exn -> string option
(** [Some "<file>: <section> at byte <offset>: <message>"] for a
    {!Corrupt}; [None] otherwise. *)

(** {1 Writing} — into a {!Buffer.t} *)

val u8 : Buffer.t -> int -> unit
val u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 2^32). *)

val i64 : Buffer.t -> int -> unit
val str : Buffer.t -> string -> unit
(** Length-prefixed ([u32]) bytes. *)

(** {1 Reading} *)

type reader
(** A cursor over a window of an in-memory file image, read in place.
    Indexes into the image are file offsets, so every {!Corrupt} locates
    its failure in the file. *)

val reader : file:string -> section:string -> off:int -> len:int -> string -> reader
(** [reader ~file ~section ~off ~len image] reads
    [image.[off .. off + len - 1]] without copying it.  Reading past the
    window is a truncation {!Corrupt}.
    @raise Invalid_argument if the window does not fit [image]. *)

val pos : reader -> int
(** Absolute file offset of the cursor. *)

val ru8 : reader -> int
val ru32 : reader -> int
val ri64 : reader -> int
val rstr : reader -> string

val rbytes : reader -> Bytes.t
(** {!rstr} into a fresh [Bytes.t], copied once. *)

val expect_end : reader -> unit
(** @raise Corrupt if bytes remain in the window — trailing garbage is
    corruption. *)
