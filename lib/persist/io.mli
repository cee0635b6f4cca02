(** The persist layer's I/O seam: every byte written to disk goes
    through a {!sink}, so the crash-recovery tests can substitute a sink
    that dies mid-write ({!crash_after}) and exercise exactly the torn
    states a power loss produces — without mocking the filesystem. *)

exception Crash
(** Raised by fault-injecting sinks once their write budget is spent.
    Real sinks never raise it. *)

type sink = {
  write : string -> unit;
  sync : unit -> unit;  (** flush to the OS and [fsync] *)
  close : unit -> unit;  (** idempotent *)
}

val file : ?append:bool -> string -> sink
(** A sink over a regular file, truncated unless [append].  [sync]
    flushes the channel and [fsync]s the descriptor — the durability
    point the WAL's commit protocol relies on. *)

val crash_after : int -> sink -> sink
(** [crash_after n inner] writes through to [inner] until [n] bytes
    have been written, then writes whatever prefix of the current write
    still fits, closes [inner] and raises {!Crash} — a torn write at an
    arbitrary byte boundary.  Subsequent writes also raise {!Crash}. *)

val read_file : string -> string
(** The whole file as a string.  @raise Sys_error if unreadable. *)

val truncate : string -> int -> unit
(** Truncate a file to the given length (dropping a torn WAL tail). *)

val fsync_dir : string -> unit
(** [fsync] a directory, making a rename in it durable.  A filesystem
    that cannot sync directories ([EINVAL]) is tolerated.
    @raise Unix.Unix_error on any other failure to open or sync. *)
