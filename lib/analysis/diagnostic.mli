(** Diagnostics: a stable code, a severity, a message, a source span and
    optional related notes.  Rendering is caret-style:

    {v
    examples/bad.dl:3:1: error[E010]: negation through recursion: ...
    3 | win(X) :- move(X, Y), not win(Y).
      |                       ^^^^^^^^^^
      = note: cycle: win -> win
    v} *)

open Datalog

type severity = Error | Warning

type t = {
  code : string;  (** stable, e.g. ["E001"]; see {!Analysis.codes} *)
  severity : severity;
  message : string;
  span : Loc.t;  (** {!Datalog.Loc.dummy} when the diagnostic has no source *)
  notes : (string * Loc.t) list;
}

val error : ?span:Loc.t -> ?notes:(string * Loc.t) list -> code:string -> string -> t
val warning : ?span:Loc.t -> ?notes:(string * Loc.t) list -> code:string -> string -> t

val add_note : ?span:Loc.t -> string -> t -> t

val is_error : t -> bool
val errors : t list -> t list
val has_errors : t list -> bool
val count : severity -> t list -> int
val severity_string : severity -> string

val compare : t -> t -> int
(** Source position, then code, then message; unlocated diagnostics sort
    last. *)

val sort : t list -> t list

val render : ?src:string -> ?file:string -> Format.formatter -> t -> unit
(** Full rendering; with [src] the source line is excerpted with a caret
    underline, with [file] locations are prefixed by the file name. *)

val pp : t Fmt.t
(** {!render} without source or file. *)

val summary : t list Fmt.t
(** ["2 errors, 1 warning"] or ["no diagnostics"]. *)
