(** Source locations: 1-based line/column positions and character spans.

    The lexer gives every token a span and the parser joins them into
    clause-level spans, so that diagnostics can point into the original
    source text with caret-style excerpts instead of reporting a bare
    byte offset. *)

type pos = { line : int; col : int; offset : int }
(** 1-based line and column; 0-based character offset. *)

type t = { start : pos; stop : pos }
(** A half-open span [start, stop) in a source text. *)

val dummy : t
(** The span of synthesized syntax with no source location. *)

val is_dummy : t -> bool

val span : pos -> pos -> t

val of_offset : string -> int -> pos
(** Recover a line/column position from a character offset into the given
    source text.  Linear in the offset: the lexer never needs it, since
    it tracks lines as it scans. *)

val line_at : string -> int -> string
(** The full text of the given 1-based line, without its newline. *)

val pp : t Fmt.t
