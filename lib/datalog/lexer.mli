(** Hand-written pull lexer for the Datalog concrete syntax.

    Tokens cover identifiers (lowercase-initial: predicate and constant
    names), variables (uppercase- or [_]-initial), integers, punctuation,
    list brackets, arithmetic operators, comparison operators, the rule
    arrow [:-], the query arrow [?-] and the [not] keyword.  Comments run
    from [%] to end of line.

    A cursor ({!t}) scans the source one token at a time as the parser
    asks for it; no token list is ever built.  It keeps the running line
    number and the offset of the current line's first character, so a
    token's line and column cost two subtractions, and {!Loc.of_offset}
    (linear in the offset) is never needed while lexing. *)

type token =
  | IDENT of string
  | VARIABLE of string
  | INTEGER of int
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | BAR
  | ARROW  (** [:-] *)
  | QUERY  (** [?-] *)
  | NOT
  | PLUS
  | STAR
  | SLASH
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Error of string * Loc.t
(** Lexical error message and source span: an unexpected character, or an
    integer literal too large for [int] (the span covers the literal). *)

type t
(** A cursor over a source text, holding one token of lookahead. *)

val create : string -> t
(** A cursor on the first token of the text.  @raise Error on bad input. *)

val token : t -> token
(** The current (lookahead) token; {!EOF} at the end, for ever. *)

val advance : t -> unit
(** Consume the current token and scan the next.  A no-op at {!EOF}.
    @raise Error on bad input. *)

val start : t -> Loc.pos
(** Where the current token starts. *)

val span : t -> Loc.t
(** The current token's span; a point at the end of input for {!EOF}. *)

val last_stop : t -> Loc.pos
(** Where the most recently consumed token ends.
    @raise Invalid_argument if no token has been consumed. *)

val drain : t -> unit
(** Scan the rest of the input, discarding tokens, so that a lexical error
    anywhere in the text is raised.  The parser calls it before reporting
    a syntax error: a lexical error takes precedence, wherever it is.
    @raise Error on bad input. *)

val pp_token : token Fmt.t
