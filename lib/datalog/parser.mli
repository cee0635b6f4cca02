(** Recursive-descent parser for the Datalog concrete syntax.

    Grammar (comments start with [%]):
    {v
      program  ::= { clause } EOF
      clause   ::= rule | query
      query    ::= "?-" atom "."
      rule     ::= atom [ ":-" literal { "," literal } ] "."
      literal  ::= "not" atom | atom | term relop term
      atom     ::= ident [ "(" term { "," term } ")" ]
      term     ::= product { "+" product }
      product  ::= primary { ( "*" | "/" ) primary }
      primary  ::= variable | integer | ident [ "(" terms ")" ]
                 | "[" "]" | "[" terms [ "|" term ] "]" | "(" term ")"
      relop    ::= "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
    v}

    The tokens [_] and [?] denote anonymous variables; every occurrence is
    given a distinct fresh name.

    Every entry point drives one {!Lexer.t} cursor, pulling a token at a
    time: there is one parse path for programs, single terms, atoms and
    rules (script lines and daemon requests go through {!parse_atom}).
    Spans are built from the cursor's positions: a clause's span runs
    from the start of its first token to the end of its last.  When the
    input has both a syntax error and a lexical error, the lexical error
    is reported, wherever it is. *)

exception Error of string
(** Raised by the unlocated entry points; the message carries the failure's
    line and column ("L:C: ...") when it has a source position. *)

type error = { message : string; span : Loc.t }
(** A located syntax error, as returned by {!parse_program_spanned}. *)

type clause_spans = {
  clause_span : Loc.t;  (** the whole clause, head through final dot *)
  head_span : Loc.t;
  literal_spans : Loc.t list;  (** one span per body literal, in order *)
}

type source_map = {
  clauses : clause_spans array;
      (** index-aligned with the rules of the parsed program (including
          facts, before {!split_facts}) *)
  query_span : Loc.t option;
}

val empty_map : source_map

val rule_spans : source_map -> int -> clause_spans option
(** Spans of the i-th clause of the parsed program, if known; O(1). *)

val parse_term : string -> Term.t
val parse_atom : string -> Atom.t
val parse_rule : string -> Rule.t

val parse_program : string -> Program.t * Atom.t option
(** Parse a whole source text; the optional atom is the last [?-] query.
    Facts (rules with empty bodies) are kept in the program — use
    {!split_facts} to separate them into an extensional database. *)

val parse_program_spanned :
  string -> (Program.t * Atom.t option * source_map, error) result
(** Like {!parse_program}, but returns the clause-level source spans and
    reports syntax (and lexical) errors as located values instead of
    raising. *)

val split_facts : Program.t -> Program.t * Atom.t list
(** Separate extensional facts from proper rules: a ground fact is
    extensional unless its predicate also heads a proper rule. *)

val rule_heads : Rule.t list -> Symbol.Set.t
(** The predicates that head some proper (non-fact) rule. *)

val is_extensional : Symbol.Set.t -> Rule.t -> bool
(** [is_extensional (rule_heads rules) r]: does {!split_facts} move [r]
    into the extensional database? *)
