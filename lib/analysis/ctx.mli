(** Shared input of the analysis passes: the program as parsed (facts still
    inline, so rule indices align with the parser's source map), the query,
    and the span side-table.  All span accessors degrade to {!Datalog.Loc.dummy}
    when no source map is available, so passes work on programs built
    programmatically too. *)

open Datalog

type t = {
  program : Program.t;
  query : Atom.t option;
  srcmap : Parser.source_map;
}

val make : ?srcmap:Parser.source_map -> ?query:Atom.t -> Program.t -> t

val concat_rules : t -> (int -> Rule.t -> Diagnostic.t list) -> Diagnostic.t list
(** [f i r] over the program's rules and non-ground facts, with [i] the
    clause index, concatenated in program order.  Ground facts are
    skipped without allocating: the passes that use this (safety,
    singletons, dead rules) have nothing to say about a fact without
    variables. *)

val rule_span : t -> int -> Loc.t
val head_span : t -> int -> Loc.t

val lit_span : t -> int -> int -> Loc.t
(** Span of body literal [j] of rule [i]; falls back to the rule's span. *)

val query_span : t -> Loc.t
