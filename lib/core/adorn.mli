(** Construction of the adorned rule set (Section 3 of the paper).

    Starting from the query's binding pattern, every reachable
    (predicate, adornment) pair is processed once: for each rule defining
    the predicate, a sip matching the head adornment is chosen and used to
    adorn the body's derived literals; new adorned predicates are added to
    the worklist.  Theorem 3.1: the adorned program is equivalent to the
    original program for the query. *)

open Datalog

type adorned_rule = {
  source_index : int;  (** index of the original rule in the program *)
  head_pred : string;  (** original head predicate name *)
  head_adornment : Adornment.t;
  sip : Sip.t;  (** the sip chosen for this adorned version *)
  rule : Rule.t;  (** the rule with derived predicates renamed to their
                      adorned versions; body literals are reordered into
                      sip order (condition (3')), and the sip's indices
                      refer to this reordered body *)
  body_adornments : Adornment.t option array;
      (** per body literal: [Some a] for derived predicates, [None] for
          base predicates, builtins and negated literals *)
}

type t = {
  program : Program.t;  (** all adorned rules, in generation order *)
  rules : adorned_rule list;
  query : Atom.t;  (** the query over its adorned predicate *)
  query_pred : string * Adornment.t;  (** original query predicate and adornment *)
  naming : Naming.t;
  source_derived : Symbol.Set.t;  (** derived predicates of the source program *)
}

val adorn : ?strategy:Sip.strategy -> Program.t -> Atom.t -> t
(** [adorn program query] builds the adorned rule set; [strategy] defaults
    to {!Sip.full_left_to_right}.
    @raise Invalid_argument if the query predicate or program is malformed. *)

val pp : t Fmt.t
