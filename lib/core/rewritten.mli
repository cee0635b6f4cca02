(** Common result type of the four rewriting algorithms, with provenance
    metadata tying every generated rule and body literal back to the
    adorned rule and sip arc it came from.  The metadata is what the
    semijoin optimization (Section 8) and the test suite consume; it
    avoids any parsing of generated names. *)

open Datalog

type lit_origin =
  | Guard  (** magic/cnt guard for the rule's head *)
  | Sup_lit of int
      (** supplementary (sup/supcnt) literal for prefix position [j]: it
          stands for the join of the head guard and body literals
          [1..j-1] (1-based), which the semijoin analysis must know *)
  | Tail_copy of Sip.node  (** copy of a sip-arc tail literal *)
  | Tail_magic of Sip.node  (** magic/cnt literal added for a derived tail member *)
  | Body_copy of int  (** copy of the adorned rule's body literal at that index *)

type rule_kind =
  | Modified of int  (** from the adorned rule at that index (in {!Adorn.t}[.rules]) *)
  | Magic_def of { adorned_index : int; target : int }
      (** magic/cnt rule generated from the sip arc(s) into body literal
          [target] of that adorned rule *)
  | Sup_def of { adorned_index : int; position : int }
      (** supplementary rule number [position] of that adorned rule *)
  | Label_def of { adorned_index : int; target : int; arc : int }
      (** per-arc label rule (several sip arcs into one occurrence) *)

type rule_meta = { kind : rule_kind; origins : lit_origin list }

type t = {
  program : Program.t;
  meta : rule_meta list;  (** one entry per program rule, same order *)
  seeds : Atom.t list;  (** seed facts derived from the query *)
  query : Atom.t;  (** the query over the rewritten program's predicates *)
  naming : Naming.t;
  adorned : Adorn.t;  (** the adorned program this was produced from *)
  index_fields : int;  (** 0, or 3 for the counting methods *)
  restore : (int * Datalog.Term.t) list;
      (** argument positions (after index stripping) and constants to
          re-insert into answer tuples; used when the semijoin
          optimization has dropped the query predicate's bound arguments *)
}

val project :
  index_fields:int -> restore:(int * Term.t) list -> Term.t list -> Term.t list
(** The answer projection: drop the first [index_fields] arguments, then
    re-insert each [restore] constant at its position.  {!answers},
    {!strip_indices} and the serving layer's snapshot reads all use it. *)

val run :
  ?engine:[ `Naive | `Seminaive | `Seminaive_reference ] ->
  ?max_iterations:int ->
  ?max_facts:int ->
  t ->
  edb:Engine.Database.t ->
  Engine.Eval.outcome
(** Evaluate the rewritten program bottom-up: the seeds are added to a
    copy of the EDB and the program is run to fixpoint (default
    semi-naive; [`Seminaive_reference] is the uncompiled seed engine,
    kept for differential testing and before/after benchmarks). *)

val answers : t -> Engine.Eval.outcome -> Engine.Tuple.t list
(** Answer tuples for the query: facts of the query's (indexed) predicate
    matching the query's constants, with index fields projected out and
    duplicates removed, sorted. *)

val pp : t Fmt.t
