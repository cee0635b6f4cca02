(** Top-level driver: rewrite a program-query pair with one of the
    paper's four strategies, and run any evaluation method (bottom-up on
    the original program, bottom-up on a rewritten program, or top-down)
    under a common interface with uniform statistics — the interface the
    examples, CLI and bench harness use. *)

open Datalog

type rewriting = GMS | GSMS | GC | GSC

type options = {
  sip : Sip.strategy;  (** default {!Sip.full_left_to_right} *)
  simplify : bool;  (** apply the paper's per-strategy simplifications *)
  semijoin : bool;  (** apply Section 8 to the counting strategies *)
}
(** The counting strategies index with the path terms of Section 11
    ({!Indexing.Path}), so they answer at any derivation depth. *)

val default_options : options

val rewriting_of_string : string -> rewriting option
val rewriting_to_string : rewriting -> string

val rewrite : ?options:options -> rewriting -> Program.t -> Atom.t -> Rewritten.t
(** Adorn (Section 3) then rewrite. *)

type method_ =
  | Original of [ `Naive | `Seminaive ]
      (** bottom-up on the original program (the paper's baseline) *)
  | Rewritten_bottom_up of rewriting * options
  | Top_down of [ `SLD | `Tabled ]

type status =
  | Ok
  | Diverged  (** an evaluation budget was exhausted *)
  | Unsafe of string
      (** the evaluation derived a non-ground head or reached an unbound
          builtin: the method is unsafe for this program *)
  | Inapplicable of string
      (** the counting rewrite cannot index this program
          ({!Counting.Inapplicable}) *)

val status_name : status -> string
(** ["ok"], ["diverged"], ["unsafe"] or ["inapplicable"]. *)

type result = {
  answers : Engine.Tuple.t list;  (** full argument tuples of the query *)
  stats : Engine.Stats.t;
  status : status;
}

val run :
  ?max_facts:int ->
  ?max_iterations:int ->
  method_ ->
  Program.t ->
  Atom.t ->
  edb:Engine.Database.t ->
  result
(** Answer [query] over [program] and [edb] with one method.  Unsafe
    rewrites report [Unsafe], counting rewrites that do not apply report
    [Inapplicable]; an exhausted [max_facts]/[max_iterations] budget
    reports [Diverged]. *)

val methods : (string * method_) list
(** Named methods for CLIs and benches: naive, seminaive, sld, tabled,
    gms, gsms, gms-chain, gsms-chain, gms-bound, gsms-bound, gc, gsc,
    gc-sj, gsc-sj. *)
