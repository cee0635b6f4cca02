(** Bottom-up fixpoint evaluation: naive and semi-naive, stratified.

    Both evaluators implement the least-fixpoint semantics the paper takes
    as its baseline (Section 1.1): starting from the extensional database,
    derived facts are accumulated in rounds until nothing new is produced.
    Programs with negation are evaluated stratum by stratum.

    Divergent programs (e.g. generalized counting over cyclic data,
    Theorem 10.3) are cut off by optional iteration/fact budgets and
    reported as diverged rather than looping forever. *)

open Datalog

type outcome = {
  db : Database.t;  (** EDB plus all derived facts *)
  stats : Stats.t;
  diverged : bool;  (** true iff a budget was exhausted *)
}

val naive :
  ?max_iterations:int ->
  ?max_facts:int ->
  ?seeds:Atom.t list ->
  Program.t ->
  edb:Database.t ->
  outcome
(** Naive evaluation of [program] over a copy of [edb] plus the ground
    [seeds] (default none; the magic seeds of a rewritten query): every
    rule is re-evaluated against the whole database in every round.
    Rules are compiled to join plans ({!Plan}) once per stratum.  The
    other evaluators take [seeds] alike. *)

val seminaive :
  ?max_iterations:int ->
  ?max_facts:int ->
  ?seeds:Atom.t list ->
  Program.t ->
  edb:Database.t ->
  outcome
(** Semi-naive evaluation: in each round after the first, a rule instance
    must use at least one fact derived in the previous round.  Rules are
    compiled to join plans once per stratum and run on {!Fixpoint}:
    round 0 fires every rule's base instance against the database as-is,
    and the delta rounds' delta/old/new discipline (position [i] reads
    the last round's delta, positions before [i] the database {e before}
    that round, positions after [i] their union) derives each
    instantiation exactly once. *)

val seminaive_reference :
  ?max_iterations:int ->
  ?max_facts:int ->
  ?seeds:Atom.t list ->
  Program.t ->
  edb:Database.t ->
  outcome
(** The seed engine's semi-naive evaluator (uncompiled rules, "delta at
    one position, full database elsewhere"), kept as a differential-
    testing baseline and as the "before" engine for BENCH_engine.json.
    It solves each body through {!Solve}: relation literals in written
    order, and each builtin or negation once it is ready
    ({!Solve.select}), as {!seminaive} runs it.  A filter that never
    becomes ready raises {!Solve.Unsafe}.  It computes the same fact sets
    as {!seminaive}, but may re-derive instantiations that join two
    same-round facts. *)

val answers : outcome -> Atom.t -> Tuple.t list
(** Tuples of the query's predicate matching the query atom's constant
    arguments, sorted. *)
