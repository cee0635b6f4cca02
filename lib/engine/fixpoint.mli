(** The semi-naive round loop, shared by {!Eval.seminaive} and the
    insertion fixpoint of a recursive unit in [Incr.Maintain].

    A fixpoint grows the relations of some predicates (a stratum, or a
    dependency unit) in place.  Two watermarks split each one's
    insertion log into old [\[0, o)] (facts up to the round before
    last), delta [\[o, d)] (the last round's) and new [\[0, d)].  Facts
    derived in a round land beyond [d], invisible to the round's own
    views; rotating ([o := d; d := size]) ends the round, so there is
    nothing to merge and an abort leaves nothing to repair.

    Evaluation from scratch seeds with {!base_round}; maintenance runs a
    seed round of its own.  {!run} ends it and loops to the fixpoint. *)

open Datalog

type t

val create : Database.t -> Symbol.t list -> t
(** Watermarks for the given predicates at their relations' current
    sizes (creating absent relations): what is stored is the seed
    round's input, and what lands beyond it before {!run} the first
    delta. *)

val base_round :
  ?stats:Stats.t -> t -> Plan.t list -> record:(Plan.t -> Symbol.t -> Tuple.t -> unit) -> unit
(** Round 0: each plan's base instance, grown predicates read below the
    watermark and every other literal the whole database (the EDB, lower
    strata and seed facts play the delta).  [record] is as for {!run}. *)

val run :
  ?stats:Stats.t ->
  t ->
  Plan.t list ->
  record:(Plan.t -> Symbol.t -> Tuple.t -> unit) ->
  round:(unit -> bool) ->
  unit
(** Delta rounds until no grown predicate has a delta, or until
    [round ()], asked at the start of each, says [false].  A round runs
    each plan's instance for every delta position over a grown predicate
    with a non-empty delta: grown predicates read old before that
    position, delta at it and new after it, so each instantiation is
    enumerated once; every other literal, positive or negated, reads
    the full database.  [record plan] is applied once per plan, before
    the first round, and receives the head tuples that plan derives. *)
