(** Rule compilation: each rule is translated once (per stratum) into
    executable join instances over integer slots, and every instance runs
    in one executor.

    Which argument positions are ground when evaluation reaches a literal
    is determined by which variables the join prefix has already bound,
    so compilation decides it once:

    - every variable gets an {e env slot}, numbered in binding order; the
      substitution is a [Value.t array], so a probe allocates no map and
      compares interned ids, never term trees;
    - a static binding {e pattern} per relation literal (the adorned view
      of the rule, computed as Section 3 of Beeri & Ramakrishnan computes
      adornments, but at the engine level), with one {e key} expression
      per bound position: a pre-interned constant, a slot, or a compound
      or arithmetic expression built at probe time — the index arithmetic
      [K * m + i] of the counting rewritings and the nested terms of their
      path encoding;
    - the residual {e free} positions, matched against retrieved tuples:
      a slot write, an equality check, or a pattern that destructures
      compound values ({!Value.view}) and inverts [x + c] and [x * c] for
      the counting rules the semijoin optimization leaves unguarded;
    - a literal with no free position is a membership test, not an index
      enumeration;
    - builtins and negations are filters, run at the first step where
      they are ready (Pass_safety's binding model); a filter that never
      becomes ready raises {!Solve.Unsafe} when reached;
    - one {e instance} per semi-naive delta position (body positions
      reading predicates that grow in the current stratum), with the
      delta literal moved to the front of the join and the remaining
      literals ordered greedily by boundness, so a round's work is
      proportional to the delta rather than to whichever relation the
      rule happens to mention first;
    - a head emitter producing ground tuples directly.

    The base instance keeps the rule's relation literals in written order,
    so it probes what a left-to-right solve with the symbolic {!Solve}
    engine probes; delta instances compute the same solution set (joins
    commute; views are attached to body positions, not execution
    order).  The equivalence is locked by the cross-engine property tests
    against {!Eval.seminaive_reference}. *)

open Datalog

type expr =
  | Const of Value.t  (** interned constant (no arithmetic) *)
  | Slot of int  (** env slot, bound earlier in the join *)
  | App of string * expr array  (** compound value, built with {!Value.app} *)
  | Add of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
      (** integer arithmetic with {!Datalog.Term.eval}'s overflow check *)

type pat =
  | Pbind of int  (** first occurrence of a variable: write its slot *)
  | Pis of expr  (** a ground subterm: the value must equal it *)
  | Papp of string * pat array  (** destructure a compound value *)
  | Padd of pat * expr  (** [p + c] against an integer: match [p] with [v - c] *)
  | Pmul of pat * expr
      (** [p * c] against an integer: match [p] with [v / c] when [c]
          divides [v] *)
  | Pnever  (** arithmetic that cannot be inverted: matches nothing *)

type action =
  | Bind of int * int  (** tuple position [pos] binds env slot [slot] *)
  | Check of int * int
      (** repeated variable within one literal: tuple position must equal
          the slot bound by its first occurrence *)
  | Match of int * pat  (** tuple position matched against a pattern *)

type scan = {
  lit : int;  (** original body position: the run's views at [lit] are read *)
  pattern : bool array;  (** static binding pattern over argument positions *)
  key : expr array;  (** one expression per bound position, in order *)
  free : action array;  (** residual positions to match, in order *)
  all_bound : bool;  (** no free position: use a membership test *)
}

type op = Eq | Ne | Lt | Le | Gt | Ge

type stuck_kind =
  | Unready_builtin
  | Unready_negation
  | Unbound_head  (** a head variable the body never binds *)

type stuck = {
  kind : stuck_kind;
  atom : Atom.t;
  known : (string * int) list;  (** the slots bound where it is reached *)
}
(** A literal that cannot be evaluated: reaching it raises {!Solve.Unsafe},
    whose message shows [atom] instantiated from [known]. *)

type step =
  | Scan of scan  (** positive relation literal *)
  | Neg_scan of { lit : int; key : expr array }
      (** negated relation literal at original body position [lit]: a
          membership test on the fully bound key *)
  | Unify of expr * pat
      (** [=]: evaluate the bound side, match the other side (no
          arithmetic inversion: [=] unifies) *)
  | Test of { op : op; l : expr; r : expr; negated : bool }
      (** comparison, or negated builtin: [Value.compare_structural]
          order, [Value.equal] for [=] and [<>] *)
  | Stuck of stuck  (** a filter that never becomes ready *)

type emit =
  | Direct of Symbol.t * expr array
      (** every head variable is bound by the body *)
  | Dynamic of stuck  (** raises {!Solve.Unsafe} whenever the rule fires *)

type instance = { steps : step array; head : emit; nvars : int; zero : Value.t }
(** One executable join order for the rule.  Steps carry original body
    positions, so the same views array works for every instance.  [nvars]
    is the env size; [zero] a pre-interned filler for scratch arrays.
    Executing an instance only reads it: all scratch, the head buffer
    included, is allocated per {!run}, so the same instance can run
    nested (re-entrant [on_fact]). *)

type t = {
  rule : Rule.t;
  base : instance;
      (** relation literals in the rule's own order: used by naive rounds
          and the semi-naive round 0 *)
  delta : (int * instance) list;
      (** per delta position [i], an instance whose join starts at body
          position [i]; used by semi-naive rounds after the first *)
}

val compile : delta_preds:Symbol.Set.t -> Rule.t -> t
(** Compile one rule.  [delta_preds] are the predicates that grow during
    the fixpoint the plan will run in (the head predicates of the
    stratum); they determine which delta instances exist, never the base
    instance. *)

val compile_stratum : Rule.t list -> t list
(** Compile a stratum's rules with [delta_preds] set to the stratum's
    own head predicates. *)

type view = { rel : Relation.t; lo : int; hi : int }
(** A stamp-range view of a stored relation ({!Relation.iter_matching_in}):
    the semi-naive engine reads "old", "delta" and "new" as ranges over
    the single stored relation rather than separate merged copies.  A
    literal reads the union of a list of disjoint views: singletons in
    the ordinary engines, e.g. "post-deletion stamp range + the deleted
    set" for maintenance's pre-update state.  [[]] means the predicate
    has no relation: the step does no index work and counts no probe,
    matching {!Solve}. *)

val full : Relation.t -> view
(** The whole relation, including tuples added later. *)

val stored : Database.t -> Symbol.t -> view list
(** The predicate's whole stored relation, or [[]] when the database has
    none. *)

val views : Rule.t -> (int -> Rule.literal -> Symbol.t -> view list) -> view list array
(** The views array of one run of the rule's instances: [f i lit sym]
    at the body position [i] of a relation literal [lit] over [sym],
    positive or negated, and [[]] at a builtin. *)

val run :
  ?stats:Stats.t ->
  views:view list array ->
  on_fact:(Symbol.t -> Tuple.t -> unit) ->
  instance ->
  unit
(** Execute one instance: enumerate all body solutions by nested index
    scans and call [on_fact] with the ground head tuple of each.  The
    literal at body position [i], positive or negated, reads
    [views.(i)], resolved once by the caller, so a probe asks for
    nothing; negated literals must read complete relations (guaranteed
    by stratification).  A relation absent when the views are resolved
    stays unread for the run: the only one a run can create is its own
    head's, and a body that reads that predicate found it absent and
    never fires.

    The head tuple is {e borrowed}: it is one buffer per run, refilled
    for every firing, and valid only during the call.  A consumer that
    keeps it copies it ({!Relation.add_borrowed} copies only a new
    fact), so a firing allocates nothing of its own.
    @raise Datalog.Term.Arithmetic_overflow where {!Datalog.Term.eval}
    would.
    @raise Solve.Unsafe on reaching a {!stuck} literal or head. *)
