(** Rule compilation: each rule is translated once (per stratum) into an
    executable join plan, so that the per-probe work of the bottom-up
    engines is a pure index lookup.

    The seed engine re-derived each literal's binding pattern on every
    probe: it instantiated all arguments under the current substitution,
    scanned them with [Term.is_ground] to build a boolean pattern, and
    converted lists to arrays for the index key.  All of that is static —
    which argument positions are ground when evaluation reaches a literal
    is determined by which variables the body prefix has already bound.
    Compilation computes it once:

    - a static binding {e pattern} per positive body literal (the adorned
      view of the rule, computed exactly as Section 3 of Beeri &
      Ramakrishnan computes adornments, but at the engine level);
    - precomputed {e key slots}: for each bound position, whether the
      value is a compile-time constant, a direct variable read, or an
      arithmetic expression that must be evaluated at probe time (the
      resolved arithmetic-evaluation points of the counting rewritings);
    - the residual {e free} positions that must be matched against
      retrieved tuples;
    - a fully-bound fast path: a literal with no free position is a
      membership test ([Relation.mem]), not an index enumeration;
    - one {e instance} per semi-naive delta position (body positions
      reading predicates that grow in the current stratum), with the
      delta literal moved to the front of the join and the remaining
      literals ordered greedily by boundness, so a round's work is
      proportional to the delta rather than to whichever relation the
      rule happens to mention first;
    - a precompiled head emitter producing ground tuples directly when
      the head is statically safe.

    Executing the base instance is behaviourally identical to solving the
    rule body left-to-right with the symbolic {!Solve} engine; delta
    instances compute the same solution set (joins commute; sources are
    attached to body positions, not execution order).  The equivalence
    is locked by the cross-engine property tests. *)

open Datalog

type slot =
  | Const of Term.t  (** compile-time ground constant (no arithmetic) *)
  | Bound of string  (** variable guaranteed bound to a ground term *)
  | Expr of Term.t
      (** instantiate under the substitution and evaluate arithmetic at
          probe time *)

type scan = {
  lit : int;  (** original body position, identifies the literal to the source *)
  sym : Symbol.t;
  pattern : bool array;  (** static binding pattern over argument positions *)
  key : slot array;  (** one slot per bound position, in order *)
  free : (int * Term.t) list;  (** residual positions to match, in order *)
  all_bound : bool;  (** no free position: use a membership test *)
}

type step =
  | Scan of scan  (** positive literal over a stored relation *)
  | Builtin of Atom.t  (** positive builtin comparison *)
  | Neg_builtin of Atom.t  (** negated builtin *)
  | Neg_scan of { lit : int; sym : Symbol.t; atom : Atom.t; key : slot array option }
      (** negated relation literal at original body position [lit];
          [key] is [Some] when every argument is statically ground at
          this point (the common case), [None] when groundness must be
          re-checked dynamically *)

type emit =
  | Direct of Symbol.t * slot array
      (** head statically safe: every head variable is bound by the body *)
  | Dynamic of Atom.t
      (** groundness only decidable at run time; instantiate and check,
          raising {!Solve.Unsafe} exactly as the uncompiled engine did *)

type fast
(** Integer-slot compiled form of a pure-relational instance: the
    substitution is a [Value.t array] indexed by compile-time variable
    numbers, eliminating map allocation from the inner join loop; key
    constants are pre-interned and probe keys are written into per-scan
    buffers, so a probe allocates nothing.  All executor scratch (env
    and key buffers) is allocated per {!run} call, never shared between
    runs: executing a [fast] only reads the compiled form and its
    sources, so the same instance can run nested (re-entrant
    [on_fact]).  Instances using builtins, negation, arithmetic or
    dynamic heads fall back to the substitution-based executor. *)

type instance = { steps : step array; head : emit; fast : fast option }
(** One executable join order for the rule.  Steps carry original body
    positions, so the same [source] works for every instance. *)

type t = {
  rule : Rule.t;
  base : instance;
      (** the rule's own literal order: used by naive rounds and the
          semi-naive round 0, so those behave exactly like the uncompiled
          engine (including which literal an [Unsafe] is reported for) *)
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
    the single stored relation rather than separate merged copies. *)

type source = int -> Symbol.t -> view list
(** Where a literal reads its tuples: [source lit sym] is a list of
    pairwise-disjoint views whose union the literal at body position
    [lit] enumerates (or tests membership in).  [[]] means the predicate
    has no relation at all — the step performs no index work and counts
    no probe, matching {!Solve}.  The ordinary engines pass singleton
    lists; the incremental maintenance layer composes e.g. the
    pre-update state of an updated relation as "post-deletion stamp
    range + the deleted set" without copying either. *)

val full : Relation.t -> view
(** The whole relation, including tuples added later. *)

val db_source : Database.t -> source
(** Every literal reads the full database. *)

val view_mem : view list -> Tuple.t -> bool
(** Membership in the union of the views. *)

val run :
  ?stats:Stats.t ->
  source:source ->
  neg_source:source ->
  on_fact:(Symbol.t -> Tuple.t -> unit) ->
  instance ->
  unit
(** Execute one instance: enumerate all body solutions by nested index
    scans and call [on_fact] with the ground head tuple of each.
    [neg_source] must be complete for every negated predicate
    (guaranteed by stratification); it receives the negated literal's
    original body position, so maintenance passes can serve different
    snapshots to different occurrences of the same predicate. *)

val head_symbol : instance -> Symbol.t option
(** The fixed head predicate of a statically-safe instance; [None] for
    dynamic heads (whose predicate is only known per emission). *)

val pp : t Fmt.t
(** Human-readable plan listing (instances, binding patterns, slots). *)
