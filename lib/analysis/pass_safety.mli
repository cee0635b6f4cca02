(** Rule safety / range restriction.

    - [E001] (error): a variable of a negated literal occurs in no positive
      body literal — negation-as-failure cannot enumerate it.
    - [E002] (error): a comparison builtin has a variable no positive
      literal or equality chain can ever bind.
    - [W001] (warning): a head variable occurs in no positive body literal;
      plain bottom-up evaluation is unsafe, but the paper's rewritings can
      repair the rule when the query binds the corresponding argument (the
      adorned-level check is {!Pass_sip}'s E003). *)

open Datalog

val bindable_vars : Rule.t -> Set.Make(String).t
(** Variables a left-to-right evaluation of the positive body can bind:
    variables of non-builtin positive literals, closed under equality. *)

val run : Ctx.t -> Diagnostic.t list
