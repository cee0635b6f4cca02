(** Sip and binding checks on the adorned rule set (Section 3).

    - [E030] (error): a sip violates the paper's conditions (1), (2i-iii)
      or (3), per {!Magic_core.Sip.validate}.
    - [E031] (error): in the sip-ordered body, an arc draws bindings from a
      literal that does not precede its target — the information flow is
      not justified by the head or earlier literals.
    - [E003] (error): a head variable can be bound neither by the positive
      body nor by a bound head argument under the adornment actually
      reached from the query; the rule is unsafe under {e every} rewriting. *)

open Datalog
module C = Magic_core

val check_sip :
  ?span:Loc.t -> Rule.t -> C.Adornment.t -> C.Sip.t -> Diagnostic.t list

val check_arc_order : ?span:Loc.t -> C.Adorn.adorned_rule -> Diagnostic.t list

val run : Ctx.t -> orig_of:(int -> int) -> C.Adorn.t -> Diagnostic.t list
