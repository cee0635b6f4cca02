(** Substitutions: finite maps from variables to terms, with one-way
    matching and two-sided unification (with occurs check). *)

type t

val empty : t
val bind : string -> Term.t -> t -> t
(** [bind x t s] extends [s] with [x -> t].  Raises [Invalid_argument] if
    [x] is already bound to a different term. *)

val of_list : (string * Term.t) list -> t

val apply : t -> Term.t -> Term.t
(** Replace every bound variable by its image.  Unbound variables are left
    in place.  The result is not arithmetic-evaluated; see {!Term.eval}. *)

val apply_deep : t -> Term.t -> Term.t
(** Like {!apply} but iterates until a fixpoint, for substitutions produced
    by {!unify} whose images may themselves contain bound variables. *)

val match_term : Term.t -> Term.t -> t -> t option
(** [match_term pattern t s] extends [s] so that [apply s pattern] equals
    [t], or returns [None].  One-way: variables of [t] are treated as
    constants.  Arithmetic nodes in [pattern] must evaluate to ground
    integers under [s] and are compared for equality. *)

val unify : Term.t -> Term.t -> t -> t option
(** Most general unifier extension, with occurs check.  Arithmetic nodes are
    unified structurally unless ground-evaluable. *)

val match_list : Term.t list -> Term.t list -> t -> t option
(** Argument-wise {!match_term}; [None] on length mismatch. *)

val unify_list : Term.t list -> Term.t list -> t -> t option
(** Argument-wise {!unify}; [None] on length mismatch. *)
