(** Atoms: a predicate name applied to a list of terms. *)

type t = { pred : string; args : Term.t list }

val make : string -> Term.t list -> t
val arity : t -> int
val symbol : t -> Symbol.t
val equal : t -> t -> bool
val compare : t -> t -> int

val vars : t -> string list
(** Variables in first-occurrence order, each once. *)

val add_vars : t -> string list -> string list
val is_ground : t -> bool
val apply : Subst.t -> t -> t

val apply_eval : Subst.t -> t -> t
(** {!apply} followed by arithmetic evaluation of every argument. *)

val apply_deep_eval : Subst.t -> t -> t
(** Like {!apply_eval} but iterates substitution to a fixpoint; needed for
    the triangular substitutions produced by unification. *)

val rename : (string -> string) -> t -> t

val unify : t -> t -> Subst.t -> Subst.t option
(** Unify two atoms argument-wise (same predicate and arity required). *)

val is_builtin : t -> bool
(** A comparison or (dis)equality, evaluated natively by the engine:
    ["="], ["<>"], ["<"], ["<="], [">"] or [">="] with two arguments. *)

val pp : t Fmt.t
val to_string : t -> string
