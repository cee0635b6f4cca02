(** Ground tuples: the rows of extensional and intensional relations.

    A tuple is an array of interned {!Value.t} ids, so equality and
    hashing are integer operations; {!compare} orders by the denoted
    terms, so sorted answer lists are stable across intern orders. *)

type t = Value.t array

val of_list : Datalog.Term.t list -> t
(** Interns every component (ground arithmetic is evaluated).
    @raise Invalid_argument if any term is non-ground. *)

val find_of_list : Datalog.Term.t list -> t option
(** Non-inserting {!of_list}: [None] if some component was never
    interned — such a tuple occurs in no relation.  Used on probe and
    membership paths so lookups of absent keys do not grow the pool. *)

val to_list : t -> Datalog.Term.t list
val arity : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val project : int list -> t -> t
(** [project positions t] keeps the given 0-based positions, in order. *)

val matcher : Datalog.Term.t list -> (t -> bool) option
(** [matcher args] tests whether a tuple matches atom arguments [args]
    (variables bind, a repeated variable must agree, ground arguments
    must be equal).  Ground arguments are compared by interned id, so
    only a repeated variable or a non-ground compound argument builds
    terms, and only for the tuples whose ids already agree.  [None]
    when a ground argument was never interned: no tuple matches. *)

val hash_proj : int array -> t -> int
(** [hash_proj positions t] = [hash] of the projection of [t] on
    [positions], computed without materializing it. *)

val equal_proj : int array -> t -> t -> bool
(** [equal_proj positions t key]: does the projection of [t] on
    [positions] equal [key]? *)

val pp : t Fmt.t
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
