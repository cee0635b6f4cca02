(** A database maps predicate symbols to relations.  It serves both as the
    extensional database (EDB) handed to the engine and as the working
    store of derived facts during evaluation. *)

open Datalog

type t

val create : unit -> t

val relation : t -> Symbol.t -> Relation.t
(** The relation for a symbol, created empty on first use. *)

val find : t -> Symbol.t -> Relation.t option

val install : t -> Symbol.t -> Relation.t -> unit
(** Bind a symbol to a relation built elsewhere (the snapshot loader's
    {!Relation.of_log} output), replacing any existing binding.
    @raise Invalid_argument on an arity mismatch. *)

val add_fact : t -> Atom.t -> bool
(** Insert a ground atom; returns [true] iff new.
    @raise Invalid_argument on a non-ground atom. *)

val add_tuple : t -> Symbol.t -> Tuple.t -> bool

val remove_fact : t -> Atom.t -> bool
(** Delete a ground atom; returns [true] iff it was present
    ({!Relation.remove} semantics: the stamp is tombstoned, not reused).
    @raise Invalid_argument on a non-ground atom. *)

val mem : t -> Atom.t -> bool

(** Membership on the raw tuple level; no arithmetic evaluation. *)
val mem_tuple : t -> Symbol.t -> Tuple.t -> bool

val of_facts : Atom.t list -> t
val facts : t -> Symbol.t -> Atom.t list
val all_facts : t -> Atom.t list
val symbols : t -> Symbol.t list
val cardinal : t -> Symbol.t -> int
val total : t -> int

val copy : t -> t
val merge_into : dst:t -> src:t -> unit
val pp : t Fmt.t
