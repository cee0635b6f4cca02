(** First-order terms over variables, constants and function symbols.

    Terms are the arguments of atoms in Horn clauses.  In addition to the
    usual constructors, the type includes integer arithmetic nodes
    ([Add]/[Mul]/[Div]); these are required by the generalized counting
    transformations of Beeri & Ramakrishnan, whose rewritten rules carry
    index expressions such as [I + 1], [K * m + i] and [H * t + j].
    Arithmetic nodes are evaluated by {!eval} once their variables have been
    instantiated; they never appear in ground database tuples. *)

type t =
  | Var of string  (** logical variable, e.g. [X] *)
  | Int of int  (** integer constant *)
  | Sym of string  (** atomic symbolic constant, e.g. [john] or ["[]"] *)
  | App of string * t list
      (** function-symbol application, e.g. [cons(X, Xs)] *)
  | Add of t * t  (** integer addition, counting indices only *)
  | Mul of t * t  (** integer multiplication, counting indices only *)
  | Div of t * t  (** integer division, counting indices only *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_ground : t -> bool
(** [is_ground t] is true iff [t] contains no variable. *)

val vars : t -> string list
(** Variables of [t], each listed once, in first-occurrence order. *)

val add_vars : t -> string list -> string list
(** [add_vars t acc] prepends the variables of [t] not already in [acc]. *)

val map_vars : (string -> t) -> t -> t
(** Homomorphic replacement of every variable. *)

val rename : (string -> string) -> t -> t
(** Variable renaming. *)

exception Arithmetic_overflow
(** Raised by {!eval} when an index computation exceeds the native
    integer range.  The counting transformations' indices grow
    exponentially with derivation depth (the paper notes they "may grow
    indefinitely"), so deep derivations overflow; the engine reports such
    evaluations as divergent rather than computing with wrapped values. *)

val add_checked : int -> int -> int
(** Native addition; @raise Arithmetic_overflow where {!eval} does. *)

val mul_checked : int -> int -> int
(** Native multiplication; @raise Arithmetic_overflow where {!eval} does. *)

val eval : t -> t
(** Simplify all arithmetic sub-terms whose operands are ground integers.
    A fully instantiated arithmetic term evaluates to [Int _].  Arithmetic
    over non-integers raises [Invalid_argument]; overflowing arithmetic
    raises {!Arithmetic_overflow}. *)

val size : t -> int
(** Number of constructors; the paper's term length |t| for ground terms
    (a constant has length 1, [f(t1..tn)] has length 1 + sum |ti|). *)

val cons : t -> t -> t
(** List constructor cell, [cons h t]. *)

val nil : t
(** The empty-list constant. *)

val list : t list -> t
(** Proper list built from {!cons} and {!nil}. *)

val pp : t Fmt.t
(** Concrete syntax, re-sugaring lists to [[a, b | T]] notation. *)

val to_string : t -> string
