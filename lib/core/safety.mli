(** Safety analysis (Section 10 of the paper): does bottom-up evaluation
    of the rewritten rules terminate after computing all answers?

    - Theorem 10.1: the magic and counting rewritings terminate when every
      cycle of the query's {e binding graph} has positive length, where
      the length of an arc from head [p^a1] to body occurrence [q^a2] is
      the total term length of the head's bound arguments minus that of
      the occurrence's bound arguments, and an unknown variable length
      counts as at least 1.
    - Theorem 10.2: on Datalog the magic-sets strategies are always safe.
    - Theorem 10.3: the counting strategies do not terminate when the
      {e argument graph} (bound-argument positions linked by shared
      variables) has a reachable cycle — and even when it is acyclic they
      may diverge on cyclic data. *)

open Datalog

(** Symbolic term lengths: [base + sum over variables of coeff * |v|],
    with every [|v| >= 1]. *)
module Len : sig
  type t = { base : int; coeffs : (string * int) list }

  val of_term : Term.t -> t
  val of_terms : Term.t list -> t
  val sub : t -> t -> t

  val minimum : t -> int option
  (** Greatest lower bound given [|v| >= 1]; [None] when unbounded below
      (some variable has a negative coefficient). *)

  val pp : t Fmt.t
end

type binding_arc = {
  src : string * Adornment.t;  (** head adorned predicate *)
  dst : string * Adornment.t;  (** body occurrence's adorned predicate *)
  rule_index : int;  (** index into {!Adorn.t}[.rules] *)
  body_position : int;
  length : Len.t;
}

val binding_graph : Adorn.t -> binding_arc list
(** Arcs of the binding graph rooted at the query node. *)

val argument_graph_cyclic : Adorn.t -> bool
(** Theorem 10.3 premise: the reachable argument graph has a cycle, in
    which case the counting strategies diverge regardless of the data. *)

type report = {
  is_datalog : bool;
  positive_binding_cycles : bool;
  magic_safe : bool;
      (** provably safe for the magic rewritings: Datalog (Thm 10.2) or
          all binding cycles positive (Thm 10.1) *)
  counting_statically_diverges : bool;  (** Thm 10.3 *)
  counting_safe : bool;
      (** provably safe for the counting rewritings: positive binding
          cycles and acyclic argument graph; on Datalog, cyclic data can
          still cause divergence, which this static check cannot rule
          out, so Datalog alone does not imply counting safety *)
}

val analyze : Adorn.t -> report
val pp_report : report Fmt.t
