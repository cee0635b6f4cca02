(** Evaluation statistics.

    The paper's comparisons (Sections 9 and 11, and the performance study
    it cites) are in terms of the number of facts inferred, the number of
    rule firings and the number of subqueries generated; the engine counts
    all of these.  They describe one evaluation; the work of an
    incremental repair is counted by [Incr.Maintain.stats]. *)

type t = {
  mutable iterations : int;  (** fixpoint rounds *)
  mutable firings : int;  (** successful rule instantiations *)
  mutable facts : int;  (** distinct facts first derived *)
  mutable rederivations : int;  (** firings that produced an already-known fact *)
  mutable probes : int;  (** body-literal match attempts (join probes) *)
  mutable subqueries : int;  (** top-down only: distinct subgoals *)
}

val create : unit -> t
val record_fact : t -> is_new:bool -> unit
(** One firing: a new fact, or a rederivation of a known one. *)

val pp : t Fmt.t

(** {2 Memory counters}

    Allocation and collection totals over a measured region, as deltas
    of [Gc.quick_stat]; the memory-aware half of a benchmark row. *)

type gc_counters = {
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated in (or promoted to) the major heap *)
  promoted_words : float;  (** words promoted minor -> major *)
  minor_collections : int;
  major_collections : int;
}

val gc_now : unit -> gc_counters
(** Current process-lifetime totals (cheap: [Gc.quick_stat]). *)

val gc_delta : before:gc_counters -> after:gc_counters -> gc_counters
(** Counter increments between two {!gc_now} snapshots. *)

