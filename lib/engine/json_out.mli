(** Minimal JSON emission shared by the bench harness and the CLI's
    [--json] modes: one schema for result rows everywhere, no external
    JSON dependency. *)

val str : string -> string
(** A JSON string literal (quoted and escaped). *)

val field : string -> string -> string
(** [field k v] is [ "k": v ] with [v] inserted verbatim (already JSON). *)

val obj : string list -> string

val arr : string list -> string
(** Multi-line array, one element per line — the layout of the
    committed BENCH_*.json files. *)

val arr_inline : string list -> string
(** Single-line array, for line-oriented consumers (the serve
    protocol). *)

val stats_fields : Stats.t -> time_s:float -> string list
(** The common statistics fields of a result row. *)

val gc_fields : Stats.gc_counters -> string list
(** Allocation / collection counter fields of a result row. *)

val result_row :
  workload:string ->
  meth:string ->
  status:string ->
  ?gc:Stats.gc_counters ->
  ?cost:float * float ->
  Stats.t ->
  time_s:float ->
  answers:int ->
  string
(** One evaluation result row: workload, method, status, statistics,
    optional GC counters, optional [(est_facts, est_probes)] calibration
    fields, wall-clock seconds, answer count — the row schema of
    [BENCH_engine.json] and of [magic eval --json]. *)
