(** The daemon's shared state: one {!Persist.Store} owning the warm
    {!Incr.Session}, a published {!Engine.Snapshot}, an adornment-keyed
    answer cache, and the snapshot-epoch discipline tying them together.

    {b Invariant (snapshot epochs).}  Every committed write — an EDB
    transaction or a seed installation for a newly compatible query —
    happens under the exclusive write lock, increments the epoch and
    republishes a fresh snapshot before the lock is released.  Readers
    pin the published snapshot under the read lock; since deletion
    tombstones are only produced under the write lock, a pinned snapshot
    is immutable for as long as the reader holds it, and every answer is
    computed against exactly one committed epoch — never a half-applied
    transaction.

    {b Cache.}  Keyed by the query atom normalized up to variable
    renaming; each entry carries the plan it was read by — the answer
    atom its tuples match and their {!Magic_core.Rewritten.project}
    shape — so it can be repaired in place.  In
    the default [Partial] mode a committed transaction is applied to
    the cache through its {!Incr.Maintain.summary}: entries whose
    dependency footprint ({!Analysis.Footprint}) is disjoint from the
    touched relations survive unchanged; entries with an intersecting,
    negation-free footprint survive an insert-only transaction by
    {e repair} — the maintained insertions of their answer predicate
    are projected and appended in place; everything else is evicted.
    In [Full] mode (the pre-partial behavior, kept for differential
    testing) every transaction clears the whole cache.

    A miss stores its rows while the snapshot they were read from is
    still pinned, before the read lock is released: no commit falls
    between reading rows and caching them, so every entry is exact at
    its epoch and every later commit's pass sees it.

    A seed installation keeps the cache when the maintained program is
    monotone: growing the magic cone adds support for {e new} queries
    but cannot change the answers of queries whose seeds were already
    installed.  Under negation the installation's change summary goes
    through the same partial pass as a transaction.

    {b Budgets and the store.}  The session and its committed state
    belong to one {!Persist.Store}, in memory or on disk; every write
    goes through it under the write lock.  [max_facts] bounds every
    maintenance transaction (EDB ops and seed installs).  A blown budget
    leaves the maintained state unspecified, so the store restores the
    last committed state (a snapshot load plus WAL replay on disk, an
    unbounded re-evaluation of the committed EDB in memory); the
    registry republishes it at the same epoch and reports a protocol
    error — the daemon never dies and never serves the half-applied
    state. *)

open Datalog

type t

type cache_mode = Partial | Full
(** [Partial] (the default): summary-driven selective invalidation and
    in-place repair.  [Full]: every transaction wipes the cache —
    retained as the reference behavior for differential tests and
    A/B bench runs. *)

val create :
  ?strategy:Incr.Session.strategy ->
  ?options:Magic_core.Rewrite.options ->
  ?max_facts:int ->
  ?cache_mode:cache_mode ->
  ?db:string ->
  ?checkpoint_every:int ->
  Program.t ->
  Atom.t ->
  edb:Engine.Database.t Lazy.t ->
  t
(** Open a {!Persist.Store} for the program and initial query (strategy
    defaults to [Auto]) and publish epoch-0 state.

    Without [db] the store keeps its committed state in memory.  With
    [db] the registry is durable: the directory is opened as the store's
    snapshot and WAL — reused if present ([edb] is then never forced;
    the disk state wins), created otherwise.  Every committed transaction
    and seed install is journaled (fsync) under the write lock before
    the commit is acknowledged, and the snapshot is rewritten every
    [checkpoint_every] records.  Epochs restart at 0 on reopen — they
    number commits of one serving process, not of the store's lifetime.
    @raise Persist.Codec.Corrupt if the store refuses to load.
    @raise Invalid_argument if [db] is combined with custom [options]
    (options shape the rewrite and are not persisted). *)

val query : t -> Atom.t -> Protocol.response
(** Serve a read query from the published snapshot (installing its
    seeds first if it is compatible but not yet covered).  Concurrent
    with other [query] calls; never blocks them against each other. *)

val transact : t -> Incr.Maintain.op list -> Protocol.response
(** Apply one EDB transaction.  Serialized with all other writes and
    exclusive against readers; on success the epoch advances and a new
    snapshot is published; on a blown budget or a bad op the store
    rolls back to the last committed state and the epoch stays.  Ops
    must target extensional relations — an op on a predicate the
    program derives is refused with a [bad-request] error. *)

val stats_fields : t -> (string * string) list
(** Daemon counters as [(name, json-value)] pairs for the stats reply. *)

val epoch : t -> int
(** The currently published epoch (0 right after {!create}). *)

val close : t -> unit
(** Close the store: on disk a final checkpoint, then release its file
    handles; a no-op in memory.  Call after the daemon's accept loop has
    exited. *)

val session_strategy : t -> Incr.Session.strategy
