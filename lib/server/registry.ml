open Datalog
module C = Magic_core
module Footprint = Analysis.Footprint

type cache_mode = Partial | Full

type counters = {
  mutable queries : int;
  mutable txns : int;
  mutable txn_ops : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable partial_invalidations : int;  (* commits that evicted selectively *)
  mutable full_invalidations : int;  (* commits that wiped the cache *)
  mutable cache_evictions : int;  (* entries dropped by selective passes *)
  mutable cache_repairs : int;  (* entries repaired in place *)
  mutable seed_installs : int;
  mutable rebuilds : int;
  mutable errors : int;
  mutable maint_firings : int;
}

(* How a query reads the published snapshot: the atom its tuples
   match, the shape of {!C.Rewritten.project} that turns them into
   answer rows, and the magic seeds that must be present first.  Under
   [Original] the atom is the query itself, the projection trivial and
   the seed list empty. *)
type plan = {
  atom : Atom.t;
  index_fields : int;
  restore : (int * Term.t) list;
  seeds : Atom.t list;
}

(* One cached answer set, with the plan that repairs it in place *)
type entry = { plan : plan; mutable e_epoch : int; mutable e_rows : string list list }

type t = {
  lock : Rwlock.t;
  store : Persist.Store.t;
      (* owns the session and its committed state; driven only under
         the write lock *)
  mutable snapshot : Engine.Snapshot.t;  (* published under the write lock *)
  mutable probes : Atom.t list;
      (* one atom per (predicate, binding pattern) a first miss had to
         prepare; every publish re-prepares them.  Under the write lock. *)
  mutable epoch : int;
  program : Program.t;
  maintained : Program.t;  (* of the session, which the registry never resets *)
  derived : Symbol.Set.t;
      (* of [program] and of [maintained] (magic and supplementary
         relations included): client txns may not touch these *)
  strategy : Incr.Session.strategy;  (* resolved: never [Auto] *)
  options : C.Rewrite.options;
  max_facts : int option;
  monotone : bool;
      (* no negative literal in the maintained program: cone growth can
         only add facts, so seed installs keep the answer cache *)
  cache_mode : cache_mode;
  cache_m : Mutex.t;
  cache : (string, entry) Hashtbl.t;
  fp_index : Footprint.index;  (* of [maintained]; memoizing, so under [cache_m] *)
  c : counters;  (* under [cache_m] *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let with_c t f = locked t.cache_m (fun () -> f t.c)
let now () = Unix.gettimeofday ()

let absorb_maint t (stats : Incr.Maintain.stats) =
  with_c t (fun c -> c.maint_firings <- c.maint_firings + stats.Incr.Maintain.delta_firings)

let has_negation program =
  List.exists
    (fun r ->
      List.exists
        (function Rule.Neg _ -> true | Rule.Pos _ -> false)
        r.Rule.body)
    (Program.rules program)

(* ---- publishing: the one place a snapshot is captured ----

   Under the write lock (or before the registry is shared): capture the
   session's database, then prepare on the captured relations every
   binding pattern readers probe — the session's rewritten answer
   pattern, which every compatible GMS/GSMS query shares, and the
   patterns first misses registered.  A budget rebuild and a store
   reopen hand over fresh relations without indexes; preparing at
   publish covers them too. *)
let publish ~epoch session probes =
  let snap = Engine.Snapshot.capture ~epoch (Incr.Session.db session) in
  Option.iter
    (fun rw -> Engine.Snapshot.prepare snap rw.C.Rewritten.query)
    (Incr.Session.rewritten session);
  List.iter (Engine.Snapshot.prepare snap) probes;
  snap

let create ?(strategy = Incr.Session.Auto) ?options ?max_facts
    ?(cache_mode = Partial) ?db ?checkpoint_every program query ~edb =
  let store =
    Persist.Store.open_or_create ~strategy ?options ?max_facts ?checkpoint_every
      ?dir:db program query ~edb
  in
  let session = Persist.Store.session store in
  let maintained = Incr.Session.maintained_program session in
  let epoch = 0 in
  {
    lock = Rwlock.create ();
    store;
    snapshot = publish ~epoch session [];
    probes = [];
    epoch;
    program;
    maintained;
    derived = Symbol.Set.union (Program.derived program) (Program.derived maintained);
    strategy = Incr.Session.strategy session;
    options = Incr.Session.options session;
    max_facts;
    monotone = not (has_negation maintained);
    cache_mode;
    cache_m = Mutex.create ();
    cache = Hashtbl.create 64;
    fp_index = Footprint.index maintained;
    c =
      {
        queries = 0;
        txns = 0;
        txn_ops = 0;
        cache_hits = 0;
        cache_misses = 0;
        partial_invalidations = 0;
        full_invalidations = 0;
        cache_evictions = 0;
        cache_repairs = 0;
        seed_installs = 0;
        rebuilds = 0;
        errors = 0;
        maint_firings = 0;
      };
  }

let epoch t = Rwlock.with_read t.lock (fun () -> t.epoch)
let session_strategy t = t.strategy

(* ---- cache keying: the atom normalized up to variable renaming, so
   [path(a, Y)] and [path(a, Z)] share an entry while [p(X, X)] and
   [p(X, Y)] do not (first-occurrence numbering preserves repetition
   structure) ---- *)

let cache_key (a : Atom.t) =
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i v -> Hashtbl.replace tbl v (Printf.sprintf "v%d" i))
    (Atom.vars a);
  Atom.to_string (Atom.rename (fun v -> Hashtbl.find tbl v) a)

(* ---- the cache (under [cache_m]) ----

   Rows are stored while the snapshot they were read from is pinned —
   under the read lock, or the write lock on the prepare path — so no
   commit can fall between reading them and storing them: every entry
   is exact at its epoch, and every later commit sees it. *)

(* count the lookup and return the entry's epoch and rows on a hit *)
let cache_find t key =
  locked t.cache_m (fun () ->
      t.c.queries <- t.c.queries + 1;
      match Hashtbl.find_opt t.cache key with
      | Some e ->
        t.c.cache_hits <- t.c.cache_hits + 1;
        Some (e.e_epoch, e.e_rows)
      | None ->
        t.c.cache_misses <- t.c.cache_misses + 1;
        None)

let cache_store t key plan ep rows =
  locked t.cache_m (fun () ->
      Hashtbl.replace t.cache key { plan; e_epoch = ep; e_rows = rows })

let row plan tu =
  List.map Term.to_string
    (C.Rewritten.project ~index_fields:plan.index_fields ~restore:plan.restore
       (Engine.Tuple.to_list tu))

(* ---- partial invalidation and in-place repair ----

   A committed change summary names every relation that changed.  An
   entry whose footprint is disjoint from the touched set kept exactly
   its rows (nothing it can read changed), so it survives with its
   epoch advanced.  An entry whose footprint intersects is normally
   evicted — but when the transaction deleted nothing and the entry's
   footprint is negation-free, every consequence of the transaction is
   monotone, so the entry's rows after the commit are its rows before
   plus the projection of the answer predicate's maintained insertions:
   we append those (the DRed passes computed them anyway) and
   keep the entry hot. *)

let repair_entry e added new_epoch =
  let extra =
    List.filter_map
      (fun tu ->
        match Subst.match_list e.plan.atom.Atom.args (Engine.Tuple.to_list tu) Subst.empty with
        | Some _ -> Some (row e.plan tu)
        | None -> None)
      added
  in
  if extra <> [] then
    e.e_rows <-
      List.sort_uniq (List.compare String.compare)
        (List.rev_append extra e.e_rows);
  e.e_epoch <- new_epoch

let apply_summary_locked t new_epoch (summary : Incr.Maintain.summary) =
  (* under [cache_m] *)
  match t.cache_mode with
  | Full ->
    Hashtbl.reset t.cache;
    t.c.full_invalidations <- t.c.full_invalidations + 1
  | Partial ->
    let touched = Incr.Maintain.touched summary in
    let repairable = not (Incr.Maintain.has_deletions summary) in
    let added_of pred =
      match
        List.find_opt
          (fun (d : Incr.Maintain.delta) -> Symbol.equal d.d_pred pred)
          summary
      with
      | None -> Some []  (* untouched answer relation: rows unchanged *)
      | Some d -> d.Incr.Maintain.d_added  (* None above the cap *)
    in
    let evict = ref [] in
    Hashtbl.iter
      (fun key e ->
        let pred = Atom.symbol e.plan.atom in
        let fp = Footprint.of_pred t.fp_index pred in
        if not (Footprint.intersects fp touched) then
          (* untouched footprint: rows invariant under this commit *)
          e.e_epoch <- new_epoch
        else if repairable && Footprint.neg_free fp then begin
          match added_of pred with
          | Some added ->
            repair_entry e added new_epoch;
            t.c.cache_repairs <- t.c.cache_repairs + 1
          | None -> evict := key :: !evict
        end
        else evict := key :: !evict)
      t.cache;
    List.iter (Hashtbl.remove t.cache) !evict;
    t.c.cache_evictions <- t.c.cache_evictions + List.length !evict;
    (* a commit that changed nothing only advanced every entry's epoch *)
    if not (Symbol.Set.is_empty touched) then
      t.c.partial_invalidations <- t.c.partial_invalidations + 1

let err code fmt = Fmt.kstr (fun message -> Protocol.Error { code; message }) fmt

let count_error t resp =
  (match resp with
  | Protocol.Error _ -> with_c t (fun c -> c.errors <- c.errors + 1)
  | _ -> ());
  resp

(* ---- writes ---- *)

let republish t =
  t.snapshot <- publish ~epoch:t.epoch (Persist.Store.session t.store) t.probes

let rebuilt t =
  (* under the write lock, after a failed apply: the store has already
     restored its last committed state.  Republish it at the same epoch:
     the logical state is exactly the last committed one, so surviving
     cache entries stay valid. *)
  republish t;
  with_c t (fun c -> c.rebuilds <- c.rebuilds + 1)

let op_atom = function Incr.Maintain.Insert a | Incr.Maintain.Delete a -> a

let transact t ops =
  let t0 = now () in
  (* clients update extensional state only: an op on a derived predicate
     would assert external support for a fact the program itself owns,
     and one on a magic relation would add or retract a seed *)
  match
    List.find_opt
      (fun op -> Symbol.Set.mem (Atom.symbol (op_atom op)) t.derived)
      ops
  with
  | Some op ->
    count_error t
      (err Protocol.Bad_request
         "%a is derived by the program; transactions may only update \
          extensional relations"
         Atom.pp (op_atom op))
  | None ->
  Rwlock.with_write t.lock (fun () ->
      (* the store records the commit (a WAL fsync when durable) before
         it returns, so the commit is acknowledged only once recorded *)
      match Persist.Store.update_delta t.store ops with
      | stats, summary ->
        t.epoch <- t.epoch + 1;
        republish t;
        absorb_maint t stats;
        locked t.cache_m (fun () ->
            apply_summary_locked t t.epoch summary;
            t.c.txns <- t.c.txns + 1;
            t.c.txn_ops <- t.c.txn_ops + List.length ops);
        Protocol.Committed
          { epoch = t.epoch; ops = List.length ops; time_s = now () -. t0 }
      | exception Incr.Maintain.Budget_exhausted ->
        rebuilt t;
        count_error t
          (err Protocol.Budget
             "transaction exceeded the maintenance budget (max-facts %d); \
              state rolled back"
             (Option.value ~default:0 t.max_facts))
      | exception Invalid_argument msg ->
        rebuilt t;
        count_error t (err Protocol.Bad_request "%s" msg))

let install_seeds t q =
  Rwlock.with_write t.lock (fun () ->
      match Persist.Store.query_delta t.store q with
      | _answers, stats, summary ->
        t.epoch <- t.epoch + 1;
        republish t;
        absorb_maint t stats;
        locked t.cache_m (fun () ->
            t.c.seed_installs <- t.c.seed_installs + 1;
            (* cone growth is answer-preserving for monotone programs:
               every cached entry stays exact, so skip even the summary
               pass.  Under negation a lower-stratum gain can retract a
               higher-stratum fact, so run the selective pass (entries
               whose footprint avoids the install, or is negation-free
               over an insert-only summary, still survive). *)
            if not t.monotone then apply_summary_locked t t.epoch summary);
        Ok ()
      | exception Incr.Session.Incompatible_query msg ->
        Error (err Protocol.Incompatible "%s" msg)
      | exception Incr.Maintain.Budget_exhausted ->
        rebuilt t;
        Error
          (err Protocol.Budget
             "installing the query's seeds exceeded the maintenance budget \
              (max-facts %d); state rolled back"
             (Option.value ~default:0 t.max_facts))
      | exception Invalid_argument msg ->
        rebuilt t;
        Error (err Protocol.Bad_request "%s" msg))

(* ---- reads ---- *)

(* [read] the published snapshot under the read lock, once [probe]'s
   binding pattern is prepared there.  The first miss on a new
   (predicate, pattern) pair — under [Original] any pair; under
   GMS/GSMS, publish already prepared the one compatible queries share —
   takes the write lock once to prepare it, records it for later
   publishes and reads there.  The logical state does not change, so
   the epoch does not advance. *)
let read_prepared t probe read =
  match
    Rwlock.with_read t.lock (fun () ->
        if Engine.Snapshot.prepared t.snapshot probe then Some (read t.snapshot)
        else None)
  with
  | Some v -> v
  | None ->
    Rwlock.with_write t.lock (fun () ->
        if not (Engine.Snapshot.prepared t.snapshot probe) then begin
          Engine.Snapshot.prepare t.snapshot probe;
          t.probes <- probe :: t.probes
        end;
        read t.snapshot)

(* Outside any lock: the identity plan under [Original]; under GMS/GSMS
   the query's rewrite, which must be the maintained program *)
let plan t q =
  match t.strategy with
  | Original | Auto -> Ok { atom = q; index_fields = 0; restore = []; seeds = [] }
  | GMS | GSMS -> (
    let kind = if t.strategy = GMS then C.Rewrite.GMS else C.Rewrite.GSMS in
    match C.Rewrite.rewrite ~options:t.options kind t.program q with
    | exception e ->
      Error
        (err Protocol.Parse_error "cannot rewrite %a: %s" Atom.pp q (Printexc.to_string e))
    | rw when not (Incr.Session.same_program t.maintained rw.C.Rewritten.program) ->
      Error
        (err Protocol.Incompatible
           "query %a adorns to a different rewritten program than the session's" Atom.pp q)
    | rw ->
      Ok
        {
          atom = rw.C.Rewritten.query;
          index_fields = rw.C.Rewritten.index_fields;
          restore = rw.C.Rewritten.restore;
          seeds = rw.C.Rewritten.seeds;
        })

(* The plan's rows at the pinned snapshot, cached before it is released;
   [None] while some seed is missing *)
let read t key plan =
  read_prepared t plan.atom (fun snap ->
      if not (List.for_all (Engine.Snapshot.mem snap) plan.seeds) then None
      else begin
        let ep = Engine.Snapshot.epoch snap in
        let tuples = Engine.Snapshot.matching snap plan.atom in
        let rows = List.sort_uniq (List.compare String.compare) (List.map (row plan) tuples) in
        cache_store t key plan ep rows;
        Some (ep, rows)
      end)

let query t q =
  let t0 = now () in
  let key = cache_key q in
  let answers ~cache_hit (epoch, rows) =
    Protocol.Answers { epoch; cache_hit; answers = rows; time_s = now () -. t0 }
  in
  match cache_find t key with
  | Some hit -> answers ~cache_hit:true hit
  | None -> (
    (* dynamic magic sets: while a seed is missing, grow the cone and
       read the republished snapshot again.  Clients cannot write magic
       relations, so no commit in between retracts an installed seed. *)
    let rec serve plan =
      match read t key plan with
      | Some r -> Ok r
      | None -> Result.bind (install_seeds t q) (fun () -> serve plan)
    in
    match Result.bind (plan t q) serve with
    | Ok r -> answers ~cache_hit:false r
    | Error resp -> count_error t resp)

let stats_fields t =
  let ep, snap_total =
    Rwlock.with_read t.lock (fun () -> (t.epoch, Engine.Snapshot.total t.snapshot))
  in
  let c, entries =
    locked t.cache_m (fun () ->
        ( {
            t.c with
            queries = t.c.queries (* copy: read outside the lock *);
          },
          Hashtbl.length t.cache ))
  in
  let hit_rate =
    let lookups = c.cache_hits + c.cache_misses in
    if lookups = 0 then 0. else float_of_int c.cache_hits /. float_of_int lookups
  in
  [
    ("epoch", string_of_int ep);
    ("strategy", Engine.Json_out.str (Incr.Session.strategy_to_string t.strategy));
    ("facts", string_of_int snap_total);
    ("queries", string_of_int c.queries);
    ("txns", string_of_int c.txns);
    ("txn_ops", string_of_int c.txn_ops);
    ("cache_entries", string_of_int entries);
    ("cache_hits", string_of_int c.cache_hits);
    ("cache_misses", string_of_int c.cache_misses);
    ("cache_hit_rate", Printf.sprintf "%.4f" hit_rate);
    ("cache_invalidations",
     string_of_int (c.partial_invalidations + c.full_invalidations));
    ("partial_invalidations", string_of_int c.partial_invalidations);
    ("full_invalidations", string_of_int c.full_invalidations);
    ("cache_evictions", string_of_int c.cache_evictions);
    ("cache_repairs", string_of_int c.cache_repairs);
    ("seed_installs", string_of_int c.seed_installs);
    ("rebuilds", string_of_int c.rebuilds);
    ("errors", string_of_int c.errors);
    ("maint_firings", string_of_int c.maint_firings);
  ]
  @
  if not (Persist.Store.durable t.store) then [ ("persist_enabled", "false") ]
  else
    Rwlock.with_read t.lock (fun () ->
        [
          ("persist_enabled", "true");
          ("persist_restored", string_of_bool (Persist.Store.restored t.store));
          ("persist_wal_records", string_of_int (Persist.Store.wal_records t.store));
          ("persist_checkpoints", string_of_int (Persist.Store.checkpoints t.store));
          ("persist_replayed", string_of_int (Persist.Store.replayed t.store));
          ("persist_wal_depth", string_of_int (Persist.Store.wal_depth t.store));
        ])

let close t = Rwlock.with_write t.lock (fun () -> Persist.Store.close t.store)
