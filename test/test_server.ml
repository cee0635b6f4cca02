(* The serving subsystem of lib/server: protocol codecs and their error
   paths, the write-preferring RW lock, snapshot stability under
   insertion, the registry's cache/epoch discipline (hits, transaction
   invalidation, monotone seed installs), budget-exhaustion recovery,
   the partitioned workload's hit-rate gate, socket end-to-end rounds
   (concurrent connections verified per epoch), and the
   snapshot-consistency property interleaving transactions with
   cross-domain reads. *)

open Datalog
open Helpers
module C = Magic_core
module P = Server.Protocol
module M = Incr.Maintain
module G = Workload.Generate
module W = Workload.Programs

let tc_src =
  "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y)."

let n i = Term.Sym (Fmt.str "n%d" i)
let edge a b = Atom.make "edge" [ a; b ]
let path_q c = Atom.make "path" [ c; Term.Var "Ans" ]
let rows = Alcotest.(list (list string))

let reference_rows p q edb =
  let rw = C.Magic_sets.rewrite (C.Adorn.adorn p q) in
  let out = C.Rewritten.run ~engine:`Seminaive_reference rw ~edb in
  List.sort_uniq
    (List.compare String.compare)
    (List.map
       (fun tu -> List.map Term.to_string (Engine.Tuple.to_list tu))
       (C.Rewritten.answers rw out))

let apply_op db = function
  | M.Insert a -> ignore (Engine.Database.add_fact db a)
  | M.Delete a -> ignore (Engine.Database.remove_fact db a)

(* one transaction of a churn stream: insert a [fresh ()] fact, and
   delete it again at the next call *)
let churn pending fresh =
  match !pending with
  | Some a ->
    pending := None;
    M.Delete a
  | None ->
    let a = fresh () in
    pending := Some a;
    M.Insert a

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request roundtrip" true (r = r')
      | Error (P.Error { message; _ }) ->
        Alcotest.failf "decode failed: %s" message
      | Error _ -> Alcotest.fail "decode failed")
    [
      P.Stats;
      P.Shutdown;
      P.Query (atom "path(a, X)");
      P.Query (atom "p(X, X)");
      P.Txn [ M.Insert (atom "edge(a, b)"); M.Delete (atom "edge(b, c)") ];
    ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      match P.decode_response (P.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    [
      P.Answers
        {
          epoch = 3;
          cache_hit = true;
          answers = [ [ "a"; "b" ]; [ "c" ] ];
          time_s = 0.25;
        };
      P.Answers { epoch = 0; cache_hit = false; answers = []; time_s = 0.5 };
      P.Committed { epoch = 1; ops = 2; time_s = 0.125 };
      P.Shutdown_ack;
      P.Error { code = P.Budget; message = "over budget" };
    ]

let test_decode_errors () =
  let code line =
    match P.decode_request line with
    | Error (P.Error { code; _ }) -> P.code_string code
    | Error _ -> "not-an-error-response"
    | Ok _ -> "accepted"
  in
  Alcotest.(check string) "truncated json" "bad-json" (code "{\"op\": ");
  Alcotest.(check string) "trailing garbage" "bad-json" (code "{} {}");
  Alcotest.(check string) "missing op" "bad-request" (code "{}");
  Alcotest.(check string) "unknown op" "bad-request"
    (code "{\"op\": \"frobnicate\"}");
  Alcotest.(check string) "unparseable atom" "parse-error"
    (code "{\"op\": \"query\", \"atom\": \"p(a\"}");
  Alcotest.(check string) "integer literal too large" "parse-error"
    (code "{\"op\": \"query\", \"atom\": \"p(99999999999999999999)\"}");
  Alcotest.(check string) "integer literal too large in a txn" "parse-error"
    (code "{\"op\": \"txn\", \"ops\": [{\"insert\": \"p(99999999999999999999)\"}]}");
  Alcotest.(check string) "non-ground txn" "non-ground"
    (code "{\"op\": \"txn\", \"ops\": [{\"insert\": \"p(X)\"}]}");
  Alcotest.(check string) "malformed op entry" "bad-request"
    (code "{\"op\": \"txn\", \"ops\": [{\"upsert\": \"p(a)\"}]}")

(* ------------------------------------------------------------------ *)
(* rwlock / snapshot                                                   *)
(* ------------------------------------------------------------------ *)

let test_rwlock_writes_exclusive () =
  let l = Server.Rwlock.create () in
  let counter = ref 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 5_000 do
              Server.Rwlock.with_write l (fun () -> incr counter)
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "all increments serialized" 20_000 !counter;
  (* readers pass through and return values *)
  Alcotest.(check int) "read passthrough" 7
    (Server.Rwlock.with_read l (fun () -> 7))

let test_snapshot_stable_under_insert () =
  let edb = Engine.Database.of_facts [ atom "p(a, b)"; atom "p(a, c)" ] in
  let snap = Engine.Snapshot.capture ~epoch:4 edb in
  Engine.Snapshot.prepare snap (atom "p(a, X)");
  Alcotest.(check int) "epoch" 4 (Engine.Snapshot.epoch snap);
  Alcotest.(check int) "total at capture" 2 (Engine.Snapshot.total snap);
  ignore (Engine.Database.add_fact edb (atom "p(c, d)"));
  ignore (Engine.Database.add_fact edb (atom "q(e)"));
  (* lands in the probed bucket, past the watermark *)
  ignore (Engine.Database.add_fact edb (atom "p(a, z)"));
  Alcotest.(check int) "insertions invisible" 2 (Engine.Snapshot.total snap);
  Alcotest.(check bool) "old fact visible" true
    (Engine.Snapshot.mem snap (atom "p(a, b)"));
  Alcotest.(check bool) "new fact invisible" false
    (Engine.Snapshot.mem snap (atom "p(c, d)"));
  Alcotest.(check (list string)) "indexed matching sees the view"
    [ "(a, b)"; "(a, c)" ]
    (List.map Engine.Tuple.to_string
       (Engine.Snapshot.matching snap (atom "p(a, X)")));
  Alcotest.(check bool) "unprepared pattern refused" true
    (match Engine.Snapshot.matching snap (atom "p(X, b)") with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Indexed [matching] agrees with a brute-force filter of [iter] on
   every snapshot taken so far, after every step of a random
   add/remove/re-add sequence on [p/2].  Each capture prepares every
   bound atom, as the registry's publish does; the atoms cover bound
   prefixes and suffixes, repeated variables ([p(X, X)]), a constant
   that was never interned, and the all-variable atom.  Re-adds after a
   capture land in probed buckets past that snapshot's watermark, so a
   bucket walk that ignored the stamp range would disagree. *)
let prop_snapshot_matching_is_filter =
  let step =
    QCheck2.Gen.(
      oneof
        [
          map (fun (a, b) -> `Add (a, b)) (pair (int_bound 3) (int_bound 3));
          map (fun (a, b) -> `Remove (a, b)) (pair (int_bound 3) (int_bound 3));
          pure `Capture;
        ])
  in
  let c i = Term.Sym (Fmt.str "snapc%d" i) in
  let p a b = Atom.make "p" [ a; b ] in
  let args =
    [ Term.Var "X"; Term.Var "Y"; c 0; c 1; Term.Sym "snap_never_interned" ]
  in
  let atoms = List.concat_map (fun a -> List.map (p a) args) args in
  let brute snap a =
    List.sort Engine.Tuple.compare
      (Engine.Snapshot.fold snap (Atom.symbol a)
         (fun tu acc ->
           match
             Subst.match_list a.Atom.args (Engine.Tuple.to_list tu) Subst.empty
           with
           | Some _ -> tu :: acc
           | None -> acc)
         [])
  in
  qtest ~count:100 "snapshot: indexed matching = filtered iter"
    QCheck2.Gen.(list_size (int_range 1 40) step)
    (fun steps ->
      let db = Engine.Database.create () in
      let snaps = ref [] in
      let agree () =
        List.for_all
          (fun snap ->
            List.for_all
              (fun a ->
                List.equal Engine.Tuple.equal
                  (Engine.Snapshot.matching snap a)
                  (brute snap a))
              atoms)
          !snaps
      in
      List.for_all
        (fun st ->
          (match st with
          | `Add (a, b) -> ignore (Engine.Database.add_fact db (p (c a) (c b)))
          | `Remove (a, b) ->
            ignore (Engine.Database.remove_fact db (p (c a) (c b)))
          | `Capture ->
            let snap = Engine.Snapshot.capture ~epoch:0 db in
            List.iter (Engine.Snapshot.prepare snap) atoms;
            snaps := snap :: !snaps);
          agree ())
        steps)

(* ------------------------------------------------------------------ *)
(* registry                                                            *)
(* ------------------------------------------------------------------ *)

let chain_edb k extra =
  Engine.Database.of_facts
    (List.init k (fun i -> edge (n i) (n (i + 1))) @ extra)

let test_registry_cache () =
  let p = program tc_src in
  let edb = chain_edb 3 [ edge (Term.Sym "m0") (Term.Sym "m1") ] in
  let r =
    Server.Registry.create ~strategy:Incr.Session.GMS p (path_q (n 0)) ~edb:(lazy edb)
  in
  (* first read misses, second hits — up to variable renaming *)
  (match Server.Registry.query r (path_q (n 0)) with
  | P.Answers { epoch = 0; cache_hit = false; answers; _ } ->
    Alcotest.check rows "warm answers"
      [ [ "n0"; "n1" ]; [ "n0"; "n2" ]; [ "n0"; "n3" ] ]
      answers
  | _ -> Alcotest.fail "expected a miss at epoch 0");
  (match Server.Registry.query r (Atom.make "path" [ n 0; Term.Var "Z" ]) with
  | P.Answers { cache_hit = true; _ } -> ()
  | _ -> Alcotest.fail "renamed query must hit the cache");
  (* a query outside the warm cone installs seeds: epoch advances, and
     the cache survives (the maintained program is monotone) *)
  (match Server.Registry.query r (path_q (Term.Sym "m0")) with
  | P.Answers { epoch = 1; cache_hit = false; answers; _ } ->
    Alcotest.check rows "installed cone answers" [ [ "m0"; "m1" ] ] answers
  | _ -> Alcotest.fail "expected a seed install bumping the epoch");
  (match Server.Registry.query r (path_q (n 0)) with
  | P.Answers { cache_hit = true; _ } -> ()
  | _ -> Alcotest.fail "cache must survive a monotone seed install");
  (* an insert-only transaction: the cached entry's footprint
     intersects the change but is negation-free, so the entry is
     repaired in place — the re-read HITS and already carries the new
     row *)
  (match Server.Registry.transact r [ M.Insert (edge (n 3) (n 4)) ] with
  | P.Committed { epoch = 2; ops = 1; _ } -> ()
  | _ -> Alcotest.fail "expected a commit at epoch 2");
  (match Server.Registry.query r (path_q (n 0)) with
  | P.Answers { epoch = 2; cache_hit = true; answers; _ } ->
    Alcotest.check rows "repaired answers"
      [ [ "n0"; "n1" ]; [ "n0"; "n2" ]; [ "n0"; "n3" ]; [ "n0"; "n4" ] ]
      answers
  | _ -> Alcotest.fail "insert transaction must repair the cached entry");
  (* a deletion cannot be repaired: the entry is evicted, the re-read
     recomputes *)
  (match Server.Registry.transact r [ M.Delete (edge (n 3) (n 4)) ] with
  | P.Committed { epoch = 3; ops = 1; _ } -> ()
  | _ -> Alcotest.fail "expected a commit at epoch 3");
  (match Server.Registry.query r (path_q (n 0)) with
  | P.Answers { epoch = 3; cache_hit = false; answers; _ } ->
    Alcotest.check rows "post-delete answers"
      [ [ "n0"; "n1" ]; [ "n0"; "n2" ]; [ "n0"; "n3" ] ]
      answers
  | _ -> Alcotest.fail "delete transaction must evict the cached entry");
  Alcotest.(check int) "published epoch" 3 (Server.Registry.epoch r)

let test_registry_full_mode_wipes () =
  (* [Full] cache mode reproduces the pre-partial behavior: any
     transaction clears everything, even when the cached query could
     not depend on it *)
  let p =
    program
      (tc_src ^ "\nreach(X, Y) :- link(X, Y).\nreach(X, Y) :- link(X, Z), reach(Z, Y).")
  in
  let edb = chain_edb 3 [ Atom.make "link" [ Term.Sym "u0"; Term.Sym "u1" ] ] in
  let mk mode =
    Server.Registry.create ~strategy:Incr.Session.Original ~cache_mode:mode p
      (path_q (n 0)) ~edb:(lazy edb)
  in
  let reach_q = Atom.make "reach" [ Term.Sym "u0"; Term.Var "Ans" ] in
  let probe r =
    (match Server.Registry.query r reach_q with
    | P.Answers _ -> ()
    | _ -> Alcotest.fail "warm reach query");
    (match Server.Registry.transact r [ M.Insert (edge (n 3) (n 4)) ] with
    | P.Committed _ -> ()
    | _ -> Alcotest.fail "edge txn");
    match Server.Registry.query r reach_q with
    | P.Answers { cache_hit; _ } -> cache_hit
    | _ -> Alcotest.fail "re-read reach query"
  in
  Alcotest.(check bool) "full mode: unrelated entry wiped" false
    (probe (mk Server.Registry.Full));
  Alcotest.(check bool) "partial mode: unrelated entry survives" true
    (probe (mk Server.Registry.Partial))

(* Two reader domains loop over a fixed set of queries (misses, hits and
   seed installs) while the main domain commits 40 transactions that cut
   and re-join the chain and add fresh edges.  After each commit
   returns, every query the main domain asks must answer at that
   commit's epoch or later, with the reference engine's answers over
   that commit's EDB: rows a reader read before the commit must not
   reach the cache after it. *)
let test_reads_after_commit () =
  let len = 24 and commits = 40 and keys = [ 0; 4; 8; 12; 16; 20 ] in
  let p = W.transitive_closure in
  let base = G.chain len in
  let r =
    Server.Registry.create ~strategy:Incr.Session.GMS p (W.tc_query (G.node "n" 0))
      ~edb:(lazy (G.db base))
  in
  let stop = Atomic.make false in
  let reader i () =
    let rng = G.rng (0xBEEF + i) and errors = ref 0 in
    while not (Atomic.get stop) do
      let k = List.nth keys (G.next rng ~bound:(List.length keys)) in
      match Server.Registry.query r (W.tc_query (G.node "n" k)) with
      | P.Answers _ -> ()
      | _ -> incr errors
    done;
    !errors
  in
  let readers = List.init 2 (fun i -> Domain.spawn (reader i)) in
  let reader_errors = ref [] in
  let state = G.db base in
  let rng = G.rng 0xC0FFEE in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      reader_errors := List.map Domain.join readers)
    (fun () ->
      for t = 1 to commits do
        let k = G.next rng ~bound:len in
        let op =
          if t mod 3 = 0 then M.Insert (edge (G.node "n" k) (G.node "x" t))
          else
            let e = edge (G.node "n" k) (G.node "n" (k + 1)) in
            if Engine.Database.mem state e then M.Delete e else M.Insert e
        in
        let committed =
          match Server.Registry.transact r [ op ] with
          | P.Committed { epoch; _ } -> epoch
          | _ -> Alcotest.failf "txn %d refused" t
        in
        apply_op state op;
        List.iter
          (fun k ->
            let q = W.tc_query (G.node "n" k) in
            match Server.Registry.query r q with
            | P.Answers { epoch; cache_hit; answers; _ } ->
              let how = if cache_hit then "hit" else "miss" in
              if epoch < committed then
                Alcotest.failf "txn %d: %a (%s) served at epoch %d, before the commit's %d" t
                  Atom.pp q how epoch committed;
              if answers <> reference_rows p q (Engine.Database.copy state) then
                Alcotest.failf "txn %d: %a (%s) diverges from the reference engine" t Atom.pp
                  q how
            | _ -> Alcotest.failf "txn %d: %a refused" t Atom.pp q)
          keys
      done);
  Alcotest.(check (list int)) "reader errors" [ 0; 0 ] !reader_errors

let counter r name =
  match List.assoc_opt name (Server.Registry.stats_fields r) with
  | Some v -> float_of_string v
  | None -> Alcotest.failf "stats lack the %s counter" name

let answers_exn r q =
  match Server.Registry.query r q with
  | P.Answers { answers; _ } -> answers
  | _ -> Alcotest.failf "query %a drew an error" Atom.pp q

let test_registry_rejects_derived_op () =
  let p = program tc_src in
  let r =
    Server.Registry.create ~strategy:Incr.Session.GMS p (path_q (n 0))
      ~edb:(lazy (chain_edb 3 []))
  in
  (match Server.Registry.transact r [ M.Insert (atom "path(n0, n9)") ] with
  | P.Error { code = P.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "updating a derived predicate must be refused");
  (* magic relations are derived by the maintained program: a client
     op on one would add or retract a seed *)
  let installs = counter r "seed_installs" in
  List.iter
    (fun (label, op) ->
      match Server.Registry.transact r [ op ] with
      | P.Error { code = P.Bad_request; _ } -> ()
      | _ -> Alcotest.failf "%s must be refused" label)
    [
      ("+ magic_path_bf(n5)", M.Insert (atom "magic_path_bf(n5)"));
      ("- magic_path_bf(n0)", M.Delete (atom "magic_path_bf(n0)"));
    ];
  Alcotest.(check int) "epoch unchanged" 0 (Server.Registry.epoch r);
  Alcotest.(check (float 0.)) "no seed install" installs (counter r "seed_installs");
  (* the daemon state survives the refused transaction *)
  match Server.Registry.query r (path_q (n 0)) with
  | P.Answers { answers; _ } ->
    Alcotest.check rows "state intact"
      [ [ "n0"; "n1" ]; [ "n0"; "n2" ]; [ "n0"; "n3" ] ]
      answers
  | _ -> Alcotest.fail "query after refused txn"

(* A commit that changes nothing (its insert is already present) still
   advances the epoch: a cached entry must be served at the new epoch,
   not the one it was cached at. *)
let test_noop_commit_advances_cached_epoch () =
  let p, q, edb = load (Cost_cases.read (repo_file "examples/paths.dl")) in
  let r = Server.Registry.create ~strategy:Incr.Session.GMS p q ~edb:(lazy edb) in
  ignore (answers_exn r q);
  let committed =
    match Server.Registry.transact r [ M.Insert (atom "edge(a, b)") ] with
    | P.Committed { epoch; _ } -> epoch
    | _ -> Alcotest.fail "a no-op insert must commit"
  in
  match Server.Registry.query r q with
  | P.Answers { cache_hit = true; epoch; _ } ->
    if epoch < committed then
      Alcotest.failf "hit served at epoch %d, before the commit's %d" epoch committed
  | P.Answers _ -> Alcotest.fail "a no-op commit must keep the entry cached"
  | _ -> Alcotest.fail "query after the no-op commit"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] over a fresh scratch directory, removed afterwards *)
let with_scratch_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "magic-test-%s-%d" name (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* A short warm cone from n0, plus a long chain entirely outside it.
   Past max-facts 60 — by a transaction bridging the cone into the
   chain, or by installing the seeds of a query at the chain's head,
   either of which derives quadratically many paths — the reply is a
   protocol error, not a crash, and the registry serves the last
   committed state at the same epoch, in memory and on disk alike. *)
let test_registry_budget_recovery ~durable ~blowout () =
  let p = program tc_src in
  let m i = Term.Sym (Fmt.str "m%d" i) in
  let edb = chain_edb 2 (List.init 40 (fun i -> edge (m i) (m (i + 1)))) in
  with_scratch_dir "budget-db" (fun dir ->
      let db = if durable then Some dir else None in
      let open_registry () =
        Server.Registry.create ~strategy:Incr.Session.GMS ~max_facts:60 ?db p
          (path_q (n 0)) ~edb:(lazy edb)
      in
      let r = open_registry () in
      let before = answers_exn r (path_q (n 0)) in
      let facts = counter r "facts" in
      let reply =
        match blowout with
        | `Txn -> Server.Registry.transact r [ M.Insert (edge (n 2) (m 0)) ]
        | `Install -> Server.Registry.query r (path_q (m 0))
      in
      (match reply with
      | P.Error { code = P.Budget; _ } -> ()
      | _ -> Alcotest.fail "the blowout must draw a budget-exhausted reply");
      Alcotest.(check int) "epoch unchanged" 0 (Server.Registry.epoch r);
      Alcotest.(check (float 0.)) "one rebuild" 1. (counter r "rebuilds");
      Alcotest.(check (float 0.)) "no half-applied fact" facts (counter r "facts");
      Alcotest.check rows "state rolled back" before (answers_exn r (path_q (n 0)));
      (* a miss inside the warm cone reads the rebuilt, index-less
         session's relations: the republished snapshot must serve it *)
      (match Server.Registry.query r (path_q (n 1)) with
      | P.Answers { cache_hit = false; answers; _ } ->
        Alcotest.check rows "miss after rollback" [ [ "n1"; "n2" ] ] answers
      | P.Answers _ -> Alcotest.fail "path(n1, _) must miss the cache"
      | _ -> Alcotest.fail "miss after rollback");
      (* and affordable transactions keep working *)
      (match
         Server.Registry.transact r [ M.Insert (edge (Term.Sym "x0") (Term.Sym "x1")) ]
       with
      | P.Committed { epoch = 1; _ } -> ()
      | _ -> Alcotest.fail "small txn after rebuild must commit");
      if durable then begin
        Server.Registry.close r;
        let r2 = open_registry () in
        Alcotest.check rows "reopened store serves the committed state" before
          (answers_exn r2 (path_q (n 0)));
        Server.Registry.close r2
      end)

(* [persist_wal_depth] counts the records journaled since the last
   checkpoint: every commit adds one, a checkpoint (every 3 records
   here) empties it, and a reopen over an abandoned registry starts at
   the replayed suffix. *)
let test_registry_wal_depth () =
  let p = program tc_src in
  with_scratch_dir "depth-db" (fun dir ->
      let open_registry () =
        Server.Registry.create ~strategy:Incr.Session.GMS ~db:dir ~checkpoint_every:3 p
          (path_q (n 0)) ~edb:(lazy (chain_edb 3 []))
      in
      let depth r = counter r "persist_wal_depth" in
      let commit r i =
        match Server.Registry.transact r [ M.Insert (edge (n (10 + i)) (n (11 + i))) ] with
        | P.Committed _ -> ()
        | _ -> Alcotest.failf "txn %d refused" i
      in
      let r = open_registry () in
      Alcotest.(check (float 0.)) "fresh store" 0. (depth r);
      let seen =
        List.map
          (fun i ->
            commit r i;
            depth r)
          [ 1; 2; 3; 4; 5 ]
      in
      Alcotest.(check (list (float 0.))) "depth per commit" [ 1.; 2.; 0.; 1.; 2. ] seen;
      (* [r] is abandoned: its two journaled records are replayed *)
      let r2 = open_registry () in
      Alcotest.(check (float 0.)) "replayed suffix" 2. (counter r2 "persist_replayed");
      Alcotest.(check (float 0.)) "depth after reopen" 2. (depth r2);
      Server.Registry.close r2;
      let r3 = open_registry () in
      Alcotest.(check (float 0.)) "depth after a clean close" 0. (depth r3);
      Server.Registry.close r3)

(* ------------------------------------------------------------------ *)
(* partitioned workload: the footprint cache keeps the unwritten side  *)
(* ------------------------------------------------------------------ *)

(* Two independent closures, tca over ea and tcb over eb, on chains of
   60.  One deterministic stream of 480 requests drives a [Partial] and
   a [Full] registry side by side: a transaction every 12 requests
   inserts an ea edge and the next one deletes it again, and the
   queries draw one of 6 keys on either side.  Every answer of both
   registries is checked against the reference engine on the current
   EDB.  Partial mode must then keep the unwritten side hot: a hit rate
   of at least 0.5 and above full mode's, with partial invalidations
   and in-place repairs, and no full wipe; full mode must do no partial
   work. *)
let test_partitioned_cache () =
  let n = 60 and requests = 480 and txn_every = 12 and keys = 6 in
  let p = W.partitioned_tc in
  let base = G.chain ~pred:"ea" ~prefix:"a" n @ G.chain ~pred:"eb" ~prefix:"b" n in
  let mk mode =
    Server.Registry.create ~strategy:Incr.Session.Original ~cache_mode:mode p
      (W.tca_query (G.node "a" 0)) ~edb:(lazy (G.db base))
  in
  let rp = mk Server.Registry.Partial and rf = mk Server.Registry.Full in
  let registries = [ rp; rf ] in
  let state = G.db base in
  (* (side, key, txns applied to the a side) -> reference rows; the b
     side is never written *)
  let memo = Hashtbl.create 64 in
  let applied = ref 0 in
  let reference on_b k q =
    let key = (on_b, k, if on_b then 0 else !applied) in
    match Hashtbl.find_opt memo key with
    | Some rows -> rows
    | None ->
      let rows = reference_rows p q (Engine.Database.copy state) in
      Hashtbl.replace memo key rows;
      rows
  in
  let rng = G.rng 0xCAFE in
  let pending = ref None in
  for t = 1 to requests do
    if t mod txn_every = 0 then begin
      let op =
        churn pending (fun () ->
            Atom.make "ea" [ G.node "a" (G.next rng ~bound:n); Term.Sym (Fmt.str "w_%d" t) ])
      in
      List.iter
        (fun r ->
          match Server.Registry.transact r [ op ] with
          | P.Committed _ -> ()
          | _ -> Alcotest.failf "txn %d refused" t)
        registries;
      apply_op state op;
      incr applied
    end
    else begin
      let on_b = G.next rng ~bound:2 = 1 in
      let k = G.next rng ~bound:keys in
      let q = if on_b then W.tcb_query (G.node "b" k) else W.tca_query (G.node "a" k) in
      let expected = reference on_b k q in
      List.iter
        (fun r ->
          match Server.Registry.query r q with
          | P.Answers { answers; _ } when answers = expected -> ()
          | P.Answers _ ->
            Alcotest.failf "request %d: %a diverges from the reference engine" t
              Atom.pp q
          | _ -> Alcotest.failf "request %d: query refused" t)
        registries
    end
  done;
  Alcotest.(check bool) "partial mode invalidates partially" true
    (counter rp "partial_invalidations" > 0.);
  Alcotest.(check bool) "partial mode repairs in place" true
    (counter rp "cache_repairs" > 0.);
  Alcotest.(check (float 0.)) "partial mode never wipes" 0.
    (counter rp "full_invalidations");
  Alcotest.(check (float 0.)) "full mode: no partial invalidation" 0.
    (counter rf "partial_invalidations");
  Alcotest.(check (float 0.)) "full mode: no repair" 0. (counter rf "cache_repairs");
  let hit_p = counter rp "cache_hit_rate" and hit_f = counter rf "cache_hit_rate" in
  if hit_p < 0.5 then Alcotest.failf "partial-mode hit rate %.4f below 0.5" hit_p;
  if hit_p <= hit_f then
    Alcotest.failf "partial-mode hit rate %.4f does not beat full mode's %.4f" hit_p
      hit_f

(* ------------------------------------------------------------------ *)
(* daemon end to end                                                   *)
(* ------------------------------------------------------------------ *)

(* serve [r] on an ephemeral TCP port with two worker domains and run
   [f] on that port; [f] must shut the daemon down over the socket,
   which is then joined *)
let with_daemon_port r f =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let port = ref None in
  let on_ready = function
    | Unix.ADDR_INET (_, p) ->
      Mutex.lock m;
      port := Some p;
      Condition.signal cv;
      Mutex.unlock m
    | _ -> ()
  in
  let daemon =
    Domain.spawn (fun () -> Server.Daemon.run ~jobs:2 ~on_ready (Server.Daemon.Tcp 0) r)
  in
  Mutex.lock m;
  while !port = None do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  let out = f (Option.get !port) in
  Domain.join daemon;
  Server.Registry.close r;
  out

let shutdown c =
  (match Server.Client.request c P.Shutdown with
  | P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "shutdown over the socket");
  Server.Client.close c

(* run [f] on one client connection, then shut down over it *)
let with_daemon r f =
  with_daemon_port r (fun port ->
      let c = Server.Client.tcp port in
      let out = f c in
      shutdown c;
      out)

let test_daemon_socket_roundtrip () =
  let p = program tc_src in
  let r =
    Server.Registry.create ~strategy:Incr.Session.GMS p (path_q (n 0))
      ~edb:(lazy (chain_edb 3 []))
  in
  with_daemon r (fun c ->
      (match Server.Client.request c (P.Query (path_q (n 0))) with
      | P.Answers { answers; _ } ->
        Alcotest.check rows "served answers"
          [ [ "n0"; "n1" ]; [ "n0"; "n2" ]; [ "n0"; "n3" ] ]
          answers
      | _ -> Alcotest.fail "query over the socket");
      (match Server.Client.request c (P.Txn [ M.Insert (edge (n 3) (n 4)) ]) with
      | P.Committed { epoch = 1; _ } -> ()
      | _ -> Alcotest.fail "txn over the socket");
      (match Server.Client.request c (P.Query (path_q (n 0))) with
      | P.Answers { epoch = 1; answers; _ } ->
        Alcotest.(check int) "post-txn count" 4 (List.length answers)
      | _ -> Alcotest.fail "re-read over the socket");
      match Server.Client.request c P.Stats with
      | P.Stats_reply fields ->
        Alcotest.(check (option string)) "epoch stat" (Some "1")
          (List.assoc_opt "epoch" fields)
      | _ -> Alcotest.fail "stats over the socket")

(* regression: the daemon and the client each closed a connection's
   descriptor twice (the out channel, then the raw fd).  The shutdown
   poke could be handed the freed number in between, so the stray
   second close killed it and its own close raised EBADF out of the
   worker domain.  Each cycle is a fresh daemon with two workers. *)
let test_daemon_shutdown_loop () =
  let p = program tc_src in
  for _ = 1 to 200 do
    let r =
      Server.Registry.create ~strategy:Incr.Session.GMS p (path_q (n 0))
        ~edb:(lazy (chain_edb 3 []))
    in
    with_daemon r (fun c ->
        match Server.Client.request c (P.Query (path_q (n 0))) with
        | P.Answers { answers; _ } ->
          Alcotest.(check int) "served answers" 3 (List.length answers)
        | _ -> Alcotest.fail "query over the socket")
  done

(* Two client domains against one daemon over a GMS chain of 100: each
   sends 150 requests, tc(n_k, Ans) queries with a one-edge transaction
   every 25 (insert an auxiliary edge, and delete it at the next).
   Every reply carries its epoch, so afterwards the EDB behind each
   answer is rebuilt by replaying the committed transactions in epoch
   order, and every answer set is checked against the reference engine
   on that state.  Two clients, not more: each connection pins one of
   the daemon's two workers until it disconnects. *)
let test_concurrent_reads_verified () =
  let n = 100 and per_client = 150 and txn_every = 25 in
  let p = W.transitive_closure in
  let base = G.chain n in
  let r =
    Server.Registry.create ~strategy:Incr.Session.GMS p (W.tc_query (G.node "n" 0))
      ~edb:(lazy (G.db base))
  in
  (* one client's stream: its (epoch, (k, rows)) answers and its
     (epoch, op) commits *)
  let client port i =
    let c = Server.Client.tcp port in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        let rng = G.rng (0x5EED + (31 * i)) in
        let queries = ref [] and txns = ref [] and pending = ref None in
        for t = 1 to per_client do
          if t mod txn_every = 0 then begin
            let op =
              churn pending (fun () ->
                  edge (G.node "n" (G.next rng ~bound:n)) (Term.Sym (Fmt.str "x_%d_%d" i t)))
            in
            match Server.Client.request c (P.Txn [ op ]) with
            | P.Committed { epoch; _ } -> txns := (epoch, op) :: !txns
            | _ -> Alcotest.fail "txn over the socket"
          end
          else begin
            let k = G.next rng ~bound:n in
            match Server.Client.request c (P.Query (W.tc_query (G.node "n" k))) with
            | P.Answers { epoch; answers; _ } -> queries := (epoch, (k, answers)) :: !queries
            | _ -> Alcotest.fail "query over the socket"
          end
        done;
        (!queries, !txns))
  in
  let results =
    with_daemon_port r (fun port ->
        let doms = List.init 2 (fun i -> Domain.spawn (fun () -> client port i)) in
        let joined = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) doms in
        shutdown (Server.Client.tcp port);
        List.map (function Ok x -> x | Error e -> raise e) joined)
  in
  let by_epoch l = List.stable_sort (fun (e1, _) (e2, _) -> Int.compare e1 e2) l in
  let txns = by_epoch (List.concat_map snd results) in
  let queries = by_epoch (List.concat_map fst results) in
  Alcotest.(check int) "every request answered" (2 * per_client)
    (List.length txns + List.length queries);
  let state = G.db base in
  let memo = Hashtbl.create 64 (* (txns applied, k) -> reference rows *) in
  let applied = ref 0 in
  let reference k =
    match Hashtbl.find_opt memo (!applied, k) with
    | Some rows -> rows
    | None ->
      let rows = reference_rows p (W.tc_query (G.node "n" k)) (Engine.Database.copy state) in
      Hashtbl.replace memo (!applied, k) rows;
      rows
  in
  let rec verify txns queries =
    match (txns, queries) with
    | _, [] -> ()
    | (te, op) :: txns', (qe, _) :: _ when te <= qe ->
      (* the answer was served at or after this commit: apply it first *)
      apply_op state op;
      incr applied;
      verify txns' queries
    | _, (qe, (k, rows)) :: queries' ->
      if rows <> reference k then
        Alcotest.failf "tc(n_%d, Ans) served at epoch %d diverges from the reference engine"
          k qe;
      verify txns queries'
  in
  verify txns queries

(* ------------------------------------------------------------------ *)
(* daemon restart over a durable store                                 *)
(* ------------------------------------------------------------------ *)

let test_daemon_restart_durable () =
  let p = program tc_src in
  with_scratch_dir "serve-db" (fun dir ->
      (* first lifetime: serve, commit a transaction, shut down cleanly *)
      let r1 =
        Server.Registry.create ~strategy:Incr.Session.GMS ~db:dir p
          (path_q (n 0)) ~edb:(lazy (chain_edb 3 []))
      in
      with_daemon r1 (fun c ->
          (match Server.Client.request c (P.Txn [ M.Insert (edge (n 3) (n 4)) ]) with
          | P.Committed { epoch = 1; _ } -> ()
          | _ -> Alcotest.fail "txn in the first lifetime");
          match Server.Client.request c (P.Query (path_q (n 0))) with
          | P.Answers { answers; _ } ->
            Alcotest.(check int) "first-lifetime count" 4 (List.length answers)
          | _ -> Alcotest.fail "query in the first lifetime");
      (* second lifetime on the same directory: the edb argument is
         ignored — disk wins — and epochs restart at 0 *)
      let r2 =
        Server.Registry.create ~strategy:Incr.Session.GMS ~db:dir p
          (path_q (n 0)) ~edb:(lazy (Engine.Database.of_facts []))
      in
      Alcotest.(check int) "epoch restarts at 0" 0 (Server.Registry.epoch r2);
      Alcotest.(check (option string)) "restored from disk" (Some "true")
        (List.assoc_opt "persist_restored" (Server.Registry.stats_fields r2));
      with_daemon r2 (fun c ->
          (* a fresh cache: both reads are misses over the relations
             the store reopened *)
          (match Server.Client.request c (P.Query (path_q (n 0))) with
          | P.Answers { epoch = 0; cache_hit = false; answers; _ } ->
            Alcotest.check rows "state carried across restart"
              [ [ "n0"; "n1" ]; [ "n0"; "n2" ]; [ "n0"; "n3" ]; [ "n0"; "n4" ] ]
              answers
          | _ -> Alcotest.fail "re-query after restart must miss the cache");
          (match Server.Client.request c (P.Query (path_q (n 2))) with
          | P.Answers { epoch = 0; cache_hit = false; answers; _ } ->
            Alcotest.check rows "miss inside the reopened cone"
              [ [ "n2"; "n3" ]; [ "n2"; "n4" ] ]
              answers
          | _ -> Alcotest.fail "second miss after restart");
          (* the restarted daemon keeps committing from a fresh epoch 0 *)
          match Server.Client.request c (P.Txn [ M.Delete (edge (n 3) (n 4)) ]) with
          | P.Committed { epoch = 1; _ } -> ()
          | _ -> Alcotest.fail "txn in the second lifetime"))

(* ------------------------------------------------------------------ *)
(* property: serve-loop reads equal from-scratch evaluation            *)
(* ------------------------------------------------------------------ *)

let gen_edge_op =
  let open QCheck2.Gen in
  let* a = int_bound 6 in
  let* b = int_bound 6 in
  map (fun del -> if del then M.Delete (edge (n a) (n b)) else M.Insert (edge (n a) (n b))) bool

let prop_serve_consistency =
  qtest ~count:30 "serve: reads equal scratch after each txn"
    QCheck2.Gen.(
      list_size (int_range 1 6) (pair gen_edge_op (int_bound 6)))
    (fun steps ->
      let p = program tc_src in
      let base = List.init 4 (fun i -> edge (n i) (n (i + 1))) in
      let r =
        Server.Registry.create ~strategy:Incr.Session.GMS p (path_q (n 0))
          ~edb:(lazy (Engine.Database.of_facts base))
      in
      let mirror = Engine.Database.of_facts base in
      List.for_all
        (fun (op, k) ->
          (match Server.Registry.transact r [ op ] with
          | P.Committed _ -> ()
          | P.Error { message; _ } -> Alcotest.failf "txn refused: %s" message
          | _ -> Alcotest.fail "unexpected txn reply");
          apply_op mirror op;
          (* the read runs on another domain, through the snapshot *)
          let served =
            Domain.join
              (Domain.spawn (fun () -> Server.Registry.query r (path_q (n k))))
          in
          match served with
          | P.Answers { answers; _ } ->
            answers
            = reference_rows p (path_q (n k)) (Engine.Database.copy mirror)
          | P.Error { message; _ } -> Alcotest.failf "read failed: %s" message
          | _ -> false)
        steps)

(* ------------------------------------------------------------------ *)
(* property: partial invalidation/repair is answer-invisible           *)
(* ------------------------------------------------------------------ *)

let tc_neg_src =
  tc_src ^ "\nblocked(X, Y) :- edge(X, Y), not bad(X).\nbad(X) :- poison(X)."

let gen_mixed_op =
  let open QCheck2.Gen in
  let* which = int_bound 3 in
  let* a = int_bound 6 in
  let* b = int_bound 6 in
  let at = if which = 3 then Atom.make "poison" [ n a ] else edge (n a) (n b) in
  map (fun del -> if del then M.Delete at else M.Insert at) bool

let gen_step =
  let open QCheck2.Gen in
  oneof
    [
      map (fun op -> `Txn op) gen_mixed_op;
      map (fun k -> `Query (`Path, k)) (int_bound 6);
      map (fun k -> `Query (`Blocked, k)) (int_bound 6);
    ]

(* a registry with partial invalidation and repair serves byte-identical
   answers to one that wipes its cache on every commit, across random
   interleavings of transactions, queries (drawn twice, so hit paths are
   compared too) and — under GMS — dynamic seed installs *)
let prop_partial_equals_full =
  qtest ~count:30 "serve: partial cache = full cache (differential)"
    QCheck2.Gen.(pair bool (list_size (int_range 2 12) gen_step))
    (fun (use_gms, steps) ->
      let strategy = if use_gms then Incr.Session.GMS else Incr.Session.Original in
      (* negation only under [Original]: it keeps the magic cone of the
         GMS variant clean while exercising non-neg-free footprints *)
      let src = if use_gms then tc_src else tc_neg_src in
      let p = program src in
      let base = List.init 4 (fun i -> edge (n i) (n (i + 1))) in
      let mk mode =
        Server.Registry.create ~strategy ~cache_mode:mode p (path_q (n 0))
          ~edb:(lazy (Engine.Database.of_facts base))
      in
      let rp = mk Server.Registry.Partial in
      let rf = mk Server.Registry.Full in
      let answers_of = function
        | P.Answers { answers; _ } -> Some answers
        | _ -> None
      in
      List.for_all
        (fun step ->
          match step with
          | `Txn op -> (
            match
              (Server.Registry.transact rp [ op ], Server.Registry.transact rf [ op ])
            with
            | P.Committed { epoch = e1; _ }, P.Committed { epoch = e2; _ } ->
              e1 = e2
            | P.Error _, P.Error _ -> true
            | _ -> false)
          | `Query (kind, k) ->
            let qa =
              match kind with
              | `Path -> path_q (n k)
              | `Blocked ->
                if use_gms then path_q (n k)
                else Atom.make "blocked" [ n k; Term.Var "Ans" ]
            in
            answers_of (Server.Registry.query rp qa)
            = answers_of (Server.Registry.query rf qa)
            && answers_of (Server.Registry.query rp qa)
               = answers_of (Server.Registry.query rf qa))
        steps)

let suite =
  [
    Alcotest.test_case "protocol: request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol: response roundtrip" `Quick
      test_response_roundtrip;
    Alcotest.test_case "protocol: decode errors" `Quick test_decode_errors;
    Alcotest.test_case "rwlock: writes exclusive" `Quick
      test_rwlock_writes_exclusive;
    Alcotest.test_case "snapshot: stable under insert" `Quick
      test_snapshot_stable_under_insert;
    prop_snapshot_matching_is_filter;
    Alcotest.test_case "registry: cache discipline" `Quick test_registry_cache;
    Alcotest.test_case "registry: full mode wipes, partial retains" `Quick
      test_registry_full_mode_wipes;
    Alcotest.test_case "registry: reads after a commit see it" `Quick
      test_reads_after_commit;
    Alcotest.test_case "registry: derived op refused" `Quick
      test_registry_rejects_derived_op;
    Alcotest.test_case "registry: no-op commit advances cached epoch" `Quick
      test_noop_commit_advances_cached_epoch;
    Alcotest.test_case "registry: budget recovery" `Quick
      (test_registry_budget_recovery ~durable:false ~blowout:`Txn);
    Alcotest.test_case "registry: budget recovery (durable)" `Quick
      (test_registry_budget_recovery ~durable:true ~blowout:`Txn);
    Alcotest.test_case "registry: seed-install budget recovery" `Quick
      (test_registry_budget_recovery ~durable:false ~blowout:`Install);
    Alcotest.test_case "registry: seed-install budget recovery (durable)" `Quick
      (test_registry_budget_recovery ~durable:true ~blowout:`Install);
    Alcotest.test_case "registry: wal depth in stats" `Quick test_registry_wal_depth;
    Alcotest.test_case "registry: partitioned cache beats full wipe" `Quick
      test_partitioned_cache;
    Alcotest.test_case "daemon: socket roundtrip" `Quick
      test_daemon_socket_roundtrip;
    Alcotest.test_case "daemon: restart over a durable store" `Quick
      test_daemon_restart_durable;
    Alcotest.test_case "daemon: shutdown loop" `Quick test_daemon_shutdown_loop;
    Alcotest.test_case "daemon: concurrent reads verified per epoch" `Quick
      test_concurrent_reads_verified;
    prop_serve_consistency;
    prop_partial_equals_full;
  ]
