(* Durable sessions: snapshot/WAL round-trips, crash-recovery fault
   injection, and the golden on-disk corpus under data/db.

   The discipline under test is the commit protocol of Persist.Store:
   journal-after-apply with fsync before acknowledgement, checkpoints
   published by atomic rename.  Every fault scenario must therefore end
   in one of exactly two outcomes: recovery to a state extensionally
   equal to some acknowledged prefix of the history, or a refusal with a
   located Codec.Corrupt diagnostic.  Anything else — a crash, a
   silently wrong state, an unlocated error — is a bug. *)

open Datalog
module H = Helpers
module Store = Persist.Store
module Session = Incr.Session
module Io = Persist.Io
module Codec = Persist.Codec
module Wal = Persist.Wal

let sorted = List.sort Engine.Tuple.compare
let answers_of session = sorted (Session.answers session)
let store_answers st = answers_of (Store.session st)

(* every test gets a fresh scratch directory under the system tmpdir *)
let tmp_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "magic-test-persist-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf d;
  d

let copy_file src dst =
  let data = Io.read_file src in
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let copy_store src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  copy_file (Store.snapshot_path src) (Store.snapshot_path dst);
  copy_file (Store.wal_path src) (Store.wal_path dst)

let flip_byte path off =
  let data = Bytes.of_string (Io.read_file path) in
  Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x5a));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* the corrupt-or-recover contract: opening must either succeed or
   raise a located diagnostic — never any other exception *)
let open_outcome ?strategy ~dir program query ~edb =
  match Store.open_or_create ?strategy ~dir program query ~edb with
  | st -> `Opened st
  | exception Codec.Corrupt _ -> `Refused

(* ------------------------------------------------------------------ *)
(* checksum and basic round-trips                                      *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  Alcotest.(check int32)
    "IEEE check value" 0xCBF43926l
    (Persist.Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Persist.Crc32.digest "");
  Alcotest.(check int32)
    "digest_sub agrees" (Persist.Crc32.digest "3456")
    (Persist.Crc32.digest_sub "123456789" ~pos:2 ~len:4)

(* the slicing-by-8 digest against the definition: one byte at a time
   over the standard table, at every offset and length the generator
   picks (short strings, and lengths around multiples of 8, so both the
   8-byte stride and the byte tail run with every alignment) *)
let crc_reference s ~pos ~len =
  let table n =
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    !c
  in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := table ((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let qcheck_crc_slicing =
  let open QCheck2.Gen in
  let length =
    oneof
      [
        int_range 0 40;
        map (fun (k, d) -> (8 * k) + d) (pair (int_range 1 40) (int_range (-1) 1));
      ]
  in
  let gen =
    length >>= fun n ->
    string_size ~gen:char (return n) >>= fun s ->
    int_range 0 n >>= fun pos ->
    int_range 0 (n - pos) >>= fun len -> return (s, pos, len)
  in
  H.qtest ~count:500
    ~print:(fun (s, pos, len) -> Fmt.str "%S ~pos:%d ~len:%d" s pos len)
    "crc32 slicing-by-8 = bytewise reference" gen
    (fun (s, pos, len) ->
      Int32.equal (Persist.Crc32.digest_sub s ~pos ~len) (crc_reference s ~pos ~len))

(* a directory fsync that fails must surface, or a checkpoint could
   publish a snapshot whose rename never reached the disk *)
let test_fsync_dir_errors () =
  let dir = fresh_dir () in
  Alcotest.(check bool)
    "missing directory raises" true
    (match Io.fsync_dir dir with
    | () -> false
    | exception Unix.Unix_error _ -> true);
  Unix.mkdir dir 0o755;
  Io.fsync_dir dir;
  rm_rf dir

(* a session whose EDB holds compound (App) terms: the pool section must
   re-intern children before parents and remap every tuple *)
let app_src =
  "a(X, Y) :- p(X, Y).\n\
   a(X, Y) :- p(X, Z), a(Z, Y).\n\
   p(f(n0), f(n1)). p(f(n1), g(f(n2), 7)).\n\
   ?- a(f(n0), Ans)."

let test_snapshot_roundtrip_app_terms () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  let live = store_answers st in
  Alcotest.(check int) "two answers live" 2 (List.length live);
  ignore
    (Store.update st [ Incr.Maintain.Insert (H.atom "p(g(f(n2), 7), f(n3))") ]);
  let live = store_answers st in
  Store.close st;
  let st2 = Store.open_or_create ~dir program query ~edb:(lazy edb) in
  Alcotest.check H.tuple_list "reopened answers" live (store_answers st2);
  Alcotest.(check bool) "restored" true (Store.restored st2);
  Store.close st2;
  rm_rf dir

(* the store refuses to reopen under a different program or strategy,
   with a diagnostic that names the snapshot's META section *)
let test_reopen_mismatch_refused () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  Store.close st;
  let other = H.program "a(X, Y) :- q(X, Y)." in
  (match Store.open_or_create ~dir other query ~edb:(lazy edb) with
  | _ -> Alcotest.fail "foreign program accepted"
  | exception Codec.Corrupt c ->
    Alcotest.(check string) "META named" "META" c.section);
  (match Store.open_or_create ~strategy:Session.Original ~dir
      program query ~edb:(lazy edb) with
  | _ -> Alcotest.fail "foreign strategy accepted"
  | exception Codec.Corrupt c ->
    Alcotest.(check bool) "strategy diagnostic" true
      (contains ~sub:"strategy" c.message));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* qcheck: save/reopen is invisible next to a never-persisted session  *)
(* and next to an in-memory store                                      *)
(* ------------------------------------------------------------------ *)

let gen_op =
  let open QCheck2.Gen in
  let* ins = bool in
  let* p = int_bound 2 in
  let* a = int_bound 6 in
  let* b = int_bound 6 in
  let atom =
    Atom.make
      (Fmt.str "e%d" p)
      [ Term.Sym (Fmt.str "n%d" a); Term.Sym (Fmt.str "n%d" b) ]
  in
  return (if ins then Incr.Maintain.Insert atom else Incr.Maintain.Delete atom)

let gen_persist_case =
  let open QCheck2.Gen in
  let* src = H.gen_random_program in
  let* edb = H.gen_random_edb in
  let* txns = list_size (int_range 0 4) (list_size (int_range 1 4) gen_op) in
  let* close_before_reopen = bool in
  return (src, edb, txns, close_before_reopen)

let run_differential strategy (src, facts, txns, close_before_reopen) =
  let program = H.program src in
  let query = Atom.make "i0" [ Term.Sym "n0"; Term.Var "Ans" ] in
  let edb = Engine.Database.of_facts facts in
  let reference = Session.create ~strategy program query ~edb in
  let dir = fresh_dir () in
  (* checkpoint_every=2: most histories cross at least one snapshot
     rewrite, so both the replay path and the checkpoint path run *)
  let st =
    Store.open_or_create ~strategy ~checkpoint_every:2 ~dir program query ~edb:(lazy edb)
  in
  let mem = Store.open_or_create ~strategy program query ~edb:(lazy edb) in
  List.iter
    (fun ops ->
      ignore (Session.update reference ops);
      ignore (Store.update st ops);
      ignore (Store.update mem ops))
    txns;
  let expected = answers_of reference in
  if store_answers st <> expected then
    QCheck2.Test.fail_reportf "live store diverged on %s" src;
  if store_answers mem <> expected then
    QCheck2.Test.fail_reportf "in-memory store diverged on %s" src;
  if close_before_reopen then Store.close st;
  (* else: the handle is abandoned mid-life — the crash case; every
     acknowledged commit was fsynced, so reopening must still agree *)
  let st2 = Store.open_or_create ~strategy ~checkpoint_every:2 ~dir
      program query ~edb:(lazy edb) in
  let got = store_answers st2 in
  Store.close st2;
  rm_rf dir;
  if got <> expected then
    QCheck2.Test.fail_reportf "reopened store diverged on %s (%d txns, %s)" src
      (List.length txns)
      (if close_before_reopen then "closed" else "abandoned");
  true

let qcheck_roundtrip_original =
  H.qtest ~count:25 "save/reopen = never persisted (original)" gen_persist_case
    (run_differential Session.Original)

let qcheck_roundtrip_gms =
  H.qtest ~count:25 "save/reopen = never persisted (gms)" gen_persist_case
    (run_differential Session.GMS)

(* A checkpoint writes live tuples only.  After a random history and a
   checkpoint, every relation of the reloaded snapshot has [size =
   cardinal] and iterates the live relation's tuples in the same order;
   after a further history journaled to the WAL and an abandoned
   handle, the reopened store (snapshot plus replay) answers as the
   live one did. *)
let gen_compaction_case =
  let open QCheck2.Gen in
  let* case = gen_persist_case in
  let* suffix = list_size (int_range 0 3) (list_size (int_range 1 4) gen_op) in
  return (case, suffix)

let check_compacted_reload ((src, facts, txns, _), suffix) =
  let module Rel = Engine.Relation in
  let program = H.program src in
  let query = Atom.make "i0" [ Term.Sym "n0"; Term.Var "Ans" ] in
  let edb = lazy (Engine.Database.of_facts facts) in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st =
        Store.open_or_create ~strategy:Session.GMS ~checkpoint_every:0 ~dir program query
          ~edb
      in
      List.iter (fun ops -> ignore (Store.update st ops)) txns;
      Store.checkpoint st;
      let live = Session.db (Store.session st) in
      let _, image = Persist.Snapshot_file.load (Store.snapshot_path dir) in
      let reloaded = image.Incr.Maintain.im_db in
      List.iter
        (fun sym ->
          let r = Engine.Database.relation live sym in
          let r' = Engine.Database.relation reloaded sym in
          if Rel.size r' <> Rel.cardinal r' then
            QCheck2.Test.fail_reportf "%a reloaded with %d dead slots" Symbol.pp sym
              (Rel.size r' - Rel.cardinal r');
          if not (List.equal Engine.Tuple.equal (Rel.to_list r) (Rel.to_list r')) then
            QCheck2.Test.fail_reportf "%a reloaded out of order" Symbol.pp sym)
        (Engine.Database.symbols live);
      List.iter (fun ops -> ignore (Store.update st ops)) suffix;
      let expected = store_answers st in
      (* [st] is abandoned: the suffix is only in the WAL *)
      let st2 = Store.open_or_create ~checkpoint_every:0 ~dir program query ~edb in
      let got = store_answers st2 in
      let replayed = Store.replayed st2 in
      Store.close st2;
      if replayed <> List.length suffix then
        QCheck2.Test.fail_reportf "replayed %d of %d records" replayed (List.length suffix);
      if got <> expected then QCheck2.Test.fail_reportf "reopened store diverged on %s" src;
      true)

let qcheck_compacted_reload =
  H.qtest ~count:25 "checkpoint reload = live store" gen_compaction_case
    check_compacted_reload

(* ------------------------------------------------------------------ *)
(* a durable session's life: checkpoint, journal, abandon, reopen      *)
(* ------------------------------------------------------------------ *)

(* Non-linear ancestor over a chain, a GMS session queried at the
   middle.  The answers must equal the never-persisted session after a
   checkpoint, after journaled delete/re-add pairs on the tail edge of
   the cone, and after a reopen of an abandoned handle — which must
   report a restore that replayed exactly the WAL suffix written since
   the last checkpoint. *)
let test_reopen_replays_suffix () =
  let module G = Workload.Generate in
  let module W = Workload.Programs in
  let n = 120 in
  let program = W.nonlinear_ancestor in
  let edb () = G.db (G.chain ~pred:"p" n) in
  let q = W.ancestor_query (G.node "n" (n / 2)) in
  let expected =
    answers_of (Session.create ~strategy:Session.GMS program q ~edb:(edb ()))
  in
  Alcotest.check H.tuple_list "session = one-shot gms" expected
    (H.sorted_answers (H.run_method "gms" program q (edb ())));
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st =
        Store.open_or_create ~strategy:Session.GMS ~checkpoint_every:0 ~dir program q
          ~edb:(lazy (edb ()))
      in
      Store.checkpoint st;
      Alcotest.check H.tuple_list "after checkpoint" expected (store_answers st);
      let tail = Atom.make "p" [ G.node "n" (n - 1); G.node "n" n ] in
      for _ = 1 to 3 do
        ignore (Store.update st [ Incr.Maintain.Delete tail ]);
        ignore (Store.update st [ Incr.Maintain.Insert tail ])
      done;
      Alcotest.check H.tuple_list "after journaled txns" expected (store_answers st);
      (* fold that history into the snapshot, then journal a suffix of
         transactions outside the cone *)
      Store.checkpoint st;
      let journaled = 4 in
      for i = 1 to journaled do
        let aux = Atom.make "p" [ G.node "aux" i; G.node "aux" (i + 100) ] in
        ignore (Store.update st [ Incr.Maintain.Insert aux ])
      done;
      (* [st] is abandoned, not closed: every record is already fsynced *)
      let st2 =
        Store.open_or_create ~strategy:Session.GMS ~checkpoint_every:0 ~dir program q
          ~edb:(lazy (edb ()))
      in
      Alcotest.check H.tuple_list "after reopen" expected (store_answers st2);
      Alcotest.(check bool) "restored" true (Store.restored st2);
      Alcotest.(check int) "replayed the journaled suffix" journaled (Store.replayed st2);
      Store.close st2)

(* ------------------------------------------------------------------ *)
(* the two backings agree                                              *)
(* ------------------------------------------------------------------ *)

(* One script through an in-memory and an on-disk store: transactions,
   a compatible query (a seed install), a budget blowout, an
   incompatible query that forces a reset, and commits after it.  After
   every step both stores answer the current query alike, and so does
   the disk store once closed and reopened. *)
let test_backings_agree () =
  let program =
    H.program "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y)."
  in
  let edge a b = H.atom (Fmt.str "edge(%s, %s)" a b) in
  let chain pfx k =
    List.init k (fun i -> edge (Fmt.str "%s%d" pfx i) (Fmt.str "%s%d" pfx (i + 1)))
  in
  (* short chains from n0 and k0, and a long one outside both cones *)
  let edb = Engine.Database.of_facts (chain "n" 4 @ chain "k" 3 @ chain "m" 40) in
  let dir = fresh_dir () in
  let open_store ?dir () =
    Store.open_or_create ~strategy:Session.GMS ~max_facts:60 ?dir program
      (H.atom "path(n0, Y)") ~edb:(lazy edb)
  in
  let mem = open_store () in
  let disk = ref (open_store ~dir ()) in
  let current = ref (H.atom "path(n0, Y)") in
  let answers st =
    match Store.query st !current with
    | a, _ -> sorted a
    | exception Session.Incompatible_query _ ->
      sorted (Session.answers (Store.reset st !current))
  in
  let agree step =
    let want = answers mem in
    Alcotest.check H.tuple_list (step ^ ": disk = memory") want (answers !disk);
    Store.close !disk;
    disk := open_store ~dir ();
    Alcotest.check H.tuple_list (step ^ ": reopened disk = memory") want (answers !disk)
  in
  let txn step ops =
    List.iter (fun st -> ignore (Store.update st ops)) [ mem; !disk ];
    agree step
  in
  let blowout step ops =
    List.iter
      (fun st ->
        let facts () = Engine.Database.total (Session.db (Store.session st)) in
        let before = facts () in
        match Store.update st ops with
        | _ -> Alcotest.failf "%s must exceed max-facts 60" step
        | exception Incr.Maintain.Budget_exhausted ->
          Alcotest.(check int) (step ^ ": no half-applied fact") before (facts ()))
      [ mem; !disk ];
    agree step
  in
  let query step q =
    current := H.atom q;
    agree step
  in
  Fun.protect
    ~finally:(fun () ->
      Store.close !disk;
      rm_rf dir)
    (fun () ->
      agree "open";
      txn "insert" [ Incr.Maintain.Insert (edge "n4" "n5") ];
      query "compatible query" "path(k0, Y)";
      txn "delete" [ Incr.Maintain.Delete (edge "n1" "n2") ];
      (* the installed k0 cone reaches the long chain: quadratic paths *)
      blowout "budget blowout" [ Incr.Maintain.Insert (edge "k3" "m0") ];
      txn "re-insert" [ Incr.Maintain.Insert (edge "n1" "n2") ];
      query "incompatible query" "path(X, n3)";
      txn "insert after reset" [ Incr.Maintain.Insert (edge "x0" "n0") ];
      query "compatible after reset" "path(X, n1)";
      Alcotest.(check int) "x0 reaches n1" 2 (List.length (answers mem)))

(* ------------------------------------------------------------------ *)
(* an install of already-derived seeds is committed state              *)
(* ------------------------------------------------------------------ *)

(* what recovery must reproduce: every fact, the external support, and
   the current query *)
let image_of st =
  let session = Store.session st in
  let im = Session.image session in
  let external_ =
    List.concat_map
      (fun (sym, tus) -> List.map (fun tu -> Fmt.str "%a%a" Symbol.pp sym Engine.Tuple.pp tu) tus)
      im.Session.i_maintain.Incr.Maintain.im_external
  in
  ( List.sort compare (List.map Atom.to_string (Engine.Database.all_facts (Session.db session))),
    List.sort compare external_,
    Atom.to_string im.Session.i_query )

(* GMS ancestor over p(n0, n1) … p(n9, n10).  Asking a(n5, Y) after
   a(n0, Y) installs a seed that is already derived: no fact changes,
   but the seed becomes external support and a(n5, Y) the current
   query.  Deleting p(n2, n3) then cuts n5's cone off from n0's, and the
   live session keeps it: 36 facts, 5 answers.  Recovering the committed
   state — after a blown budget in memory, by reopening over an
   abandoned handle on disk — must bring back that same image. *)
let test_derived_seed_install_recovered ~durable () =
  let module G = Workload.Generate in
  let module W = Workload.Programs in
  let q i = W.ancestor_query (G.node "n" i) in
  let p i j = Atom.make "p" [ G.node "n" i; G.node "n" j ] in
  let dir = fresh_dir () in
  let open_store () =
    Store.open_or_create ~strategy:Session.GMS ~max_facts:100
      ?dir:(if durable then Some dir else None)
      W.ancestor (q 0) ~edb:(lazy (G.db (G.chain ~pred:"p" 10)))
  in
  let image = Alcotest.(triple (list string) (list string) string) in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = open_store () in
      ignore (Store.query st (q 0));
      ignore (Store.query st (q 5));
      ignore (Store.update st [ Incr.Maintain.Delete (p 2 3) ]);
      let ((facts, _, query) as live) = image_of st in
      Alcotest.(check int) "live facts" 36 (List.length facts);
      Alcotest.(check string) "live query" (Atom.to_string (q 5)) query;
      Alcotest.(check int) "live answers" 5 (List.length (store_answers st));
      let recovered =
        if durable then open_store ()
        else begin
          (* closing the chain into a cycle puts every node in the cone *)
          (match Store.update st Incr.Maintain.[ Insert (p 2 3); Insert (p 10 0) ] with
          | _ -> Alcotest.fail "the cycle must exceed max-facts 100"
          | exception Incr.Maintain.Budget_exhausted -> ());
          st
        end
      in
      Alcotest.check image "recovered image = live image" live (image_of recovered);
      Alcotest.(check int) "recovered answers" 5 (List.length (store_answers recovered));
      Store.close recovered)

(* ------------------------------------------------------------------ *)
(* fault injection: crash mid-checkpoint                               *)
(* ------------------------------------------------------------------ *)

(* A checkpoint that dies mid-write must leave the published snapshot
   untouched: the write goes to a tmp file and the rename never runs.
   Sweep the crash point over the whole file. *)
let test_crash_mid_checkpoint () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  ignore
    (Store.update st [ Incr.Maintain.Insert (H.atom "p(g(f(n2), 7), f(n3))") ]);
  Store.close st;
  let expected =
    let st = Store.open_or_create ~dir program query ~edb:(lazy edb) in
    let a = store_answers st in
    Store.close st;
    a
  in
  let size = String.length (Io.read_file (Store.snapshot_path dir)) in
  let meta =
    {
      Persist.Snapshot_file.strategy = "gms";
      query = Atom.to_string query;
      program_digest = Store.program_digest program;
    }
  in
  let image =
    let st = Store.open_or_create ~dir program query ~edb:(lazy edb) in
    let im = Session.image (Store.session st) in
    Store.close st;
    im.Session.i_maintain
  in
  List.iter
    (fun budget ->
      (match
         Persist.Snapshot_file.save
           ~sink_of:(fun p -> Io.crash_after budget (Io.file p))
           ~path:(Store.snapshot_path dir) ~meta image
       with
      | () -> Alcotest.failf "crash_after %d did not crash" budget
      | exception Io.Crash -> ());
      let st = Store.open_or_create ~dir program query ~edb:(lazy edb) in
      let got = store_answers st in
      Store.close st;
      if got <> expected then
        Alcotest.failf "state lost after checkpoint crash at byte %d" budget)
    [ 0; 1; 7; 11; 12; 13; size / 3; size / 2; size - 5; size - 1 ];
  rm_rf dir

(* A snapshot file that is itself truncated (they are published by
   atomic rename, so this models media damage, not a crash) must be
   refused with a located diagnostic at every truncation point — never
   crash, never load garbage. *)
let test_truncated_snapshot_refused () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  Store.close st;
  let data = Io.read_file (Store.snapshot_path dir) in
  let size = String.length data in
  let dir2 = fresh_dir () in
  let points =
    List.filter (fun k -> k >= 0 && k < size)
      [ 0; 1; 7; 8; 11; 12; 13; 20; size / 4; size / 2; size - 17; size - 1 ]
  in
  List.iter
    (fun k ->
      copy_store dir dir2;
      let oc = open_out_bin (Store.snapshot_path dir2) in
      output_string oc (String.sub data 0 k);
      close_out oc;
      match open_outcome ~dir:dir2 program query ~edb:(lazy edb) with
      | `Opened _ -> Alcotest.failf "snapshot truncated to %d bytes loaded" k
      | `Refused -> ())
    points;
  rm_rf dir;
  rm_rf dir2

(* flipping any checksummed byte must be caught by the CRC and reported
   against the right section *)
let test_snapshot_bitflip_located () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  Store.close st;
  let spath = Store.snapshot_path dir in
  let data = Io.read_file spath in
  (* walk the section framing to find each payload's extent *)
  let sections = ref [] in
  let pos = ref 12 in
  while !pos < String.length data do
    let tag = String.sub data !pos 4 in
    let plen =
      Char.code data.[!pos + 4]
      lor (Char.code data.[!pos + 5] lsl 8)
      lor (Char.code data.[!pos + 6] lsl 16)
      lor (Char.code data.[!pos + 7] lsl 24)
    in
    if plen > 0 then sections := (tag, !pos + 8, plen) :: !sections;
    pos := !pos + 12 + plen
  done;
  Alcotest.(check bool) "found checksummed sections" true (List.length !sections >= 4);
  List.iter
    (fun (tag, off, plen) ->
      copy_file spath (spath ^ ".orig");
      flip_byte spath (off + (plen / 2));
      (match Store.open_or_create ~dir program query ~edb:(lazy edb) with
      | _ -> Alcotest.failf "bit flip in %s went undetected" tag
      | exception Codec.Corrupt c ->
        Alcotest.(check string) (tag ^ " named") tag c.section;
        Alcotest.(check bool) (tag ^ " locates the file") true (c.file = spath));
      copy_file (spath ^ ".orig") spath)
    !sections;
  rm_rf dir

(* the u32 at [off] of [data] *)
let u32_at data off = Int32.to_int (String.get_int32_le data off) land 0xFFFFFFFF

(* A RELS section whose checksum is valid but whose relation holds the
   same tuple in two live slots: the CRC cannot catch it, so the
   relation rebuild must, and the refusal must name RELS.  The payload
   is rewritten in place (tuple 1 := tuple 0) and re-checksummed. *)
let test_duplicate_live_tuple_refused () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  Store.close st;
  let spath = Store.snapshot_path dir in
  let data = Bytes.of_string (Io.read_file spath) in
  let s () = Bytes.unsafe_to_string data in
  (* find RELS's frame *)
  let rec find pos =
    let plen = u32_at (s ()) (pos + 4) in
    if Bytes.sub_string data pos 4 = "RELS" then (pos + 8, plen) else find (pos + 12 + plen)
  in
  let off, plen = find 12 in
  (* walk its relations: name, arity, log length, dead bitset, tuples *)
  let cur = ref (off + 4) in
  let str () =
    let n = u32_at (s ()) !cur in
    let start = !cur + 4 in
    cur := start + n;
    (start, n)
  in
  let target = ref None in
  for _ = 1 to u32_at (s ()) off do
    ignore (str ());
    let arity = u32_at (s ()) !cur in
    let len = u32_at (s ()) (!cur + 4) in
    cur := !cur + 8;
    let dead, _ = str () in
    if
      !target = None && arity > 0 && len >= 2
      && Bytes.get data dead = '\000'
      && Bytes.get data (dead + 1) = '\000'
    then target := Some (!cur, 4 * arity);
    cur := !cur + (4 * arity * len)
  done;
  let first, width =
    match !target with
    | Some t -> t
    | None -> Alcotest.fail "no relation with two live slots in the snapshot"
  in
  Bytes.blit data first data (first + width) width;
  Bytes.set_int32_le data (off + plen) (Persist.Crc32.digest_sub (s ()) ~pos:off ~len:plen);
  let oc = open_out_bin spath in
  output_bytes oc data;
  close_out oc;
  (match Store.open_or_create ~dir program query ~edb:(lazy edb) with
  | _ -> Alcotest.fail "duplicate live tuple loaded"
  | exception Codec.Corrupt c ->
    Alcotest.(check string) "RELS named" "RELS" c.section;
    Alcotest.(check bool) "locates the file" true (c.file = spath);
    Alcotest.(check bool) "says duplicate" true (contains ~sub:"duplicate" c.message);
    Alcotest.(check bool)
      "offset inside RELS" true
      (c.offset >= off && c.offset <= off + plen));
  rm_rf dir

let test_snapshot_bad_version_refused () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st = Store.open_or_create ~strategy:Session.GMS ~dir program query ~edb:(lazy edb) in
  Store.close st;
  let spath = Store.snapshot_path dir in
  flip_byte spath 8;
  (match Store.open_or_create ~dir program query ~edb:(lazy edb) with
  | _ -> Alcotest.fail "wrong version accepted"
  | exception Codec.Corrupt c ->
    Alcotest.(check bool) "says version" true
      (contains ~sub:"version" c.message));
  flip_byte spath 8;
  (* restore, then break the magic bytes *)
  flip_byte spath 0;
  (match Store.open_or_create ~dir program query ~edb:(lazy edb) with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Codec.Corrupt c ->
    Alcotest.(check bool) "says magic" true
      (contains ~sub:"magic" c.message));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* fault injection: the WAL tail                                       *)
(* ------------------------------------------------------------------ *)

(* Build a store with a multi-record WAL, recording the file size after
   each commit.  Truncating at EVERY byte of the log must recover
   exactly the longest fully-committed prefix: the acknowledged commits
   below the cut survive, the torn record is dropped as if the crash
   had hit before the ack. *)
let test_wal_truncation_sweep () =
  let program, query, edb = H.load app_src in
  let txns =
    [
      [ Incr.Maintain.Insert (H.atom "p(g(f(n2), 7), f(n3))") ];
      [ Incr.Maintain.Insert (H.atom "p(f(n3), f(n4))") ];
      [
        Incr.Maintain.Delete (H.atom "p(f(n3), f(n4))");
        Incr.Maintain.Insert (H.atom "p(f(n3), f(n5))");
      ];
    ]
  in
  let dir = fresh_dir () in
  let st =
    Store.open_or_create ~strategy:Session.GMS ~checkpoint_every:0 ~dir program
      query ~edb:(lazy edb)
  in
  (* watermarks.(i) = wal size with i txns committed; prefixes.(i) =
     the answers acknowledged at that point *)
  let wal_size () = (Unix.stat (Store.wal_path dir)).Unix.st_size in
  let watermarks = ref [ wal_size () ] in
  let prefixes = ref [ store_answers st ] in
  List.iter
    (fun ops ->
      ignore (Store.update st ops);
      watermarks := wal_size () :: !watermarks;
      prefixes := store_answers st :: !prefixes)
    txns;
  let watermarks = Array.of_list (List.rev !watermarks) in
  let prefixes = Array.of_list (List.rev !prefixes) in
  let size = watermarks.(Array.length watermarks - 1) in
  let dir2 = fresh_dir () in
  for cut = watermarks.(0) to size do
    copy_store dir dir2;
    Io.truncate (Store.wal_path dir2) cut;
    (* the longest i with watermarks.(i) <= cut is what survives *)
    let expect = ref prefixes.(0) in
    Array.iteri (fun i w -> if w <= cut then expect := prefixes.(i)) watermarks;
    let st2 = Store.open_or_create ~checkpoint_every:0 ~dir:dir2
        program query ~edb:(lazy edb) in
    let got = store_answers st2 in
    if got <> !expect then begin
      Store.close st2;
      Alcotest.failf "wal cut at byte %d recovered the wrong prefix" cut
    end;
    (* recovery truncated the torn tail: the next commit must land on a
       clean record boundary and survive its own reopen *)
    if cut = size / 2 then begin
      ignore (Store.update st2 [ Incr.Maintain.Insert (H.atom "p(f(n4), f(n6))") ]);
      let after = store_answers st2 in
      Store.close st2;
      let st3 = Store.open_or_create ~dir:dir2 program query ~edb:(lazy edb) in
      Alcotest.check H.tuple_list "append after torn-tail repair" after
        (store_answers st3);
      Store.close st3
    end
    else Store.close st2
  done;
  rm_rf dir;
  rm_rf dir2

(* a flipped byte in a record that is NOT the tail cannot be a torn
   write: replay must refuse hard rather than silently drop the suffix *)
let test_wal_midfile_corruption_refused () =
  let program, query, edb = H.load app_src in
  let dir = fresh_dir () in
  let st =
    Store.open_or_create ~strategy:Session.GMS ~checkpoint_every:0 ~dir program
      query ~edb:(lazy edb)
  in
  let first_end = ref 0 in
  ignore (Store.update st [ Incr.Maintain.Insert (H.atom "p(f(n3), f(n4))") ]);
  first_end := (Unix.stat (Store.wal_path dir)).Unix.st_size;
  ignore (Store.update st [ Incr.Maintain.Insert (H.atom "p(f(n4), f(n5))") ]);
  let wpath = Store.wal_path dir in
  (* inside the first record's payload (after the 12-byte header and the
     8-byte record frame) *)
  flip_byte wpath (12 + 8 + 2);
  (match Store.open_or_create ~checkpoint_every:0 ~dir program query ~edb:(lazy edb) with
  | _ -> Alcotest.fail "mid-file corruption silently accepted"
  | exception Codec.Corrupt c ->
    Alcotest.(check bool) "names the wal" true (c.file = wpath));
  (* the same flip in the FINAL record is indistinguishable from a torn
     write: dropped, recovering the first commit *)
  flip_byte wpath (12 + 8 + 2);
  flip_byte wpath (!first_end + 8 + 2);
  let st2 = Store.open_or_create ~checkpoint_every:0 ~dir program query ~edb:(lazy edb) in
  Alcotest.(check int) "replayed up to the torn record" 1 (Store.replayed st2);
  Store.close st2;
  rm_rf dir

(* the exact bytes Wal.append would write for a record: produced by the
   writer itself against a scratch file, so the test never re-implements
   the framing *)
let record_frame record =
  let tmp = Filename.temp_file "magic-walrec" ".magic" in
  let w = Wal.create tmp in
  Wal.append w record;
  Wal.close w;
  let data = Io.read_file tmp in
  Sys.remove tmp;
  String.sub data 12 (String.length data - 12)

(* crash while appending a WAL record: whatever prefix of the frame hit
   the disk, reopening recovers the pre-transaction state; only the
   complete, checksummed frame makes the transaction durable *)
let test_crash_mid_append () =
  let program, query, edb = H.load app_src in
  let op = Incr.Maintain.Insert (H.atom "p(g(f(n2), 7), f(n3))") in
  let frame = record_frame (Wal.Txn [ op ]) in
  let flen = String.length frame in
  (* a pristine store abandoned right after creation: the snapshot holds
     the pre-transaction state and the WAL is just a header *)
  let dir = fresh_dir () in
  ignore
    (Store.open_or_create ~strategy:Session.GMS ~checkpoint_every:0 ~dir
       program query ~edb:(lazy edb));
  let committed =
    let s = Session.create ~strategy:Session.GMS program query ~edb in
    answers_of s
  in
  let applied =
    let s = Session.create ~strategy:Session.GMS program query ~edb in
    ignore (Session.update s [ op ]);
    answers_of s
  in
  let dir2 = fresh_dir () in
  for cut = 0 to flen do
    copy_store dir dir2;
    let oc =
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
        (Store.wal_path dir2)
    in
    output_string oc (String.sub frame 0 cut);
    close_out oc;
    let st2 = Store.open_or_create ~checkpoint_every:0 ~dir:dir2
        program query ~edb:(lazy edb) in
    let got = store_answers st2 in
    let replayed = Store.replayed st2 in
    Store.close st2;
    if cut = flen then begin
      (* the whole frame hit the disk: the commit is durable *)
      if got <> applied || replayed <> 1 then
        Alcotest.failf "full frame at %d not replayed" cut
    end
    else if got <> committed || replayed <> 0 then
      Alcotest.failf
        "torn frame prefix (%d of %d bytes) did not recover the committed state"
        cut flen
  done;
  rm_rf dir;
  rm_rf dir2

(* ------------------------------------------------------------------ *)
(* golden corpus: data/db                                              *)
(* ------------------------------------------------------------------ *)

(* The corpus pins the on-disk format: a store written by THIS format
   version must keep loading byte-identically forever; bumping the
   format version requires regenerating the corpus (see data/db/README).
   Stores are copied before opening — recovery mutates (truncates,
   appends) in place. *)
(* dune runtest runs in _build/default/test, dune exec from the root *)
let corpus =
  let local = Filename.concat "data" "db" in
  if Sys.file_exists local then local else Filename.concat ".." local

let load_corpus_program () = H.load (Io.read_file (Filename.concat corpus "tiny.dl"))

let open_corpus variant =
  let program, query, edb = load_corpus_program () in
  let dir = fresh_dir () in
  copy_store (Filename.concat corpus variant) dir;
  let r =
    match Store.open_or_create ~dir program query ~edb:(lazy edb) with
    | st ->
      let a = store_answers st in
      let replayed = Store.replayed st in
      Store.close st;
      `Opened (a, replayed)
    | exception Codec.Corrupt c -> `Refused (c.section, c.message)
  in
  rm_rf dir;
  r

let corpus_expected () =
  (* the valid store's state: the snapshot's chain plus the WAL's
     journaled insert of p(n5, n6) *)
  let program, query, edb = load_corpus_program () in
  let s = Session.create ~strategy:Session.GMS program query ~edb in
  ignore (Session.update s [ Incr.Maintain.Insert (H.atom "p(n5, n6)") ]);
  answers_of s

let test_corpus_valid () =
  match open_corpus "tiny" with
  | `Opened (answers, replayed) ->
    Alcotest.(check int) "one wal record" 1 replayed;
    Alcotest.check H.tuple_list "golden answers" (corpus_expected ()) answers
  | `Refused (s, m) -> Alcotest.failf "valid corpus refused: %s %s" s m

let test_corpus_torn () =
  (* trailing garbage after the last record is a torn write: dropped *)
  match open_corpus "tiny_torn" with
  | `Opened (answers, _) ->
    Alcotest.check H.tuple_list "torn tail dropped" (corpus_expected ()) answers
  | `Refused (s, m) -> Alcotest.failf "torn corpus refused: %s %s" s m

let test_corpus_corrupt () =
  match open_corpus "tiny_corrupt" with
  | `Opened _ -> Alcotest.fail "corrupt corpus loaded"
  | `Refused (section, _) -> Alcotest.(check string) "RELS named" "RELS" section

let test_corpus_bad_version () =
  match open_corpus "tiny_badversion" with
  | `Opened _ -> Alcotest.fail "wrong-version corpus loaded"
  | `Refused (_, message) ->
    Alcotest.(check bool) "says version" true (contains ~sub:"version" message)

(* [tiny_counts] was written by a build that kept per-tuple support
   counts for non-recursive predicates, so its snapshot's CNTS section
   is not empty.  It must reopen to the state a fresh session computes,
   and a deletion through the non-recursive units — two(n0, n2) and
   two(n1, n3) lose their only derivation, node(n1) and node(n2) keep
   one — must land on a from-scratch evaluation. *)
let test_corpus_older_counts () =
  let program, query, edb = H.load (Io.read_file (Filename.concat corpus "counts.dl")) in
  let derived session =
    let db = Session.db session in
    List.map
      (fun sym -> List.sort Atom.compare (Engine.Database.facts db sym))
      (Symbol.Set.elements (Program.derived program))
  in
  let dir = fresh_dir () in
  copy_store (Filename.concat corpus "tiny_counts") dir;
  let st = Store.open_or_create ~strategy:Session.Original ~dir
      program query ~edb:(lazy edb) in
  Alcotest.(check bool) "restored" true (Store.restored st);
  let fresh = Session.create ~strategy:Session.Original program query ~edb in
  Alcotest.check H.tuple_list "reopened = fresh" (answers_of fresh) (store_answers st);
  let del = H.atom "p(n1, n2)" in
  ignore (Store.update st [ Incr.Maintain.Delete del ]);
  let edb' = Engine.Database.copy edb in
  ignore (Engine.Database.remove_fact edb' del);
  let scratch = Session.create ~strategy:Session.Original program query ~edb:edb' in
  Alcotest.check H.tuple_list "after delete = scratch" (answers_of scratch)
    (store_answers st);
  Alcotest.(check (list (list (of_pp Atom.pp)))) "derived relations = scratch"
    (derived scratch) (derived (Store.session st));
  Store.close st;
  rm_rf dir

(* [tiny_dead] was written by a build whose checkpoints kept tombstoned
   log slots (see data/db/README).  It must reopen to the facts, the
   external support and the answers of the same history run from
   scratch, and the next checkpoint must write no dead slot. *)
let test_corpus_tombstoned () =
  let module Rel = Engine.Relation in
  let program, query, edb = load_corpus_program () in
  let dir = fresh_dir () in
  copy_store (Filename.concat corpus "tiny_dead") dir;
  let dead_slots () =
    let _, image = Persist.Snapshot_file.load (Store.snapshot_path dir) in
    let db = image.Incr.Maintain.im_db in
    List.fold_left
      (fun acc sym ->
        let r = Engine.Database.relation db sym in
        acc + Rel.size r - Rel.cardinal r)
      0 (Engine.Database.symbols db)
  in
  Alcotest.(check bool) "the golden holds dead slots" true (dead_slots () > 0);
  let scratch = Store.open_or_create ~strategy:Session.GMS program query ~edb:(lazy edb) in
  let p23 = H.atom "p(n2, n3)" in
  ignore (Store.query scratch query);
  ignore (Store.update scratch [ Incr.Maintain.Delete p23 ]);
  ignore (Store.query scratch query);
  ignore (Store.update scratch [ Incr.Maintain.Insert p23 ]);
  ignore (Store.query scratch query);
  let image = Alcotest.(triple (list string) (list string) string) in
  let st = Store.open_or_create ~dir program query ~edb:(lazy (assert false)) in
  Alcotest.(check bool) "restored" true (Store.restored st);
  Alcotest.check image "reopened image = scratch" (image_of scratch) (image_of st);
  Alcotest.check H.tuple_list "reopened answers = scratch" (store_answers scratch)
    (store_answers st);
  Store.checkpoint st;
  Alcotest.(check int) "checkpoint writes no dead slot" 0 (dead_slots ());
  Store.close st;
  let st = Store.open_or_create ~dir program query ~edb:(lazy (assert false)) in
  Alcotest.check image "compacted image = scratch" (image_of scratch) (image_of st);
  Store.close st;
  rm_rf dir

let suite =
  [
    Alcotest.test_case "crc32 check values" `Quick test_crc32;
    qcheck_crc_slicing;
    Alcotest.test_case "fsync_dir surfaces errors" `Quick test_fsync_dir_errors;
    Alcotest.test_case "snapshot round-trip with app terms" `Quick
      test_snapshot_roundtrip_app_terms;
    Alcotest.test_case "reopen mismatch refused" `Quick test_reopen_mismatch_refused;
    qcheck_roundtrip_original;
    qcheck_roundtrip_gms;
    qcheck_compacted_reload;
    Alcotest.test_case "reopen replays the journaled suffix" `Quick
      test_reopen_replays_suffix;
    Alcotest.test_case "in-memory and disk stores agree" `Quick test_backings_agree;
    Alcotest.test_case "derived-seed install survives recovery (memory)" `Quick
      (test_derived_seed_install_recovered ~durable:false);
    Alcotest.test_case "derived-seed install survives recovery (disk)" `Quick
      (test_derived_seed_install_recovered ~durable:true);
    Alcotest.test_case "crash mid-checkpoint keeps old snapshot" `Quick
      test_crash_mid_checkpoint;
    Alcotest.test_case "truncated snapshot refused" `Quick
      test_truncated_snapshot_refused;
    Alcotest.test_case "snapshot bit flip located per section" `Quick
      test_snapshot_bitflip_located;
    Alcotest.test_case "snapshot version/magic refused" `Quick
      test_snapshot_bad_version_refused;
    Alcotest.test_case "duplicate live tuple refused" `Quick
      test_duplicate_live_tuple_refused;
    Alcotest.test_case "wal truncation sweep recovers prefix" `Quick
      test_wal_truncation_sweep;
    Alcotest.test_case "wal mid-file corruption refused" `Quick
      test_wal_midfile_corruption_refused;
    Alcotest.test_case "crash mid-append keeps committed state" `Quick
      test_crash_mid_append;
    Alcotest.test_case "golden corpus: valid" `Quick test_corpus_valid;
    Alcotest.test_case "golden corpus: torn tail" `Quick test_corpus_torn;
    Alcotest.test_case "golden corpus: corrupt section" `Quick test_corpus_corrupt;
    Alcotest.test_case "golden corpus: wrong version" `Quick test_corpus_bad_version;
    Alcotest.test_case "golden corpus: older support counts ignored" `Quick
      test_corpus_older_counts;
    Alcotest.test_case "golden corpus: tombstoned log compacts" `Quick
      test_corpus_tombstoned;
  ]
