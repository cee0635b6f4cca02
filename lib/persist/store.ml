open Datalog
module Db = Engine.Database
module Rel = Engine.Relation
module Session = Incr.Session

(* Where the last committed state lives.  On disk: the snapshot plus the
   WAL written since it.  In memory: the shadow — the EDB with every
   committed op and installed seed applied — plus the current query;
   re-evaluating the two reproduces the session. *)
type disk = {
  dir : string;
  digest : string;
  checkpoint_every : int;
  mutable wal : Wal.writer;
  mutable since_checkpoint : int;
}

type shadow = { mutable edb : Db.t; mutable query : Atom.t }
type backing = Disk of disk | Memory of shadow

type t = {
  program : Program.t;
  max_facts : int option;
  backing : backing;
  mutable session : Session.t;
  mutable appended : int;
  mutable n_checkpoints : int;
  mutable n_replayed : int;
  restored_ : bool;
}

let snapshot_path dir = Filename.concat dir "snapshot.magic"
let wal_path dir = Filename.concat dir "wal.magic"
let program_digest p = Digest.to_hex (Digest.string (Program.to_string p))

let session t = t.session
let durable t = match t.backing with Disk _ -> true | Memory _ -> false
let restored t = t.restored_
let replayed t = t.n_replayed
let wal_records t = t.appended
let checkpoints t = t.n_checkpoints

let wal_depth t =
  match t.backing with Disk d -> d.since_checkpoint | Memory _ -> 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Loading: snapshot + WAL suffix                                      *)
(* ------------------------------------------------------------------ *)

let meta_error dir msg =
  Codec.corrupt ~file:(snapshot_path dir) ~section:"META" ~offset:12 msg

(* Replay is the recovery half of the commit protocol: every intact
   record was once a successful, acknowledged commit against exactly
   this prefix of the state, so re-applying cannot fail (the digest
   check pins the program; installs are idempotent). *)
let load_from_disk ~dir ~program ~digest ~strategy_req ~max_facts =
  let spath = snapshot_path dir in
  let meta, image = Snapshot_file.load spath in
  if meta.Snapshot_file.program_digest <> digest then
    meta_error dir
      (Fmt.str
         "snapshot was written for a different program (digest %s, this program is %s)"
         meta.Snapshot_file.program_digest digest);
  let strategy =
    match Session.strategy_of_string meta.Snapshot_file.strategy with
    | Some s when s <> Session.Auto -> s
    | _ -> meta_error dir (Fmt.str "unknown session strategy %S" meta.Snapshot_file.strategy)
  in
  (match strategy_req with
  | Some s when s <> Session.Auto && s <> strategy ->
    meta_error dir
      (Fmt.str "store holds a %s session but strategy %s was requested"
         (Session.strategy_to_string strategy)
         (Session.strategy_to_string s))
  | _ -> ());
  let query =
    match Parser.parse_atom meta.Snapshot_file.query with
    | q -> q
    | exception Parser.Error msg ->
      meta_error dir (Fmt.str "unparsable query %S: %s" meta.Snapshot_file.query msg)
  in
  let session =
    Session.of_image program
      { Session.i_strategy = strategy; i_query = query; i_maintain = image }
  in
  let wpath = wal_path dir in
  let records, tail =
    if Sys.file_exists wpath then Wal.replay wpath else ([], Wal.Clean)
  in
  (match tail with Wal.Clean -> () | Wal.Torn at -> Io.truncate wpath at);
  List.iter
    (fun record ->
      match record with
      | Wal.Txn ops -> ignore (Session.update ?max_facts session ops)
      | Wal.Install q -> ignore (Session.query ?max_facts session q))
    records;
  (session, List.length records)

(* ------------------------------------------------------------------ *)
(* Checkpointing and journaling                                        *)
(* ------------------------------------------------------------------ *)

let write_snapshot d session =
  let im = Session.image session in
  let meta =
    {
      Snapshot_file.strategy = Session.strategy_to_string im.Session.i_strategy;
      query = Atom.to_string im.Session.i_query;
      program_digest = d.digest;
    }
  in
  Snapshot_file.save ~path:(snapshot_path d.dir) ~meta im.Session.i_maintain

let checkpoint t =
  match t.backing with
  | Memory _ -> ()
  | Disk d ->
    write_snapshot d t.session;
    (* the snapshot now covers everything the WAL held: start a new one *)
    Wal.close d.wal;
    d.wal <- Wal.create (wal_path d.dir);
    d.since_checkpoint <- 0;
    t.n_checkpoints <- t.n_checkpoints + 1

let journal t d record =
  Wal.append d.wal record;
  t.appended <- t.appended + 1;
  d.since_checkpoint <- d.since_checkpoint + 1;
  if d.checkpoint_every > 0 && d.since_checkpoint >= d.checkpoint_every then checkpoint t

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let open_or_create ?strategy ?options ?max_facts ?(checkpoint_every = 64) ?dir program
    query ~edb =
  let make ?(restored_ = false) ?(n_replayed = 0) backing session =
    {
      program;
      max_facts;
      backing;
      session;
      appended = 0;
      n_checkpoints = 0;
      n_replayed;
      restored_;
    }
  in
  match dir with
  | None ->
    let edb = Lazy.force edb in
    let session = Session.create ?strategy ?options ?max_facts program query ~edb in
    make (Memory { edb = Db.copy edb; query }) session
  | Some _ when options <> None ->
    invalid_arg "Store.open_or_create: custom rewrite options cannot be persisted"
  | Some dir ->
    let digest = program_digest program in
    if Sys.file_exists (snapshot_path dir) then begin
      let session, n_replayed =
        load_from_disk ~dir ~program ~digest ~strategy_req:strategy ~max_facts
      in
      let wal = Wal.open_append (wal_path dir) in
      let d = { dir; digest; checkpoint_every; wal; since_checkpoint = n_replayed } in
      let t = make ~restored_:true ~n_replayed (Disk d) session in
      (* fold a long replay into the snapshot now rather than on shutdown *)
      if checkpoint_every > 0 && n_replayed >= checkpoint_every then checkpoint t;
      t
    end
    else begin
      mkdir_p dir;
      let strategy = Option.value strategy ~default:Session.Original in
      let session =
        Session.create ~strategy ?max_facts program query ~edb:(Lazy.force edb)
      in
      let wal = Wal.create (wal_path dir) in
      let d = { dir; digest; checkpoint_every; wal; since_checkpoint = 0 } in
      write_snapshot d session;
      let t = make (Disk d) session in
      t.n_checkpoints <- 1;
      t
    end

(* ------------------------------------------------------------------ *)
(* The commit path                                                     *)
(* ------------------------------------------------------------------ *)

(* Bring back the last committed state: a snapshot load plus WAL replay
   (a failed apply wrote no record), or an unbounded re-evaluation of
   the shadow (its fixpoint was live before the failed apply, so it is
   known to be affordable). *)
let recover t =
  match t.backing with
  | Disk d ->
    Wal.close d.wal;
    let session, n =
      load_from_disk ~dir:d.dir ~program:t.program ~digest:d.digest ~strategy_req:None
        ~max_facts:t.max_facts
    in
    t.session <- session;
    d.wal <- Wal.open_append (wal_path d.dir);
    t.n_replayed <- t.n_replayed + n
  | Memory m ->
    t.session <-
      Session.create ~strategy:(Session.strategy t.session)
        ~options:(Session.options t.session) t.program m.query ~edb:m.edb

(* The one commit rule: apply the change to the live session; on
   success record it before returning; on a blown budget or a bad op,
   which may leave the session half-applied, recover and re-raise. *)
let commit t apply record =
  match apply t.session with
  | result ->
    record result;
    result
  | exception ((Incr.Maintain.Budget_exhausted | Invalid_argument _) as e) ->
    recover t;
    raise e

let update_delta t ops =
  commit t
    (fun s -> Session.update_delta ?max_facts:t.max_facts s ops)
    (fun _ ->
      match t.backing with
      | Disk d -> if ops <> [] then journal t d (Wal.Txn ops)
      | Memory m ->
        List.iter
          (function
            | Incr.Maintain.Insert a -> ignore (Db.add_fact m.edb a)
            | Incr.Maintain.Delete a -> ignore (Db.remove_fact m.edb a))
          ops)

let update t ops = fst (update_delta t ops)

let query_delta t q =
  commit t
    (fun s -> Session.query_delta ?max_facts:t.max_facts s q)
    (fun _ ->
      (* recorded even when it changed no fact: its seeds became external
         support and [q] the current query, both committed state *)
      match t.backing with
      | Disk d -> journal t d (Wal.Install q)
      | Memory m ->
        Option.iter
          (fun rw ->
            List.iter (fun s -> ignore (Db.add_fact m.edb s)) rw.Magic_core.Rewritten.seeds)
          (Session.rewritten t.session);
        m.query <- q)

let query t q =
  let answers, stats, _summary = query_delta t q in
  (answers, stats)

(* The base EDB plus externally asserted facts of the original program's
   derived predicates; magic/supplementary relations (derived under the
   maintained, possibly rewritten program) are dropped — a new query
   plants its own seeds. *)
let extract_edb session =
  let db = Session.db session in
  let derived = Program.derived (Session.maintained_program session) in
  let orig_derived = Program.derived (Session.program session) in
  let edb = Db.create () in
  List.iter
    (fun sym ->
      if not (Symbol.Set.mem sym derived) then
        match Db.find db sym with
        | Some r -> Db.install edb sym (Rel.copy r)
        | None -> ())
    (Db.symbols db);
  let im = Session.image session in
  List.iter
    (fun (sym, tus) ->
      if Symbol.Set.mem sym orig_derived then
        List.iter (fun tu -> ignore (Db.add_tuple edb sym tu)) tus)
    im.Session.i_maintain.Incr.Maintain.im_external;
  edb

let reset t q =
  let edb = extract_edb t.session in
  t.session <-
    Session.create ~strategy:(Session.strategy t.session)
      ~options:(Session.options t.session) ?max_facts:t.max_facts t.program q ~edb;
  (match t.backing with
  | Memory m ->
    m.edb <- edb;
    m.query <- q
  | Disk _ -> checkpoint t);
  t.session

let close t =
  match t.backing with
  | Memory _ -> ()
  | Disk d ->
    checkpoint t;
    Wal.close d.wal
