open Datalog
module Db = Engine.Database
module Rel = Engine.Relation
module Value = Engine.Value

let version = 1
let magic = "MAGISNAP"

type meta = { strategy : string; query : string; program_digest : string }

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let u32_string v =
  let b = Buffer.create 4 in
  Codec.u32 b v;
  Buffer.contents b

let crc_sub data ~pos ~len = Int32.to_int (Crc32.digest_sub data ~pos ~len) land 0xFFFFFFFF
let crc_int payload = crc_sub payload ~pos:0 ~len:(String.length payload)

let write_section sink tag payload =
  assert (String.length tag = 4);
  sink.Io.write tag;
  sink.Io.write (u32_string (String.length payload));
  sink.Io.write payload;
  sink.Io.write (u32_string (crc_int payload))

let value_id (v : Value.t) = (v :> int)

let tuple b (tu : Engine.Tuple.t) = Array.iter (fun v -> Codec.u32 b (value_id v)) tu

let meta_payload m =
  let b = Buffer.create 128 in
  Codec.str b m.strategy;
  Codec.str b m.query;
  Codec.str b m.program_digest;
  Buffer.contents b

(* the pool in dense-id order: children precede parents by construction *)
let vals_payload () =
  let n = Value.pool_size () in
  let b = Buffer.create (16 * n) in
  Codec.u32 b n;
  for id = 0 to n - 1 do
    match Value.view (Value.of_int id) with
    | `Int i ->
      Codec.u8 b 0;
      Codec.i64 b i
    | `Sym s ->
      Codec.u8 b 1;
      Codec.str b s
    | `App (f, kids) ->
      Codec.u8 b 2;
      Codec.str b f;
      Codec.u32 b (Array.length kids);
      Array.iter (fun k -> Codec.u32 b (value_id k)) kids
  done;
  Buffer.contents b

(* Live tuples only, in stamp order, behind an all-zero dead bitset: a
   reload renumbers the stamps densely (see {!Engine.Relation.of_log}),
   and tombstoned slots cost neither bytes nor decode time. *)
let rels_payload db =
  let syms = Db.symbols db in
  let b = Buffer.create 4096 in
  Codec.u32 b (List.length syms);
  List.iter
    (fun sym ->
      let r = Db.relation db sym in
      let live = Rel.cardinal r in
      Codec.str b sym.Symbol.name;
      Codec.u32 b sym.Symbol.arity;
      Codec.u32 b live;
      Codec.str b (String.make live '\000');
      Rel.iter (tuple b) r)
    syms;
  Buffer.contents b

let exts_payload external_ =
  let b = Buffer.create 1024 in
  Codec.u32 b (List.length external_);
  List.iter
    (fun ((sym : Symbol.t), tus) ->
      Codec.str b sym.Symbol.name;
      Codec.u32 b sym.Symbol.arity;
      Codec.u32 b (List.length tus);
      List.iter (tuple b) tus)
    external_;
  Buffer.contents b

let write sink ~meta (image : Incr.Maintain.image) =
  sink.Io.write magic;
  sink.Io.write (u32_string version);
  write_section sink "META" (meta_payload meta);
  write_section sink "VALS" (vals_payload ());
  write_section sink "RELS" (rels_payload image.Incr.Maintain.im_db);
  (* format v1 keeps the support-count section of older builds: empty *)
  write_section sink "CNTS" (u32_string 0);
  write_section sink "EXTS" (exts_payload image.Incr.Maintain.im_external);
  write_section sink "END!" ""

let save ?(sink_of = fun p -> Io.file p) ~path ~meta image =
  let tmp = path ^ ".tmp" in
  let sink = sink_of tmp in
  (try
     write sink ~meta image;
     sink.Io.sync ();
     sink.Io.close ()
   with e ->
     sink.Io.close ();
     raise e);
  Sys.rename tmp path;
  Io.fsync_dir (Filename.dirname path)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load_meta r =
  let strategy = Codec.rstr r in
  let query = Codec.rstr r in
  let program_digest = Codec.rstr r in
  Codec.expect_end r;
  { strategy; query; program_digest }

(* Re-intern every pooled value, building the old-id -> new-value remap
   in one forward pass: children always have smaller ids than the App
   that references them, so [remap] is already filled when needed. *)
let load_pool r =
  let n = Codec.ru32 r in
  let dummy = Value.intern (Term.Int 0) in
  let remap = Array.make n dummy in
  for i = 0 to n - 1 do
    match Codec.ru8 r with
    | 0 -> remap.(i) <- Value.intern (Term.Int (Codec.ri64 r))
    | 1 -> remap.(i) <- Value.intern (Term.Sym (Codec.rstr r))
    | 2 ->
      let f = Codec.rstr r in
      let argc = Codec.ru32 r in
      let kids = Array.make argc dummy in
      for j = 0 to argc - 1 do
        let oid = Codec.ru32 r in
        if oid >= i then
          Codec.corrupt ~file:"" ~section:"VALS" ~offset:(Codec.pos r)
            (Fmt.str "value %d references non-preceding child id %d" i oid);
        kids.(j) <- remap.(oid)
      done;
      remap.(i) <- Value.app f kids
    | tag ->
      Codec.corrupt ~file:"" ~section:"VALS" ~offset:(Codec.pos r)
        (Fmt.str "unknown value tag %d" tag)
  done;
  Codec.expect_end r;
  remap

let load_value r remap =
  let oid = Codec.ru32 r in
  if oid >= Array.length remap then
    Codec.corrupt ~file:"" ~section:"" ~offset:(Codec.pos r)
      (Fmt.str "value id %d out of pool range %d" oid (Array.length remap));
  Array.unsafe_get remap oid

let load_tuple r remap arity : Engine.Tuple.t =
  Array.init arity (fun _ -> load_value r remap)

let load_symbol r =
  let name = Codec.rstr r in
  let arity = Codec.ru32 r in
  Symbol.make name arity

let load_rels r remap =
  let db = Db.create () in
  let nrels = Codec.ru32 r in
  for _ = 1 to nrels do
    let sym = load_symbol r in
    let len = Codec.ru32 r in
    let dead = Codec.rbytes r in
    if Bytes.length dead <> len then
      Codec.corrupt ~file:"" ~section:"RELS" ~offset:(Codec.pos r)
        (Fmt.str "dead bitset length %d does not match log length %d" (Bytes.length dead) len);
    (* [Array.init] fills in index order, so tuples decode in file order
       straight into the log that [of_log] then owns *)
    let log = Array.init len (fun _ -> load_tuple r remap sym.Symbol.arity) in
    match Rel.of_log ~arity:sym.Symbol.arity ~log ~dead with
    | rel -> Db.install db sym rel
    | exception Invalid_argument msg ->
      Codec.corrupt ~file:"" ~section:"RELS" ~offset:(Codec.pos r) msg
  done;
  Codec.expect_end r;
  db

let load_exts r remap =
  let npreds = Codec.ru32 r in
  let out = ref [] in
  for _ = 1 to npreds do
    let sym = load_symbol r in
    let n = Codec.ru32 r in
    let tus = ref [] in
    for _ = 1 to n do
      tus := load_tuple r remap sym.Symbol.arity :: !tus
    done;
    out := (sym, List.rev !tus) :: !out
  done;
  Codec.expect_end r;
  List.rev !out

let section_order = [ "META"; "VALS"; "RELS"; "CNTS"; "EXTS"; "END!" ]

(* the u32 at [off], which the caller has checked lies inside [data] *)
let u32_at ~file ~section data off = Codec.ru32 (Codec.reader ~file ~section ~off ~len:4 data)

(* Every section is checksummed and parsed in place: readers are windows
   over the one file string, so no payload is copied. *)
let load path =
  let data = Io.read_file path in
  let len = String.length data in
  let fail section offset message = Codec.corrupt ~file:path ~section ~offset message in
  if len < 12 then fail "header" len "truncated header";
  if not (String.starts_with ~prefix:magic data) then
    fail "header" 0 "bad magic bytes: not a magic snapshot";
  let v = u32_at ~file:path ~section:"header" data 8 in
  if v <> version then
    fail "header" 8 (Fmt.str "unsupported format version %d (this build reads %d)" v version);
  (* frame pass: verify every section's checksum and collect payload
     windows (tag, offset, length) *)
  let sections = ref [] in
  let pos = ref 12 in
  let ended = ref false in
  while not !ended do
    if len - !pos < 12 then fail "section" !pos "truncated section header";
    let tag = String.sub data !pos 4 in
    let plen = u32_at ~file:path ~section:tag data (!pos + 4) in
    if len - !pos - 12 < plen then
      fail tag !pos (Fmt.str "truncated section: payload of %d bytes does not fit" plen);
    let stored = u32_at ~file:path ~section:tag data (!pos + 8 + plen) in
    if stored <> crc_sub data ~pos:(!pos + 8) ~len:plen then
      fail tag !pos "section checksum mismatch";
    sections := (tag, !pos + 8, plen) :: !sections;
    if tag = "END!" then ended := true;
    pos := !pos + 12 + plen
  done;
  if !pos <> len then fail "END!" !pos "trailing garbage after final section";
  let sections = List.rev !sections in
  let tags = List.map (fun (t, _, _) -> t) sections in
  if tags <> section_order then
    fail "section" 12
      (Fmt.str "unexpected section order [%s] (format v%d is [%s])" (String.concat " " tags)
         version
         (String.concat " " section_order));
  let parse tag f =
    let _, off, plen = List.find (fun (t, _, _) -> t = tag) sections in
    let r = Codec.reader ~file:path ~section:tag ~off ~len:plen data in
    try f r with
    | Codec.Corrupt c when c.file = "" ->
      raise (Codec.Corrupt { c with file = path; section = tag })
    | Invalid_argument msg | Failure msg ->
      Codec.corrupt ~file:path ~section:tag ~offset:off msg
  in
  let meta = parse "META" load_meta in
  let remap = parse "VALS" load_pool in
  let db = parse "RELS" (fun r -> load_rels r remap) in
  (* CNTS (support counts written by older builds) was framed and
     checksummed above; its payload is ignored *)
  let exts = parse "EXTS" (fun r -> load_exts r remap) in
  (meta, { Incr.Maintain.im_db = db; im_external = exts })
