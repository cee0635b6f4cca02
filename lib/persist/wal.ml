open Datalog

let version = 1
let magic = "MAGICWAL"
let header_len = 12

type record = Txn of Incr.Maintain.op list | Install of Atom.t

type tail = Clean | Torn of int

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Atoms travel as concrete syntax: self-contained across processes
   (value ids are pool-relative and never leave the snapshot), and the
   WAL's cost is fsync-bound, not encoding-bound. *)
let encode record =
  let b = Buffer.create 128 in
  (match record with
  | Txn ops ->
    Codec.u8 b 0;
    Codec.u32 b (List.length ops);
    List.iter
      (fun op ->
        let ins, a =
          match op with
          | Incr.Maintain.Insert a -> (1, a)
          | Incr.Maintain.Delete a -> (0, a)
        in
        Codec.u8 b ins;
        Codec.str b (Atom.to_string a))
      ops
  | Install q ->
    Codec.u8 b 1;
    Codec.str b (Atom.to_string q));
  Buffer.contents b

let u32_string v =
  let b = Buffer.create 4 in
  Codec.u32 b v;
  Buffer.contents b

let crc_int payload = Int32.to_int (Crc32.digest payload) land 0xFFFFFFFF

let frame payload =
  u32_string (String.length payload) ^ u32_string (crc_int payload) ^ payload

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let parse_atom_field r =
  let text = Codec.rstr r in
  match Parser.parse_atom text with
  | a -> a
  | exception Parser.Error msg ->
    Codec.corrupt ~file:"" ~section:"record" ~offset:(Codec.pos r)
      (Fmt.str "unparsable atom %S: %s" text msg)

(* the record payload at [data.[off .. off + len - 1]], read in place *)
let decode ~file ~off ~len data =
  let r = Codec.reader ~file ~section:"record" ~off ~len data in
  let record =
    match Codec.ru8 r with
    | 0 ->
      let n = Codec.ru32 r in
      let ops = ref [] in
      for _ = 1 to n do
        let ins = Codec.ru8 r in
        let a = parse_atom_field r in
        ops := (if ins <> 0 then Incr.Maintain.Insert a else Incr.Maintain.Delete a) :: !ops
      done;
      Txn (List.rev !ops)
    | 1 -> Install (parse_atom_field r)
    | kind ->
      Codec.corrupt ~file ~section:"record" ~offset:off (Fmt.str "unknown record kind %d" kind)
  in
  Codec.expect_end r;
  record

let replay path =
  let data = Io.read_file path in
  let len = String.length data in
  if len < header_len then ([], Torn 0)
  else begin
    if not (String.starts_with ~prefix:magic data) then
      Codec.corrupt ~file:path ~section:"header" ~offset:0
        "bad magic bytes: not a magic WAL";
    let v = Codec.ru32 (Codec.reader ~file:path ~section:"header" ~off:8 ~len:4 data) in
    if v <> version then
      Codec.corrupt ~file:path ~section:"header" ~offset:8
        (Fmt.str "unsupported WAL version %d (this build reads %d)" v version);
    let rec go pos acc =
      if pos = len then (List.rev acc, Clean)
      else if len - pos < 8 then (List.rev acc, Torn pos)
      else begin
        let lr = Codec.reader ~file:path ~section:"record" ~off:pos ~len:8 data in
        let plen = Codec.ru32 lr in
        let stored = Codec.ru32 lr in
        if len - pos - 8 < plen then (List.rev acc, Torn pos)
        else begin
          let crc = Int32.to_int (Crc32.digest_sub data ~pos:(pos + 8) ~len:plen) land 0xFFFFFFFF in
          if crc <> stored then
            if pos + 8 + plen = len then
              (* final record: a torn write of an unacknowledged commit *)
              (List.rev acc, Torn pos)
            else
              Codec.corrupt ~file:path ~section:"record" ~offset:pos
                "record checksum mismatch with records following it"
          else begin
            let record =
              try decode ~file:path ~off:(pos + 8) ~len:plen data with
              | Codec.Corrupt c when c.file = "" ->
                raise (Codec.Corrupt { c with file = path })
            in
            go (pos + 8 + plen) (record :: acc)
          end
        end
      end
    in
    go header_len []
  end

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = { sink : Io.sink }

let create ?(sink_of = fun p -> Io.file p) path =
  let sink = sink_of path in
  sink.Io.write (magic ^ u32_string version);
  sink.Io.sync ();
  { sink }

let open_append path =
  if not (Sys.file_exists path) then create path
  else begin
    let size = (Unix.stat path).Unix.st_size in
    if size < header_len then create path  (* torn header: rewrite it *)
    else begin
      (* validate the header before blindly appending to a foreign file *)
      let ic = open_in_bin path in
      let hdr =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic header_len)
      in
      if not (String.starts_with ~prefix:magic hdr) then
        Codec.corrupt ~file:path ~section:"header" ~offset:0
          "bad magic bytes: not a magic WAL";
      let v = Codec.ru32 (Codec.reader ~file:path ~section:"header" ~off:8 ~len:4 hdr) in
      if v <> version then
        Codec.corrupt ~file:path ~section:"header" ~offset:8
          (Fmt.str "unsupported WAL version %d (this build reads %d)" v version);
      { sink = Io.file ~append:true path }
    end
  end

let append w record =
  let payload = encode record in
  w.sink.Io.write (frame payload);
  w.sink.Io.sync ()

let close w = w.sink.Io.close ()
