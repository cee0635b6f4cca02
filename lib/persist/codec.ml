exception
  Corrupt of { file : string; section : string; offset : int; message : string }

let corrupt ~file ~section ~offset message =
  raise (Corrupt { file; section; offset; message })

let explain = function
  | Corrupt { file; section; offset; message } ->
    Some (Fmt.str "%s: %s at byte %d: %s" file section offset message)
  | _ -> None

(* ---- writing ---- *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg (Fmt.str "Codec.u32: %d out of range" v);
  Buffer.add_int32_le b (Int32.of_int v)

let i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let str b s = u32 b (String.length s); Buffer.add_string b s

(* ---- reading ---- *)

type reader = {
  data : string;  (* the file image: data.[i] is the file's byte i *)
  file : string;
  section : string;
  lim : int;  (* end of the window: data.[lim] is past it *)
  mutable cur : int;
}

let reader ~file ~section ~off ~len data =
  if off < 0 || len < 0 || off > String.length data - len then invalid_arg "Codec.reader";
  { data; file; section; lim = off + len; cur = off }

let pos r = r.cur
let at_end r = r.cur >= r.lim

let fail r message = corrupt ~file:r.file ~section:r.section ~offset:(pos r) message

let need r n =
  if n > r.lim - r.cur then
    fail r (Fmt.str "truncated: need %d more bytes, have %d" n (r.lim - r.cur))

let ru8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.data r.cur) in
  r.cur <- r.cur + 1;
  v

let ru32 r =
  need r 4;
  let v =
    String.get_uint16_le r.data r.cur lor (String.get_uint16_le r.data (r.cur + 2) lsl 16)
  in
  r.cur <- r.cur + 4;
  v

let ri64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.cur) in
  r.cur <- r.cur + 8;
  v

let rstr r =
  let n = ru32 r in
  need r n;
  let s = String.sub r.data r.cur n in
  r.cur <- r.cur + n;
  s

let rbytes r =
  let n = ru32 r in
  need r n;
  let b = Bytes.create n in
  Bytes.blit_string r.data r.cur b 0 n;
  r.cur <- r.cur + n;
  b

let expect_end r =
  if not (at_end r) then
    fail r (Fmt.str "trailing garbage: %d unconsumed bytes" (r.lim - r.cur))
