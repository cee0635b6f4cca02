(* Standard reflected CRC-32, slicing-by-8: eight 256-entry tables of
   native ints, flattened into one array ([tables.(k * 256 + n)]) and
   computed at module init.  Table 0 is the classic byte-at-a-time
   table; table k advances a byte through k further zero bytes, so one
   step folds eight input bytes with eight lookups.  The tail (fewer
   than eight bytes) runs byte-at-a-time on table 0.  The only checksum
   the on-disk format uses, so there is nothing to negotiate. *)

let poly = 0xEDB88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.digest_sub";
  let t = tables in
  let byte i = Char.code (String.unsafe_get s i) in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let word =
      byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16) lor (byte (j + 3) lsl 24)
    in
    let c = !crc lxor word in
    crc :=
      Array.unsafe_get t ((7 * 256) + (c land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((c lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((c lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (c lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte (j + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte (j + 5))
      lxor Array.unsafe_get t (256 + byte (j + 6))
      lxor Array.unsafe_get t (byte (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    let c = !crc in
    crc := Array.unsafe_get t ((c lxor byte j) land 0xff) lxor (c lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest s = digest_sub s ~pos:0 ~len:(String.length s)
