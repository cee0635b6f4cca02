type pos = { line : int; col : int; offset : int }

type t = { start : pos; stop : pos }

let dummy_pos = { line = 0; col = 0; offset = -1 }
let dummy = { start = dummy_pos; stop = dummy_pos }
let is_dummy t = t.start.offset < 0

let span start stop = { start; stop }

let of_offset src offset =
  let n = String.length src in
  let offset = if offset < 0 then 0 else if offset > n then n else offset in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = offset - !bol + 1; offset }

let line_at src line =
  (* the full text of 1-based [line], without its newline or the [\r]
     of a CRLF line ending *)
  let n = String.length src in
  let rec find_start i l =
    if l >= line || i >= n then i
    else find_start (i + 1) (if src.[i] = '\n' then l + 1 else l)
  in
  let start = find_start 0 1 in
  let rec find_stop i = if i >= n || src.[i] = '\n' then i else find_stop (i + 1) in
  let stop = find_stop start in
  let stop = if stop > start && src.[stop - 1] = '\r' then stop - 1 else stop in
  String.sub src start (stop - start)

let pp ppf t =
  if t.start.offset < 0 then Fmt.string ppf "?"
  else Fmt.pf ppf "%d:%d" t.start.line t.start.col
