type token =
  | IDENT of string
  | VARIABLE of string
  | INTEGER of int
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | BAR
  | ARROW
  | QUERY
  | NOT
  | PLUS
  | STAR
  | SLASH
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Error of string * Loc.t

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = c >= 'A' && c <= 'Z'
let is_ident_char c = is_digit c || is_lower c || is_upper c || c = '_' || c = '\''

(* The cursor holds one token of lookahead.  [pos], [line] and [bol]
   (the offset of the current line's first character) describe the scan
   position just after it.  No token spans a newline, so [line] and [bol]
   are also the lookahead token's; the most recently consumed token's end
   is kept for the parser's spans. *)
type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable tok : token;
  mutable tok_start : int;
  mutable tok_stop : int;
  mutable last_stop : int; (* -1 until a token is consumed *)
  mutable last_line : int;
  mutable last_bol : int;
}

let pos_at line bol i = { Loc.line; col = i - bol + 1; offset = i }

let fail_at line bol i j msg =
  raise (Error (msg, Loc.span (pos_at line bol i) (pos_at line bol j)))

let rec skip cur =
  let src = cur.src and n = String.length cur.src in
  let i = cur.pos in
  if i < n then
    match String.unsafe_get src i with
    | '\n' ->
      cur.line <- cur.line + 1;
      cur.bol <- i + 1;
      cur.pos <- i + 1;
      skip cur
    | ' ' | '\t' | '\r' ->
      cur.pos <- i + 1;
      skip cur
    | '%' ->
      let rec eol j = if j >= n || String.unsafe_get src j = '\n' then j else eol (j + 1) in
      cur.pos <- eol i;
      skip cur
    | _ -> ()

(* scan the token at [cur.pos] into the lookahead *)
let scan cur =
  skip cur;
  let src = cur.src and n = String.length cur.src in
  let i = cur.pos and line = cur.line and bol = cur.bol in
  let set tok j =
    cur.tok <- tok;
    cur.tok_start <- i;
    cur.tok_stop <- j;
    cur.pos <- j
  in
  if i >= n then set EOF i
  else
    let c = String.unsafe_get src i in
    if is_digit c then begin
      (* accumulate with an overflow check: a literal too large for [int]
         is a located error, not an escaping [Failure] *)
      let rec digits j v =
        if j < n && is_digit src.[j] then begin
          let d = Char.code src.[j] - Char.code '0' in
          if v > (max_int - d) / 10 then begin
            let rec stop k = if k < n && is_digit src.[k] then stop (k + 1) else k in
            let k = stop j in
            fail_at line bol i k
              (Fmt.str "integer literal %s does not fit in %d bits"
                 (String.sub src i (k - i)) Sys.int_size)
          end;
          digits (j + 1) ((v * 10) + d)
        end
        else set (INTEGER v) j
      in
      digits i 0
    end
    else if is_lower c || is_upper c || c = '_' then begin
      let rec stop j = if j < n && is_ident_char src.[j] then stop (j + 1) else j in
      let j = stop i in
      if j - i = 3 && c = 'n' && src.[i + 1] = 'o' && src.[i + 2] = 't' then set NOT j
      else
        let word = String.sub src i (j - i) in
        set (if is_lower c then IDENT word else VARIABLE word) j
    end
    else
      let next = if i + 1 < n then String.unsafe_get src (i + 1) else '\000' in
      match (c, next) with
      | ':', '-' -> set ARROW (i + 2)
      | '?', '-' -> set QUERY (i + 2)
      | '<', '>' | '!', '=' -> set NEQ (i + 2)
      | '<', '=' -> set LE (i + 2)
      | '>', '=' -> set GE (i + 2)
      | '(', _ -> set LPAREN (i + 1)
      | ')', _ -> set RPAREN (i + 1)
      | '[', _ -> set LBRACKET (i + 1)
      | ']', _ -> set RBRACKET (i + 1)
      | ',', _ -> set COMMA (i + 1)
      | '.', _ -> set DOT (i + 1)
      | '|', _ -> set BAR (i + 1)
      | '+', _ -> set PLUS (i + 1)
      | '*', _ -> set STAR (i + 1)
      | '/', _ -> set SLASH (i + 1)
      | '=', _ -> set EQ (i + 1)
      | '<', _ -> set LT (i + 1)
      | '>', _ -> set GT (i + 1)
      | '?', _ -> set (IDENT "?") (i + 1)
      | c, _ -> fail_at line bol i (i + 1) (Fmt.str "unexpected character %C" c)

let create src =
  let cur =
    {
      src;
      pos = 0;
      line = 1;
      bol = 0;
      tok = EOF;
      tok_start = 0;
      tok_stop = 0;
      last_stop = -1;
      last_line = 0;
      last_bol = 0;
    }
  in
  scan cur;
  cur

let token cur = cur.tok

let advance cur =
  match cur.tok with
  | EOF -> ()
  | _ ->
    cur.last_stop <- cur.tok_stop;
    cur.last_line <- cur.line;
    cur.last_bol <- cur.bol;
    scan cur

let start cur = pos_at cur.line cur.bol cur.tok_start
let span cur = Loc.span (start cur) (pos_at cur.line cur.bol cur.tok_stop)

let last_stop cur =
  if cur.last_stop < 0 then invalid_arg "Lexer.last_stop: no token consumed";
  pos_at cur.last_line cur.last_bol cur.last_stop

let rec drain cur =
  match cur.tok with
  | EOF -> ()
  | _ ->
    scan cur;
    drain cur

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %s" s
  | VARIABLE s -> Fmt.pf ppf "variable %s" s
  | INTEGER i -> Fmt.pf ppf "integer %d" i
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | LBRACKET -> Fmt.string ppf "["
  | RBRACKET -> Fmt.string ppf "]"
  | COMMA -> Fmt.string ppf ","
  | DOT -> Fmt.string ppf "."
  | BAR -> Fmt.string ppf "|"
  | ARROW -> Fmt.string ppf ":-"
  | QUERY -> Fmt.string ppf "?-"
  | NOT -> Fmt.string ppf "not"
  | PLUS -> Fmt.string ppf "+"
  | STAR -> Fmt.string ppf "*"
  | SLASH -> Fmt.string ppf "/"
  | EQ -> Fmt.string ppf "="
  | NEQ -> Fmt.string ppf "<>"
  | LT -> Fmt.string ppf "<"
  | LE -> Fmt.string ppf "<="
  | GT -> Fmt.string ppf ">"
  | GE -> Fmt.string ppf ">="
  | EOF -> Fmt.string ppf "end of input"
