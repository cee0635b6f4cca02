open Datalog

type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  message : string;
  span : Loc.t;
  notes : (string * Loc.t) list;
}

let make severity ?(span = Loc.dummy) ?(notes = []) ~code message =
  { code; severity; message; span; notes }

let error = make Error
let warning = make Warning

let add_note ?(span = Loc.dummy) msg t = { t with notes = t.notes @ [ (msg, span) ] }

let is_error t = t.severity = Error

let errors ds = List.filter is_error ds
let has_errors ds = List.exists is_error ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

let severity_string = function Error -> "error" | Warning -> "warning"

(* stable presentation order: by source position, then code, then message *)
let compare a b =
  let pos t = if Loc.is_dummy t.span then max_int else t.span.Loc.start.Loc.offset in
  let c = Int.compare (pos a) (pos b) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c else String.compare a.message b.message

let sort ds = List.stable_sort compare ds

let pp_header ?file ppf t =
  let pp_file ppf =
    match file with Some f -> Fmt.pf ppf "%s:" f | None -> ()
  in
  if Loc.is_dummy t.span then
    Fmt.pf ppf "%t %s[%s]: %s" pp_file (severity_string t.severity) t.code t.message
  else
    Fmt.pf ppf "%t%a: %s[%s]: %s" pp_file Loc.pp t.span
      (severity_string t.severity) t.code t.message

(* caret-style excerpt of the first line the span covers:

     3 | p(X, Y) :- q(X).
       | ^^^^^^^^^^^^^^^^
*)
let pp_excerpt src ppf span =
  if not (Loc.is_dummy span) then begin
    let { Loc.line; col; _ } = span.Loc.start in
    let text = Loc.line_at src line in
    let width =
      if span.Loc.stop.Loc.line = line then max 1 (span.Loc.stop.Loc.col - col)
      else max 1 (String.length text - col + 1)
    in
    let gutter = Fmt.str "%d" line in
    let pad = String.make (String.length gutter) ' ' in
    (* the caret line copies the tabs before the span, so it lines up
       however the terminal expands them *)
    let indent =
      String.init (max 0 (col - 1)) (fun i ->
          if i < String.length text && text.[i] = '\t' then '\t' else ' ')
    in
    Fmt.pf ppf "@,%s | %s@,%s | %s%s" gutter text pad indent (String.make width '^')
  end

let render ?src ?file ppf t =
  Fmt.pf ppf "@[<v>%a" (pp_header ?file) t;
  (match src with Some src -> pp_excerpt src ppf t.span | None -> ());
  List.iter
    (fun (msg, span) ->
      if Loc.is_dummy span then Fmt.pf ppf "@,  = note: %s" msg
      else begin
        Fmt.pf ppf "@,  = note: %s (at %a)" msg Loc.pp span;
        match src with Some src -> pp_excerpt src ppf span | None -> ()
      end)
    t.notes;
  Fmt.pf ppf "@]"

let pp ppf t = render ppf t

let summary ppf ds =
  let e = count Error ds and w = count Warning ds in
  match e, w with
  | 0, 0 -> Fmt.pf ppf "no diagnostics"
  | _ ->
    let part n what = Fmt.str "%d %s%s" n what (if n = 1 then "" else "s") in
    Fmt.pf ppf "%s"
      (String.concat ", "
         ((if e > 0 then [ part e "error" ] else [])
         @ (if w > 0 then [ part w "warning" ] else [])))
