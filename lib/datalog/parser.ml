exception Error of string

type error = { message : string; span : Loc.t }

exception Located of error
(* internal: every failure is raised with its span, and the unlocated
   public entry points render it into the compatibility [Error] message *)

type clause_spans = {
  clause_span : Loc.t;
  head_span : Loc.t;
  literal_spans : Loc.t list;
}

type source_map = { clauses : clause_spans array; query_span : Loc.t option }

let empty_map = { clauses = [||]; query_span = None }

let rule_spans map i =
  if i >= 0 && i < Array.length map.clauses then Some map.clauses.(i) else None

type state = { lx : Lexer.t; mutable fresh : int }

let peek st = Lexer.token st.lx
let advance st = Lexer.advance st.lx

(* a lexical error later in the input takes precedence over the syntax
   error at the current token *)
let fail st msg =
  let e =
    { message = Fmt.str "%s (at %a)" msg Lexer.pp_token (peek st); span = Lexer.span st.lx }
  in
  Lexer.drain st.lx;
  raise (Located e)

let expect st tok msg = if peek st = tok then advance st else fail st msg

let fresh_var st =
  let n = st.fresh in
  st.fresh <- n + 1;
  Fmt.str "_G%d" n

let rec parse_term st =
  let t = parse_product st in
  match peek st with
  | Lexer.PLUS ->
    advance st;
    let rest = parse_term st in
    (* re-associate to the left for a canonical shape *)
    begin
      match rest with
      | Term.Add (a, b) -> Term.Add (Term.Add (t, a), b)
      | _ -> Term.Add (t, rest)
    end
  | _ -> t

and parse_product st =
  let rec loop acc =
    match peek st with
    | Lexer.STAR ->
      advance st;
      loop (Term.Mul (acc, parse_primary st))
    | Lexer.SLASH ->
      advance st;
      loop (Term.Div (acc, parse_primary st))
    | _ -> acc
  in
  loop (parse_primary st)

and parse_primary st =
  match peek st with
  | Lexer.VARIABLE "_" ->
    advance st;
    Term.Var (fresh_var st)
  | Lexer.IDENT "?" ->
    advance st;
    Term.Var (fresh_var st)
  | Lexer.VARIABLE x ->
    advance st;
    Term.Var x
  | Lexer.INTEGER i ->
    advance st;
    Term.Int i
  | Lexer.IDENT f -> begin
    advance st;
    match peek st with
    | Lexer.LPAREN ->
      advance st;
      let args = parse_term_list st in
      expect st Lexer.RPAREN "expected ')' after arguments";
      Term.App (f, args)
    | _ -> Term.Sym f
  end
  | Lexer.LBRACKET -> begin
    advance st;
    match peek st with
    | Lexer.RBRACKET ->
      advance st;
      Term.nil
    | _ ->
      let heads = parse_term_list st in
      let tail =
        match peek st with
        | Lexer.BAR ->
          advance st;
          parse_term st
        | _ -> Term.nil
      in
      expect st Lexer.RBRACKET "expected ']' to close list";
      List.fold_right Term.cons heads tail
  end
  | Lexer.LPAREN ->
    advance st;
    let t = parse_term st in
    expect st Lexer.RPAREN "expected ')'";
    t
  | _ -> fail st "expected a term"

and parse_term_list st =
  let t = parse_term st in
  match peek st with
  | Lexer.COMMA ->
    advance st;
    t :: parse_term_list st
  | _ -> [ t ]

let atom_of_term st = function
  | Term.Sym p -> Atom.make p []
  | Term.App (p, args) -> Atom.make p args
  | _ -> fail st "expected an atom"

let relop_of_token = function
  | Lexer.EQ -> Some "="
  | Lexer.NEQ -> Some "<>"
  | Lexer.LT -> Some "<"
  | Lexer.LE -> Some "<="
  | Lexer.GT -> Some ">"
  | Lexer.GE -> Some ">="
  | _ -> None

let parse_atom_or_builtin st =
  let t = parse_term st in
  match relop_of_token (peek st) with
  | Some op ->
    advance st;
    let u = parse_term st in
    Atom.make op [ t; u ]
  | None -> atom_of_term st t

(* parse one element while recording the span it covers: from the start
   of its first token to the end of its last *)
let spanned st f =
  let start = Lexer.start st.lx in
  let v = f st in
  (v, Loc.span start (Lexer.last_stop st.lx))

let parse_literal st =
  match peek st with
  | Lexer.NOT ->
    advance st;
    Rule.Neg (parse_atom_or_builtin st)
  | _ -> Rule.Pos (parse_atom_or_builtin st)

let parse_clause st =
  match peek st with
  | Lexer.QUERY ->
    let start = Lexer.start st.lx in
    advance st;
    let a = parse_atom_or_builtin st in
    expect st Lexer.DOT "expected '.' after query";
    `Query (a, Loc.span start (Lexer.last_stop st.lx))
  | _ ->
    let head, head_span = spanned st parse_atom_or_builtin in
    if Atom.is_builtin head then fail st "a rule head cannot be a builtin";
    let body, literal_spans =
      match peek st with
      | Lexer.ARROW ->
        advance st;
        let rec lits () =
          let l = spanned st parse_literal in
          match peek st with
          | Lexer.COMMA ->
            advance st;
            l :: lits ()
          | _ -> [ l ]
        in
        List.split (lits ())
      | _ -> ([], [])
    in
    expect st Lexer.DOT "expected '.' after rule";
    let clause_span = Loc.span head_span.Loc.start (Lexer.last_stop st.lx) in
    `Rule (Rule.make head body, { clause_span; head_span; literal_spans })

let make_state input = { lx = Lexer.create input; fresh = 0 }

let parse_program_spanned input =
  try
    let st = make_state input in
    let spans = ref [] and query = ref None in
    (* the rules in order, without a reversed copy *)
    let[@tail_mod_cons] rec rules () =
      match peek st with
      | Lexer.EOF -> []
      | _ -> begin
        match parse_clause st with
        | `Rule (r, sp) ->
          spans := sp :: !spans;
          r :: rules ()
        | `Query q ->
          query := Some q;
          rules ()
      end
    in
    let rules = rules () in
    let clauses = Array.of_list (List.rev !spans) in
    Ok
      ( Program.make rules,
        Option.map fst !query,
        { clauses; query_span = Option.map snd !query } )
  with
  | Located e -> Stdlib.Error e
  | Lexer.Error (message, span) -> Stdlib.Error { message; span }

let located_failure { message; span } =
  if Loc.is_dummy span then Error message
  else Error (Fmt.str "%a: %s" Loc.pp span message)

let parse_program input =
  match parse_program_spanned input with
  | Ok (program, query, _) -> (program, query)
  | Stdlib.Error e -> raise (located_failure e)

let relocate f =
  (* wrap a parsing function so single-item entry points report located
     errors through the compatibility exception *)
  try f () with
  | Located e -> raise (located_failure e)
  | Lexer.Error (message, span) -> raise (located_failure { message; span })

let parse_one f input =
  relocate (fun () ->
      let st = make_state input in
      let v = f st in
      if peek st <> Lexer.EOF then fail st "trailing input";
      v)

let parse_term input = parse_one parse_term input
let parse_atom input = parse_one parse_atom_or_builtin input

let parse_rule input =
  relocate (fun () ->
      let st = make_state input in
      match parse_clause st with
      | `Rule (r, _) ->
        if peek st <> Lexer.EOF then fail st "trailing input" else r
      | `Query _ ->
        Lexer.drain st.lx;
        raise (Error "expected a rule, found a query"))

(* a ground fact becomes extensional only if its predicate heads no
   proper rule; otherwise it is part of the derived predicate's
   definition and must stay in the program *)
let rule_heads rules =
  List.fold_left
    (fun s r -> if Rule.is_fact r then s else Symbol.Set.add (Atom.symbol r.Rule.head) s)
    Symbol.Set.empty rules

let is_extensional heads r =
  Rule.is_fact r
  && Atom.is_ground r.Rule.head
  && not (Symbol.Set.mem (Atom.symbol r.Rule.head) heads)

let split_facts p =
  let heads = rule_heads (Program.rules p) in
  let facts, rules = List.partition (is_extensional heads) (Program.rules p) in
  (Program.make rules, List.map (fun r -> r.Rule.head) facts)
