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

type state = {
  mutable toks : (Lexer.token * Loc.t) list;
  mutable fresh : int;
  mutable last : Loc.t; (* span of the most recently consumed token *)
}

let cur_span st = match st.toks with [] -> st.last | (_, sp) :: _ -> sp

let fail st msg =
  let tok = match st.toks with [] -> Lexer.EOF | (t, _) :: _ -> t in
  raise
    (Located
       { message = Fmt.str "%s (at %a)" msg Lexer.pp_token tok; span = cur_span st })

let peek st = match st.toks with [] -> Lexer.EOF | (t, _) :: _ -> t

let advance st =
  match st.toks with
  | [] -> ()
  | (_, sp) :: rest ->
    st.last <- sp;
    st.toks <- rest

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

(* parse one element while recording the span it covers *)
let spanned st f =
  let start = cur_span st in
  let v = f st in
  (v, Loc.merge start st.last)

let parse_literal st =
  match peek st with
  | Lexer.NOT ->
    advance st;
    Rule.Neg (parse_atom_or_builtin st)
  | _ -> Rule.Pos (parse_atom_or_builtin st)

let parse_clause st =
  match peek st with
  | Lexer.QUERY ->
    let start = cur_span st in
    advance st;
    let a = parse_atom_or_builtin st in
    expect st Lexer.DOT "expected '.' after query";
    `Query (a, Loc.merge start st.last)
  | _ ->
    let head, head_span = spanned st parse_atom_or_builtin in
    if Atom.is_builtin head then fail st "a rule head cannot be a builtin";
    let body =
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
        lits ()
      | _ -> []
    in
    expect st Lexer.DOT "expected '.' after rule";
    let spans =
      {
        clause_span = Loc.merge head_span st.last;
        head_span;
        literal_spans = List.map snd body;
      }
    in
    `Rule (Rule.make head (List.map fst body), spans)

let make_state input =
  let toks = Lexer.tokenize input in
  { toks; fresh = 0; last = Loc.dummy }

let parse_program_spanned input =
  try
    let st = make_state input in
    let rec loop rules spans query query_span =
      match peek st with
      | Lexer.EOF ->
        Ok
          ( Program.make (List.rev rules),
            query,
            { clauses = Array.of_list (List.rev spans); query_span } )
      | _ -> begin
        match parse_clause st with
        | `Rule (r, sp) -> loop (r :: rules) (sp :: spans) query query_span
        | `Query (q, sp) -> loop rules spans (Some q) (Some sp)
      end
    in
    loop [] [] None None
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
      | `Query _ -> raise (Error "expected a rule, found a query"))

let split_facts p =
  (* a ground fact becomes extensional only if its predicate heads no
     proper rule; otherwise it is part of the derived predicate's
     definition and must stay in the program *)
  let rule_heads =
    List.filter_map
      (fun r -> if Rule.is_fact r then None else Some (Atom.symbol r.Rule.head))
      (Program.rules p)
  in
  let extensional r =
    Rule.is_fact r
    && Atom.is_ground r.Rule.head
    && not (List.exists (Symbol.equal (Atom.symbol r.Rule.head)) rule_heads)
  in
  let facts, rules = List.partition extensional (Program.rules p) in
  (Program.make rules, List.map (fun r -> r.Rule.head) facts)
