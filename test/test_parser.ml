open Datalog
open Helpers

let check_rule = Alcotest.testable Rule.pp Rule.equal

let test_rules () =
  let r = rule "a(X, Y) :- p(X, Z), a(Z, Y)." in
  Alcotest.(check int) "two body literals" 2 (List.length r.Rule.body);
  Alcotest.(check string) "head pred" "a" r.Rule.head.Atom.pred;
  let f = rule "p(a, 1)." in
  Alcotest.(check bool) "fact" true (Rule.is_fact f)

let test_comments_whitespace () =
  let p =
    program "% a comment\n a(X) :- b(X). % trailing\n\n  b(c)."
  in
  Alcotest.(check int) "two clauses" 2 (Program.size p)

let test_query () =
  let _, q = Parser.parse_program "a(X) :- b(X). ?- a(c)." in
  Alcotest.(check bool) "query found" true (q <> None);
  Alcotest.(check string) "query pred" "a" (Option.get q).Atom.pred

let test_anonymous () =
  let a = atom "p(?, _, X)" in
  let vars = Atom.vars a in
  Alcotest.(check int) "three distinct vars" 3 (List.length vars)

let test_builtins () =
  let r = rule "big(X) :- n(X), X > 3." in
  match r.Rule.body with
  | [ Rule.Pos _; Rule.Pos cmp ] ->
    Alcotest.(check bool) "builtin" true (Atom.is_builtin cmp);
    Alcotest.(check string) "op" ">" cmp.Atom.pred
  | _ -> Alcotest.fail "unexpected body shape"

let test_negation () =
  let r = rule "orphan(X) :- person(X), not par(_, X)." in
  match r.Rule.body with
  | [ Rule.Pos _; Rule.Neg _ ] -> ()
  | _ -> Alcotest.fail "expected a negated literal"

let test_lists () =
  Alcotest.check check_rule "cons rule"
    (Rule.make
       (Atom.make "append"
          [
            Term.Var "V";
            Term.cons (Term.Var "W") (Term.Var "X");
            Term.cons (Term.Var "W") (Term.Var "Y");
          ])
       [ Rule.Pos (Atom.make "append" [ Term.Var "V"; Term.Var "X"; Term.Var "Y" ]) ])
    (rule "append(V, [W|X], [W|Y]) :- append(V, X, Y).")

let test_errors () =
  let fails s = try ignore (program s); false with Parser.Error _ -> true in
  Alcotest.(check bool) "missing dot" true (fails "a(X) :- b(X)");
  Alcotest.(check bool) "builtin head" true (fails "X = Y :- b(X, Y).");
  Alcotest.(check bool) "unclosed paren" true (fails "a(X :- b(X).");
  Alcotest.(check bool) "bad char" true (fails "a(X) :- #b(X).")

(* an integer literal too large for [int] is a located lexical error *)
let test_int_literals () =
  Alcotest.(check bool) "max_int" true
    (Term.equal (Term.Int max_int) (term (string_of_int max_int)));
  (match atom "p(a, 99999999999999999999)" with
  | exception Parser.Error msg ->
    Alcotest.(check string) "message"
      "1:6: integer literal 99999999999999999999 does not fit in 63 bits" msg
  | _ -> Alcotest.fail "an out-of-range literal must not parse");
  match Parser.parse_program_spanned "p(1).\np(4611686018427387904).\n" with
  | Error { Parser.span; _ } ->
    Alcotest.(check (pair int int)) "caret on the literal" (2, 3)
      (span.Loc.start.Loc.line, span.Loc.start.Loc.col);
    Alcotest.(check int) "spans the literal" 19
      (span.Loc.stop.Loc.offset - span.Loc.start.Loc.offset)
  | Ok _ -> Alcotest.fail "max_int + 1 must not parse"

let test_split_facts () =
  let p, facts = Parser.split_facts (program "a(X) :- b(X). b(c). b(d). a(e).") in
  (* a(e) heads a proper rule's predicate, so it must stay in the program *)
  Alcotest.(check int) "facts" 2 (List.length facts);
  Alcotest.(check int) "rules" 2 (Program.size p)

let test_program_roundtrip () =
  let src =
    "a(X, Y) :- p(X, Z), a(Z, Y), X <> Y.\n\
     a(X, Y) :- p(X, Y).\n\
     r([H | T], N) :- r(T, M), N = M + 1.\n\
     q(X) :- s(X), not t(X)."
  in
  let p = program src in
  let p2 = program (Program.to_string p) in
  Alcotest.(check bool) "roundtrip" true (List.equal Rule.equal (Program.rules p) (Program.rules p2))

(* Front-end round trip over random programs: rules from
   [gen_random_rule], and ground facts with integer and compound
   constants, of base and of derived predicates, in random order.
   Printing with [Program.pp] and re-parsing gives back the program and
   the query; the text under each clause's span re-parses to that
   clause; and [Database.of_facts] over the extensional facts builds
   what repeated [Database.add_fact] does. *)
let gen_clauses =
  let open QCheck2.Gen in
  let fact =
    let* pred = oneofl [ "e0"; "e1"; "e2"; "i0"; "i1" ] in
    let+ args = list_repeat 2 gen_ground_term in
    Rule.fact (Atom.make pred args)
  in
  let* clauses =
    list_size (int_range 0 25)
      (frequency [ (1, map Parser.parse_rule gen_random_rule); (3, fact) ])
  in
  let+ q = gen_const in
  (Program.make clauses, Atom.make "i0" [ q; Term.Var "Y" ])

let print_case (p, q) = Fmt.str "%a@.?- %a." Program.pp p Atom.pp q

let same_db a b =
  let rows db sym = List.sort Atom.compare (Engine.Database.facts db sym) in
  let syms = Engine.Database.symbols a in
  List.equal Symbol.equal syms (Engine.Database.symbols b)
  && List.for_all (fun s -> List.equal Atom.equal (rows a s) (rows b s)) syms

let prop_round_trip (p, q) =
  let src = print_case (p, q) in
  match Parser.parse_program_spanned src with
  | Error { Parser.message; _ } -> QCheck2.Test.fail_reportf "%s: %s" message src
  | Ok (p', q', map) ->
    let rules = Program.rules p' in
    let clause_ok i r =
      match Parser.rule_spans map i with
      | None -> false
      | Some { Parser.clause_span = { Loc.start; stop }; _ } ->
        let text = String.sub src start.Loc.offset (stop.Loc.offset - start.Loc.offset) in
        Rule.equal (Parser.parse_rule text) r
    in
    let _, facts = Parser.split_facts p' in
    let one_by_one = Engine.Database.create () in
    List.iter (fun a -> ignore (Engine.Database.add_fact one_by_one a)) facts;
    List.equal Rule.equal (Program.rules p) rules
    && Option.equal Atom.equal (Some q) q'
    && List.for_all Fun.id (List.mapi clause_ok rules)
    && Parser.rule_spans map (List.length rules) = None
    && same_db (Engine.Database.of_facts facts) one_by_one

let suite =
  [
    Alcotest.test_case "rules" `Quick test_rules;
    Alcotest.test_case "comments" `Quick test_comments_whitespace;
    Alcotest.test_case "query" `Quick test_query;
    Alcotest.test_case "anonymous vars" `Quick test_anonymous;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "negation" `Quick test_negation;
    Alcotest.test_case "lists" `Quick test_lists;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "integer literals" `Quick test_int_literals;
    Alcotest.test_case "split facts" `Quick test_split_facts;
    Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
    qtest ~count:150 "front end: print, parse, spans and load round trip"
      ~print:print_case gen_clauses prop_round_trip;
  ]
