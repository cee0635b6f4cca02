(* The static analyzer: golden diagnostics for ill-formed programs
   (mirroring the data/bad corpus), caret rendering, rewrite-invariant
   violations on deliberately mutilated rewritings, and the property that
   every generated valid program is accepted. *)

open Datalog
open Helpers
module A = Analysis
module C = Magic_core

let error_codes src =
  List.sort_uniq String.compare
    (List.map
       (fun (d : A.Diagnostic.t) -> d.A.Diagnostic.code)
       (A.Diagnostic.errors (A.check_text src)))

let check_errors name src expected =
  Alcotest.(check (list string)) name expected (error_codes src)

(* ------------------------------------------------------------------ *)
(* golden error codes (one test per data/bad program)                  *)
(* ------------------------------------------------------------------ *)

let test_unsafe_head () =
  check_errors "E003" "q(a).\np(X, Y) :- q(X).\n?- p(a, Y)." [ "E003" ]

let test_neg_unrestricted () =
  check_errors "E001"
    "e(1, 2).\nv(1).\ncomp(X) :- v(X), not e(X, Y).\n?- comp(1)." [ "E001" ]

let test_unstratified () =
  check_errors "E010"
    "move(a, b).\nmove(b, a).\nwin(X) :- move(X, Y), not win(Y).\n?- win(a)."
    [ "E010" ]

let test_arity_clash () =
  check_errors "E020" "p(a, b).\nr(X) :- p(X).\n?- r(a)." [ "E020" ]

let test_comparison_unbound () =
  check_errors "E002" "n(1).\nbig(X) :- n(X), Y > 3.\n?- big(1)." [ "E002" ]

let test_equality_unbound () =
  (* neither side of X = Y is ever bound *)
  check_errors "E002 equality" "c(1).\na(1) :- X = Y, c(1).\n?- a(1)." [ "E002" ];
  (* one bound side binds the other *)
  check_errors "equality from a bound side" "c(1).\na(Y) :- c(X), X = Y.\n?- a(1)." []

let test_parse_error () = check_errors "E100 syntax" "p(a, b.\n?- p(X, Y)." [ "E100" ]
let test_lex_error () = check_errors "E100 lexical" "p(a) # q(b).\n?- p(X)." [ "E100" ]

let test_int_overflow () =
  check_errors "E100 integer overflow" "p(1).\np(99999999999999999999).\n?- p(X)." [ "E100" ]

let test_equality_binds () =
  (* an equality chain can bind a comparison's variable: no E002 *)
  check_errors "equality binds" "n(1).\nbig(X) :- n(X), Y = X, Y > 0.\n?- big(1)."
    []

let test_good_programs_clean () =
  List.iter
    (fun (name, src) -> check_errors name src [])
    [
      ("ancestor", "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\np(n0, n1).\n?- a(n0, Y).");
      (* the paper's list reverse: violates (WF) but magic repairs it *)
      ( "list reverse",
        "append(V, [], [V]).\n\
         append(V, [W|X], [W|Y]) :- append(V, X, Y).\n\
         rev([], []).\n\
         rev([X|Y], Z) :- rev(Y, W), append(X, W, Z).\n\
         ?- rev([1, 2], Z)." );
      ("edb query", "p(a, b).\n?- p(a, X).");
    ]

let test_warning_codes () =
  let codes src =
    List.sort_uniq String.compare
      (List.map (fun (d : A.Diagnostic.t) -> d.A.Diagnostic.code) (A.check_text src))
  in
  Alcotest.(check (list string))
    "dead rule + unused + singleton"
    [ "W010"; "W011"; "W020" ]
    (codes
       "p(a, b).\n\
        r(X, Y) :- p(X, Y).\n\
        dead(X, Q) :- p(X, Q).\n\
        s(X) :- p(X, Lone).\n\
        s(X) :- r(X, X).\n\
        ?- s(a).")

let all_codes src =
  List.sort_uniq String.compare
    (List.map (fun (d : A.Diagnostic.t) -> d.A.Diagnostic.code) (A.check_text src))

(* mirrors data/bad/singleton_vars.dl: the '_' prefix silences W020 on a
   true singleton, and W021 flags a '_'-prefixed variable that joins *)
let test_underscore_singletons () =
  Alcotest.(check (list string))
    "underscore singleton is silent" []
    (all_codes "p(a, b).\ns(X) :- p(X, _Ignored).\n?- s(a).");
  Alcotest.(check (list string))
    "underscore join warns W021" [ "W021" ]
    (all_codes "p(a, b).\nq(b, c).\nsh(X, Y) :- p(X, _Mid), q(_Mid, Y).\n?- sh(a, Y).");
  Alcotest.(check (list string))
    "singleton_vars corpus golden"
    [ "E020"; "W020"; "W021" ]
    (all_codes
       "p(a, b).\n\
        q(b, c).\n\
        top(X, Y) :- first(X, Y).\n\
        top(X, Y) :- silent(X, Y).\n\
        top(X, Y) :- shared(X, Y).\n\
        top(X, Y) :- clash(X, Y).\n\
        first(X, X) :- p(X, Lone).\n\
        silent(X, X) :- p(X, _Ignored).\n\
        shared(X, Y) :- p(X, _Mid), q(_Mid, Y).\n\
        clash(X, Y) :- p(X, Y), p(X).\n\
        ?- top(a, Y).")

(* ------------------------------------------------------------------ *)
(* spans and rendering                                                 *)
(* ------------------------------------------------------------------ *)

let test_diagnostic_span () =
  let src = "move(a, b).\nwin(X) :- move(X, Y), not win(Y).\n?- win(a)." in
  match A.check_text src with
  | [ d ] ->
    let { Loc.line; col; _ } = d.A.Diagnostic.span.Loc.start in
    Alcotest.(check (pair int int)) "span start" (2, 23) (line, col)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

(* Spans stay exact deep into a large file: E020 on the last of 5,001
   clauses with its note on the first use, and an adorned-level E003
   on a rule after 5,000 facts, which reaches its clause through the
   fact-free program's index map. *)
let test_spans_at_scale () =
  let facts pred =
    String.concat "\n" (List.init 5000 (fun i -> Fmt.str "%s(n%d, n%d)." pred i (i + 1)))
  in
  let line (sp : Loc.t) = sp.Loc.start.Loc.line in
  (match A.check_text (facts "e" ^ "\ne(n0, n1, n2).\n") with
  | [ d ] ->
    Alcotest.(check string) "code" "E020" d.A.Diagnostic.code;
    Alcotest.(check int) "on the last line" 5001 (line d.A.Diagnostic.span);
    Alcotest.(check (list int)) "note at the first use" [ 1 ]
      (List.map (fun (_, sp) -> line sp) d.A.Diagnostic.notes)
  | ds -> Alcotest.failf "expected one E020, got %d diagnostics" (List.length ds));
  match
    A.check_text (facts "q" ^ "\np(X, Y) :- q(X, _Z).\n?- p(n0, Y).\n")
    |> List.filter A.Diagnostic.is_error
  with
  | [ d ] ->
    Alcotest.(check string) "code" "E003" d.A.Diagnostic.code;
    Alcotest.(check int) "on the rule's line" 5001 (line d.A.Diagnostic.span)
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

let test_rendering () =
  let src = "move(a, b).\nwin(X) :- move(X, Y), not win(Y).\n?- win(a)." in
  match A.check_text src with
  | [ d ] ->
    Alcotest.(check string) "rendered"
      (String.concat "\n"
         [
           "game.dl:2:23: error[E010]: negation through recursion: 'win' \
            depends negatively on 'win', which depends back on 'win'; the \
            program is not stratifiable";
           "2 | win(X) :- move(X, Y), not win(Y).";
           "  |                       ^^^^^^^^^^";
           "  = note: cycle: win -> win";
         ])
      (Fmt.str "%a" (A.Diagnostic.render ~src ~file:"game.dl") d)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_loc_of_offset () =
  let src = "ab\ncd\nef" in
  let p = Loc.of_offset src 4 in
  Alcotest.(check (pair int int)) "of_offset" (2, 2) (p.Loc.line, p.Loc.col)

(* ------------------------------------------------------------------ *)
(* sip checks on constructed values                                    *)
(* ------------------------------------------------------------------ *)

let test_invalid_sip () =
  let r = rule "a(X, Y) :- p(X, Z), a(Z, Y)." in
  let adornment = C.Adornment.of_string "bf" in
  (* label variable Q occurs nowhere in the tail: violates (2i) *)
  let bad =
    { C.Sip.arcs = [ { C.Sip.tail = [ C.Sip.Head ]; target = 1; label = [ "Q" ] } ] }
  in
  match A.Pass_sip.check_sip r adornment bad with
  | [ d ] -> Alcotest.(check string) "code" "E030" d.A.Diagnostic.code
  | ds -> Alcotest.failf "expected one E030, got %d diagnostics" (List.length ds)

let test_arc_order () =
  (* an arc whose tail references a literal at or after its target *)
  let ar =
    {
      C.Adorn.source_index = 0;
      head_pred = "a";
      head_adornment = C.Adornment.of_string "bf";
      sip =
        { C.Sip.arcs = [ { C.Sip.tail = [ C.Sip.Body 1 ]; target = 0; label = [ "Z" ] } ] };
      rule = rule "a_bf(X, Y) :- p(X, Z), a_bf(Z, Y).";
      body_adornments = [| None; Some (C.Adornment.of_string "bf") |];
    }
  in
  match A.Pass_sip.check_arc_order ar with
  | [ d ] -> Alcotest.(check string) "code" "E031" d.A.Diagnostic.code
  | ds -> Alcotest.failf "expected one E031, got %d diagnostics" (List.length ds)

(* ------------------------------------------------------------------ *)
(* rewrite-invariant linter on mutilated rewritings                    *)
(* ------------------------------------------------------------------ *)

let ancestor_src =
  "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\np(n0, n1).\np(n1, n2).\n?- a(n0, Y)."

let rw_of strategy =
  let p, q, _ = load ancestor_src in
  C.Rewrite.rewrite strategy p q

let lint_codes rw =
  List.sort_uniq String.compare
    (List.map (fun (d : A.Diagnostic.t) -> d.A.Diagnostic.code) (A.Rewrite_lint.check rw))

let has_code code rw =
  if not (List.mem code (lint_codes rw)) then
    Alcotest.failf "expected %s among %a" code
      Fmt.(Dump.list string)
      (lint_codes rw)

let test_lint_clean_strategies () =
  let p, q, _ = load ancestor_src in
  lint_clean "ancestor" p q

let test_lint_missing_seed () =
  let rw = rw_of C.Rewrite.GMS in
  has_code "E044" { rw with C.Rewritten.seeds = [] }

let test_lint_undefined_sup () =
  let rw = rw_of C.Rewrite.GSMS in
  let keep (r : Rule.t) =
    match C.Naming.role rw.C.Rewritten.naming r.Rule.head.Atom.pred with
    | Some (C.Naming.Supp _) -> false
    | _ -> true
  in
  let program =
    Program.make (List.filter keep (Program.rules rw.C.Rewritten.program))
  in
  has_code "E041" { rw with C.Rewritten.program = program }

let test_lint_arity_clash () =
  let rw = rw_of C.Rewrite.GMS in
  let widen (r : Rule.t) =
    { r with Rule.head = { r.Rule.head with Atom.args = Term.Int 0 :: r.Rule.head.Atom.args } }
  in
  let program =
    match Program.rules rw.C.Rewritten.program with
    | first :: rest -> Program.make (widen first :: rest)
    | [] -> Alcotest.fail "empty rewritten program"
  in
  has_code "E040" { rw with C.Rewritten.program = program }

let test_lint_role_arity () =
  (* widen the magic predicate at every occurrence: arities stay
     consistent (no E040) but contradict the Magic role (E042) *)
  let rw = rw_of C.Rewrite.GMS in
  let widen_atom (a : Atom.t) =
    match C.Naming.role rw.C.Rewritten.naming a.Atom.pred with
    | Some (C.Naming.Magic _) -> { a with Atom.args = Term.Int 0 :: a.Atom.args }
    | _ -> a
  in
  let widen_rule (r : Rule.t) =
    {
      Rule.head = widen_atom r.Rule.head;
      body = List.map (Rule.map_literal widen_atom) r.Rule.body;
    }
  in
  let mutated =
    {
      rw with
      C.Rewritten.program =
        Program.make (List.map widen_rule (Program.rules rw.C.Rewritten.program));
      seeds = List.map widen_atom rw.C.Rewritten.seeds;
    }
  in
  has_code "E042" mutated;
  if List.mem "E040" (lint_codes mutated) then
    Alcotest.fail "consistent widening must not raise E040"

let test_lint_bad_index_term () =
  let rw = rw_of C.Rewrite.GC in
  let seeds =
    List.map
      (fun (s : Atom.t) ->
        match s.Atom.args with
        | _ :: rest -> { s with Atom.args = Term.Sym "bogus" :: rest }
        | [] -> s)
      rw.C.Rewritten.seeds
  in
  has_code "E043" { rw with C.Rewritten.seeds = seeds }

let test_lint_unstratified () =
  let rw = rw_of C.Rewrite.GMS in
  let x = Atom.make "x" [] in
  let program =
    Program.make (Rule.make x [ Rule.Neg x ] :: Program.rules rw.C.Rewritten.program)
  in
  has_code "E046" { rw with C.Rewritten.program = program }

let test_lint_missing_guard () =
  let rw = rw_of C.Rewrite.GMS in
  let drop_magic (r : Rule.t) =
    let body =
      List.filter
        (fun lit ->
          match
            C.Naming.role rw.C.Rewritten.naming
              (Rule.atom_of_literal lit).Atom.pred
          with
          | Some (C.Naming.Magic _) -> false
          | _ -> true)
        r.Rule.body
    in
    { r with Rule.body = body }
  in
  let program =
    Program.make (List.map drop_magic (Program.rules rw.C.Rewritten.program))
  in
  has_code "E047" { rw with C.Rewritten.program = program }

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* dependency footprints                                               *)
(* ------------------------------------------------------------------ *)

let fp_preds fp =
  List.sort_uniq String.compare
    (List.map
       (fun s -> s.Symbol.name)
       (Symbol.Set.elements (A.Footprint.preds fp)))

let test_footprint_negation () =
  let p =
    program
      "p(X) :- q(X), not r(X).\nr(X) :- s(X).\ntop(X) :- p(X).\nother(X) :- w(X)."
  in
  let idx = A.Footprint.index p in
  let fp sym arity = A.Footprint.of_pred idx (Symbol.make sym arity) in
  (* below the negation: clean *)
  Alcotest.(check (list string)) "r reaches s" [ "r"; "s" ] (fp_preds (fp "r" 1));
  Alcotest.(check bool) "r is negation-free" true (A.Footprint.neg_free (fp "r" 1));
  (* at and above the negation: the footprint still includes everything
     read, and neg_free is off *)
  Alcotest.(check (list string)) "p reaches through not"
    [ "p"; "q"; "r"; "s" ]
    (fp_preds (fp "p" 1));
  Alcotest.(check bool) "p reads through negation" false
    (A.Footprint.neg_free (fp "p" 1));
  Alcotest.(check bool) "top inherits the negation" false
    (A.Footprint.neg_free (fp "top" 1));
  (* disjoint subprogram: untouched by p's world *)
  Alcotest.(check (list string)) "other is independent" [ "other"; "w" ]
    (fp_preds (fp "other" 1));
  Alcotest.(check bool) "intersects" true
    (A.Footprint.intersects (fp "top" 1) (Symbol.Set.singleton (Symbol.make "s" 1)));
  Alcotest.(check bool) "disjoint" false
    (A.Footprint.intersects (fp "other" 1) (Symbol.Set.singleton (Symbol.make "s" 1)));
  (* an extensional (or unknown) predicate is its own footprint *)
  Alcotest.(check (list string)) "edb singleton" [ "q" ] (fp_preds (fp "q" 1))

let test_footprint_through_magic () =
  (* footprints are computed over the program actually maintained: for
     a magic session that is the rewritten program, where the answer
     predicate recurses through its magic predicate *)
  let p = program "a(X, Y) :- e(X, Y).\na(X, Y) :- e(X, Z), a(Z, Y)." in
  let q = Atom.make "a" [ Term.Sym "n0"; Term.Var "Ans" ] in
  let rw = C.Rewrite.rewrite C.Rewrite.GMS p q in
  let idx = A.Footprint.index rw.C.Rewritten.program in
  let ans = Atom.symbol rw.C.Rewritten.query in
  let fp = A.Footprint.of_pred idx ans in
  let names = fp_preds fp in
  Alcotest.(check bool) "answer predicate reaches its magic" true
    (List.exists (fun s -> String.length s >= 5 && String.sub s 0 5 = "magic") names);
  Alcotest.(check bool) "reaches the EDB" true (List.mem "e" names);
  Alcotest.(check bool) "magic recursion is negation-free" true
    (A.Footprint.neg_free fp);
  (* the memoized lookup is stable *)
  Alcotest.(check bool) "memo returns the same footprint" true
    (A.Footprint.of_pred idx ans == fp)

let prop_accepts_valid_programs =
  qtest ~count:80 "analyzer accepts every generated valid program"
    gen_random_program
    (fun src ->
      A.Diagnostic.errors (A.check_text (src ^ "\n?- i0(n0, Y).")) = [])

let prop_preflight_subset =
  qtest ~count:40 "preflight = the error subset of check" gen_random_program
    (fun src ->
      let program, query = Parser.parse_program src in
      let pre = A.preflight ?query program in
      List.for_all A.Diagnostic.is_error pre)

let suite =
  [
    Alcotest.test_case "E003 unsafe head" `Quick test_unsafe_head;
    Alcotest.test_case "E001 negated unrestricted" `Quick test_neg_unrestricted;
    Alcotest.test_case "E010 unstratified" `Quick test_unstratified;
    Alcotest.test_case "E020 arity clash" `Quick test_arity_clash;
    Alcotest.test_case "E002 comparison unbound" `Quick test_comparison_unbound;
    Alcotest.test_case "E002 equality unbound" `Quick test_equality_unbound;
    Alcotest.test_case "E100 parse error" `Quick test_parse_error;
    Alcotest.test_case "E100 lex error" `Quick test_lex_error;
    Alcotest.test_case "E100 integer overflow" `Quick test_int_overflow;
    Alcotest.test_case "equality binds comparisons" `Quick test_equality_binds;
    Alcotest.test_case "good programs are clean" `Quick test_good_programs_clean;
    Alcotest.test_case "warning codes" `Quick test_warning_codes;
    Alcotest.test_case "underscore singletons" `Quick test_underscore_singletons;
    Alcotest.test_case "diagnostic span" `Quick test_diagnostic_span;
    Alcotest.test_case "spans at scale" `Quick test_spans_at_scale;
    Alcotest.test_case "caret rendering" `Quick test_rendering;
    Alcotest.test_case "Loc.of_offset" `Quick test_loc_of_offset;
    Alcotest.test_case "E030 invalid sip" `Quick test_invalid_sip;
    Alcotest.test_case "E031 arc order" `Quick test_arc_order;
    Alcotest.test_case "linter: clean strategies" `Quick test_lint_clean_strategies;
    Alcotest.test_case "linter: missing seed" `Quick test_lint_missing_seed;
    Alcotest.test_case "linter: undefined sup" `Quick test_lint_undefined_sup;
    Alcotest.test_case "linter: arity clash" `Quick test_lint_arity_clash;
    Alcotest.test_case "linter: role arity" `Quick test_lint_role_arity;
    Alcotest.test_case "linter: bad index term" `Quick test_lint_bad_index_term;
    Alcotest.test_case "linter: unstratified" `Quick test_lint_unstratified;
    Alcotest.test_case "linter: missing guard" `Quick test_lint_missing_guard;
    Alcotest.test_case "footprint: negation" `Quick test_footprint_negation;
    Alcotest.test_case "footprint: recursion through magic" `Quick
      test_footprint_through_magic;
    prop_accepts_valid_programs;
    prop_preflight_subset;
  ]
