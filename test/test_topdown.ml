open Datalog
open Helpers

let test_sld_datalog () =
  let p, q, edb =
    load "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b). e(b,c). ?- t(a, ?)."
  in
  let r = Engine.Topdown.sld p ~edb q in
  Alcotest.(check bool) "complete" true r.Engine.Topdown.complete;
  Alcotest.(check int) "answers" 2 (List.length r.Engine.Topdown.answers)

let test_sld_depth_bound () =
  (* left recursion loops; the depth bound truncates and reports it *)
  let p, q, edb =
    load "t(X,Y) :- t(X,Z), e(Z,Y). t(X,Y) :- e(X,Y). e(a,b). ?- t(a, ?)."
  in
  let r = Engine.Topdown.sld ~max_depth:50 p ~edb q in
  Alcotest.(check bool) "truncated" false r.Engine.Topdown.complete

let test_tabled_left_recursion () =
  (* tabling handles left recursion that defeats SLD *)
  let p, q, edb =
    load "t(X,Y) :- t(X,Z), e(Z,Y). t(X,Y) :- e(X,Y). e(a,b). e(b,c). e(c,a). ?- t(a, ?)."
  in
  let r = Engine.Topdown.tabled p ~edb q in
  Alcotest.(check bool) "complete" true r.Engine.Topdown.complete;
  Alcotest.(check int) "answers" 3 (List.length r.Engine.Topdown.answers)

let test_tabled_counts_subqueries () =
  let p, q, edb =
    load "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b). e(b,c). e(b,d). ?- t(a, ?)."
  in
  let r = Engine.Topdown.tabled p ~edb q in
  (* subqueries: t(a,?), t(b,?), t(c,?), t(d,?) *)
  Alcotest.(check int) "tabled calls" 4 r.Engine.Topdown.stats.Engine.Stats.subqueries

(* [not assembly(Q)] is first tested while [assembly]'s table is still
   empty; the negated subgoal must be complete before it is read *)
let test_tabled_negation_complete () =
  let p, q, edb =
    load
      "component(P, Q) :- subpart(P, Q). \
       component(P, Q) :- subpart(P, R), component(R, Q). \
       assembly(P) :- subpart(P, _). \
       atomic(P, Q) :- component(P, Q), not assembly(Q). \
       subpart(bike, frame). subpart(bike, wheel). subpart(wheel, rim). \
       subpart(wheel, spoke). subpart(frame, tube). ?- atomic(bike, ?)."
  in
  let r = Engine.Topdown.tabled p ~edb q in
  Alcotest.(check bool) "complete" true r.Engine.Topdown.complete;
  Alcotest.check tuple_list "answers = seminaive"
    (Engine.Eval.answers (Engine.Eval.seminaive p ~edb) q)
    (List.sort Engine.Tuple.compare r.Engine.Topdown.answers);
  (* negation through recursion has no complete subgoal to read *)
  let p, q, edb = load "q(a). p(X) :- q(X), not p(X). ?- p(X)." in
  Alcotest.(check bool) "unstratifiable: Unsafe, not a stack overflow" true
    (match Engine.Topdown.tabled p ~edb q with
    | _ -> false
    | exception Engine.Solve.Unsafe _ -> true)

let test_sld_function_symbols () =
  let p = Workload.Programs.list_reverse in
  let q = Workload.Programs.reverse_query (Workload.Generate.list_of_ints 5) in
  let r = Engine.Topdown.sld ~max_depth:200 p ~edb:(Engine.Database.create ()) q in
  match r.Engine.Topdown.answers with
  | [ t ] ->
    Alcotest.(check bool)
      "reversed" true
      (Term.equal (Engine.Value.extern t.(1))
         (Term.list (List.rev (List.init 5 (fun i -> Term.Int i)))))
  | _ -> Alcotest.fail "expected one answer"

let test_negation_as_failure () =
  let p, q, edb =
    load "ok(X) :- n(X), not bad(X). bad(b). n(a). n(b). ?- ok(?)."
  in
  let r = Engine.Topdown.sld p ~edb q in
  Alcotest.(check int) "one ok" 1 (List.length r.Engine.Topdown.answers)

(* a query over a base predicate has no rules to table: tabled answers
   it from the EDB, as seminaive does, also beside rules for other
   predicates and with a repeated variable *)
let test_tabled_edb_query () =
  List.iter
    (fun src ->
      let p, q, edb = load src in
      let expected = Engine.Eval.answers (Engine.Eval.seminaive p ~edb) q in
      Alcotest.(check bool) (src ^ ": seminaive answers") true (expected <> []);
      let r = Engine.Topdown.tabled p ~edb q in
      Alcotest.(check bool) (src ^ ": complete") true r.Engine.Topdown.complete;
      Alcotest.check tuple_list src expected
        (List.sort Engine.Tuple.compare r.Engine.Topdown.answers))
    [
      "q(a). ?- q(X).";
      "e(a, b). e(b, c). ?- e(a, X).";
      "e(a, a). e(a, b). t(X, Y) :- e(X, Y). ?- e(X, X).";
    ]

let prop_topdown_matches_bottom_up =
  qtest ~count:50 "tabled = seminaive on random graphs" gen_edges (fun edges ->
      let p = Workload.Programs.transitive_closure in
      let edb = Engine.Database.of_facts (edges_to_facts ~pred:"edge" edges) in
      let q = Workload.Programs.tc_query (Term.Sym "n0") in
      let bu =
        List.sort Engine.Tuple.compare
          (Engine.Eval.answers (Engine.Eval.seminaive p ~edb) q)
      in
      let td =
        List.sort Engine.Tuple.compare (Engine.Topdown.tabled p ~edb q).Engine.Topdown.answers
      in
      List.equal Engine.Tuple.equal bu td)

(* a filter written before its binder waits for it, as the compiled
   executor runs it; one that is never bound is still refused, also when
   only a literal of the calling rule would bind it.  The query's free
   variable is bound through the unifier's variable chain, which a
   filter after its binder must also see through. *)
let test_filter_before_binder () =
  let expect = [ Engine.Tuple.of_list [ Term.Int 1 ] ] in
  List.iter
    (fun src ->
      let p, q, edb = load src in
      let sld = Engine.Topdown.sld p ~edb q in
      Alcotest.check tuple_list ("sld: " ^ src) expect sld.Engine.Topdown.answers;
      let tabled = Engine.Topdown.tabled p ~edb q in
      Alcotest.check tuple_list ("tabled: " ^ src) expect tabled.Engine.Topdown.answers)
    [
      "b(1). b(5). a(X) :- X < 3, not c(X), b(X). c(7). ?- a(X).";
      "b(1). b(5). a(X) :- b(X), X < 3. ?- a(X).";
    ];
  List.iter
    (fun src ->
      let p, q, edb = load src in
      List.iter
        (fun (name, run) ->
          match run () with
          | _ -> Alcotest.failf "%s: a filter never bound was evaluated: %s" name src
          | exception Engine.Solve.Unsafe _ -> ())
        [
          ("sld", fun () -> Engine.Topdown.sld p ~edb q);
          ("tabled", fun () -> Engine.Topdown.tabled p ~edb q);
        ])
    [
      "c(1). a(1) :- X = Y, c(1). ?- a(1).";
      "b(1). q(X) :- X < 3. p(X) :- q(X), b(X). ?- p(X).";
    ]

let suite =
  [
    Alcotest.test_case "sld datalog" `Quick test_sld_datalog;
    Alcotest.test_case "sld depth bound" `Quick test_sld_depth_bound;
    Alcotest.test_case "tabled left recursion" `Quick test_tabled_left_recursion;
    Alcotest.test_case "tabled subquery count" `Quick test_tabled_counts_subqueries;
    Alcotest.test_case "tabled negation reads complete subgoals" `Quick
      test_tabled_negation_complete;
    Alcotest.test_case "sld function symbols" `Quick test_sld_function_symbols;
    Alcotest.test_case "negation as failure" `Quick test_negation_as_failure;
    Alcotest.test_case "filter before its binder" `Quick test_filter_before_binder;
    Alcotest.test_case "tabled answers an EDB query" `Quick test_tabled_edb_query;
    prop_topdown_matches_bottom_up;
  ]
