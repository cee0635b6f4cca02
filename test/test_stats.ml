open Datalog
module S = Engine.Stats

let test_record () =
  let s = S.create () in
  S.record_fact s ~is_new:true;
  S.record_fact s ~is_new:true;
  S.record_fact s ~is_new:false;
  Alcotest.(check int) "facts" 2 s.S.facts;
  Alcotest.(check int) "firings" 3 s.S.firings;
  Alcotest.(check int) "rederivations" 1 s.S.rederivations

let test_engine_counts_are_consistent () =
  (* firings = facts + rederivations for every engine *)
  let p, q, edb =
    Helpers.load
      "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b). e(b,c). e(b,a). ?- t(a, ?)."
  in
  ignore q;
  List.iter
    (fun out ->
      let s = out.Engine.Eval.stats in
      Alcotest.(check int) "firings = facts + rederivations" s.S.firings
        (s.S.facts + s.S.rederivations))
    [ Engine.Eval.naive p ~edb; Engine.Eval.seminaive p ~edb ]

let atom_t = Alcotest.testable Atom.pp Atom.equal

(* regression: a body literal whose predicate has no relation at all
   performs no index work and must not be counted as a probe *)
let test_probes_skip_missing_relations () =
  let s = S.create () in
  let db = Engine.Database.of_facts [ Helpers.atom "b(1)"; Helpers.atom "b(7)" ] in
  let derived = ref [] in
  Engine.Solve.fire_rule ~stats:s
    ~source:(fun _ sym -> Engine.Database.find db sym)
    ~neg_source:(fun sym -> Engine.Database.find db sym)
    ~on_fact:(fun h -> derived := h :: !derived)
    (Helpers.rule "a(X) :- b(X), c(X).");
  Alcotest.(check int) "only the existing relation is probed" 1 s.S.probes;
  Alcotest.(check (list atom_t)) "no facts derived" [] !derived

(* regression: negated builtins are evaluated natively and touch no
   relation, so they must not be counted as probes either *)
let test_probes_skip_negated_builtins () =
  let s = S.create () in
  let db = Engine.Database.of_facts [ Helpers.atom "b(1)"; Helpers.atom "b(7)" ] in
  let r =
    Rule.make
      (Atom.make "a" [ Term.Var "X" ])
      [
        Rule.Pos (Helpers.atom "b(X)");
        Rule.Neg (Atom.make "<" [ Term.Var "X"; Term.Int 5 ]);
      ]
  in
  let derived = ref [] in
  Engine.Solve.fire_rule ~stats:s
    ~source:(fun _ sym -> Engine.Database.find db sym)
    ~neg_source:(fun sym -> Engine.Database.find db sym)
    ~on_fact:(fun h -> derived := h :: !derived)
    r;
  Alcotest.(check int) "negated builtin counts no probe" 1 s.S.probes;
  Alcotest.(check (list atom_t)) "only b(7) passes the guard"
    [ Helpers.atom "a(7)" ] !derived

let suite =
  [
    Alcotest.test_case "record" `Quick test_record;
    Alcotest.test_case "engine consistency" `Quick test_engine_counts_are_consistent;
    Alcotest.test_case "probes skip missing relations" `Quick
      test_probes_skip_missing_relations;
    Alcotest.test_case "probes skip negated builtins" `Quick
      test_probes_skip_negated_builtins;
  ]
