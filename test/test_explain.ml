open Datalog
open Helpers
module E = Engine.Explain

let prepare src =
  let p, q, edb = load src in
  let out = Engine.Eval.seminaive p ~edb in
  (p, q, out.Engine.Eval.db)

let test_base_fact () =
  let p, _, db = prepare "t(X,Y) :- e(X,Y). e(a,b). ?- t(a, ?)." in
  match E.derive p db (atom "e(a, b)") with
  | Some (E.Leaf a) -> Alcotest.(check bool) "leaf" true (Atom.equal a (atom "e(a, b)"))
  | _ -> Alcotest.fail "expected a leaf"

let test_chain_derivation () =
  let p, _, db =
    prepare
      "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b). e(b,c). e(c,d). ?- t(a, ?)."
  in
  match E.derive p db (atom "t(a, d)") with
  | None -> Alcotest.fail "no derivation"
  | Some tree ->
    Alcotest.(check bool) "valid" true (E.check p db tree);
    (* t(a,d) <- e(a,b), t(b,d) <- e(b,c), t(c,d) <- e(c,d): 4 levels *)
    Alcotest.(check int) "depth" 4 (E.depth tree);
    Alcotest.(check bool) "root fact" true (Atom.equal (E.fact tree) (atom "t(a, d)"))

let test_missing_fact () =
  let p, _, db = prepare "t(X,Y) :- e(X,Y). e(a,b). ?- t(a, ?)." in
  Alcotest.(check bool) "underivable" true (E.derive p db (atom "t(b, a)") = None)

let test_cyclic_data () =
  (* derivations stay well-founded on cyclic graphs *)
  let p, _, db =
    prepare "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b). e(b,a). ?- t(a, ?)."
  in
  match E.derive p db (atom "t(a, a)") with
  | None -> Alcotest.fail "no derivation"
  | Some tree ->
    Alcotest.(check bool) "valid" true (E.check p db tree);
    Alcotest.(check bool) "finite" true (E.size tree < 20)

let test_builtin_premises () =
  let p, _, db = prepare "big(X) :- n(X), X > 3. n(5). n(1). ?- big(?)." in
  match E.derive p db (atom "big(5)") with
  | Some (E.Node { premises = [ E.Leaf n; E.Leaf cmp ]; _ }) ->
    Alcotest.(check bool) "n leaf" true (Atom.equal n (atom "n(5)"));
    Alcotest.(check bool) "cmp leaf" true (Atom.equal cmp (atom "5 > 3"))
  | _ -> Alcotest.fail "unexpected shape"

let test_negation_premise () =
  let p, _, db =
    prepare "ok(X) :- n(X), not bad(X). n(a). n(b). bad(b). ?- ok(?)."
  in
  match E.derive p db (atom "ok(a)") with
  | Some tree -> Alcotest.(check int) "depth 2" 2 (E.depth tree)
  | None -> Alcotest.fail "no derivation"

let test_explaining_magic_fact () =
  (* explain a magic fact of the rewritten ancestor program: its
     derivation walks the parent chain from the seed *)
  let program = Workload.Programs.ancestor in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 5) in
  let rw = Magic_core.Magic_sets.rewrite (Magic_core.Adorn.adorn program q) in
  let out = Magic_core.Rewritten.run rw ~edb in
  (* the magic program's facts are explained over program + seeds *)
  let seeded =
    Program.make
      (Program.rules rw.Magic_core.Rewritten.program
      @ List.map Rule.fact rw.Magic_core.Rewritten.seeds)
  in
  match E.derive seeded out.Engine.Eval.db (atom "magic_a_bf(n_3)") with
  | None -> Alcotest.fail "no derivation for the magic fact"
  | Some tree ->
    Alcotest.(check bool) "valid" true (E.check seeded out.Engine.Eval.db tree);
    (* seed -> magic(n_1) -> magic(n_2) -> magic(n_3): one rule per step *)
    Alcotest.(check int) "depth" 4 (E.depth tree)

let test_derivation_of_function_terms () =
  let program = Workload.Programs.list_reverse in
  let q = Workload.Programs.reverse_query (term "[a, b]") in
  let rw = Magic_core.Magic_sets.rewrite (Magic_core.Adorn.adorn program q) in
  let out = Magic_core.Rewritten.run rw ~edb:(Engine.Database.create ()) in
  let seeded =
    Program.make
      (Program.rules rw.Magic_core.Rewritten.program
      @ List.map Rule.fact rw.Magic_core.Rewritten.seeds)
  in
  match E.derive seeded out.Engine.Eval.db (atom "reverse_bf([a, b], [b, a])") with
  | None -> Alcotest.fail "no derivation"
  | Some tree -> Alcotest.(check bool) "valid" true (E.check seeded out.Engine.Eval.db tree)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The CLI explains a fact of the original query predicate under a
   rewritten method as the rewritten query predicate's fact, and refuses
   a counting method (whose predicate adds index fields) with a message
   that names the predicate to ask for. *)
let test_cli_query_predicate () =
  let paths = repo_file (Filename.concat "examples" "paths.dl") in
  let code, out, _ = run_cli [ "explain"; "-m"; "gms"; paths; "path(a, b)" ] in
  Alcotest.(check int) "gms exit" 0 code;
  Alcotest.(check bool)
    "gms explains path_bf(a, b)" true
    (String.starts_with ~prefix:"path_bf(a, b)   [by " out);
  let code, out, _ = run_cli [ "explain"; "-m"; "gms"; paths; "edge(a, b)" ] in
  Alcotest.(check (pair int string)) "an EDB fact is kept" (0, "edge(a, b)\n") (code, out);
  let code, out, err = run_cli [ "explain"; "-m"; "gc"; paths; "path(a, b)" ] in
  Alcotest.(check int) "gc exit" 1 code;
  Alcotest.(check string) "gc prints no tree" "" out;
  Alcotest.(check bool) "gc names path_ind_bf/5" true (contains ~sub:"path_ind_bf/5" err)

(* a diverged evaluation is reported, not explained: counting over the
   cyclic paths graph grows its path indices forever, and an unbounded
   program exhausts the fact budget.  [magic eval] prints the diverged
   status and exits 1 too.  Every run gets a small budget: the default
   one lets counting on the 5-edge cycle build 5 million facts *)
let test_cli_diverged () =
  let paths = repo_file (Filename.concat "examples" "paths.dl") in
  let code, out, err =
    run_cli [ "explain"; "-m"; "gc"; "--max-facts"; "20000"; paths; "edge(a, b)" ]
  in
  Alcotest.(check (pair int string)) "gc on a cycle exits 1, no tree" (1, "") (code, out);
  Alcotest.(check bool) "gc says diverged" true (contains ~sub:"diverged" err);
  let code, out, err = run_cli [ "eval"; "-m"; "gc"; "--max-facts"; "20000"; paths ] in
  Alcotest.(check int) "eval -m gc on a cycle exits 1" 1 code;
  Alcotest.(check bool) "eval prints the diverged status" true
    (contains ~sub:"% method=gc status=diverged " out);
  Alcotest.(check string) "eval names the method" "magic eval: gc ended in status diverged\n" err;
  let file = Filename.temp_file "magic-explain" ".dl" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "n(z).\nn(s(X)) :- n(X).\n?- n(Y).\n");
  let code, out, err =
    run_cli [ "explain"; "--max-facts"; "20"; file; "n(s(z))" ]
  in
  Sys.remove file;
  Alcotest.(check (pair int string)) "budget blowout exits 1, no tree" (1, "") (code, out);
  Alcotest.(check bool) "budget blowout says diverged" true (contains ~sub:"diverged" err)

let suite =
  [
    Alcotest.test_case "base fact" `Quick test_base_fact;
    Alcotest.test_case "chain derivation" `Quick test_chain_derivation;
    Alcotest.test_case "missing fact" `Quick test_missing_fact;
    Alcotest.test_case "cyclic data" `Quick test_cyclic_data;
    Alcotest.test_case "builtin premises" `Quick test_builtin_premises;
    Alcotest.test_case "negation premise" `Quick test_negation_premise;
    Alcotest.test_case "magic fact explained" `Quick test_explaining_magic_fact;
    Alcotest.test_case "function terms" `Quick test_derivation_of_function_terms;
    Alcotest.test_case "cli: query predicate as rewritten" `Quick test_cli_query_predicate;
    Alcotest.test_case "cli: a diverged evaluation exits 1" `Quick test_cli_diverged;
  ]
