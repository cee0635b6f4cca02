open Datalog
open Helpers
module C = Magic_core

let test_method_table () =
  Alcotest.(check bool)
    "all advertised methods present" true
    (List.for_all
       (fun m -> List.mem_assoc m C.Rewrite.methods)
       [ "naive"; "seminaive"; "sld"; "tabled"; "gms"; "gsms"; "gc"; "gsc"; "gc-sj"; "gsc-sj" ])

let test_rewriting_names () =
  List.iter
    (fun (s, r) ->
      Alcotest.(check bool)
        ("roundtrip " ^ s) true
        (C.Rewrite.rewriting_of_string s = Some r);
      Alcotest.(check string) "to_string" s (C.Rewrite.rewriting_to_string r))
    [ ("gms", C.Rewrite.GMS); ("gsms", C.Rewrite.GSMS); ("gc", C.Rewrite.GC); ("gsc", C.Rewrite.GSC) ];
  Alcotest.(check bool) "aliases" true
    (C.Rewrite.rewriting_of_string "magic" = Some C.Rewrite.GMS);
  Alcotest.(check bool) "unknown" true (C.Rewrite.rewriting_of_string "zzz" = None)

let test_unsafe_status () =
  let q = Workload.Programs.reverse_query (term "[a]") in
  let r =
    C.Rewrite.run (C.Rewrite.Original `Seminaive) Workload.Programs.list_reverse q
      ~edb:(Engine.Database.create ())
  in
  Alcotest.(check bool)
    "unsafe reported" true
    (match r.C.Rewrite.status with C.Rewrite.Unsafe _ -> true | _ -> false)

let test_diverged_status () =
  let p = program "n(Y) :- n(X), Y = X + 1. n(0)." in
  let q = Atom.make "n" [ Term.Var "X" ] in
  let r = C.Rewrite.run ~max_facts:20 (C.Rewrite.Original `Seminaive) p q ~edb:(Engine.Database.create ()) in
  Alcotest.(check bool) "diverged" true (r.C.Rewrite.status = C.Rewrite.Diverged)

(* a counting rewrite that cannot index the program (the all-free query
   leaves every head unbound) is a status of its row, not a crash: eval
   reports it and compare goes on to print every method; both exit 1 and
   name the methods that did not end ok on stderr *)
let test_inapplicable_status () =
  let file = Filename.temp_file "magic-reach" ".dl" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        "e(a, b). e(b, c).\n\
         reach(X, Y) :- e(X, Y).\n\
         reach(X, Y) :- e(X, Z), reach(Z, Y).\n\
         ?- reach(X, Y).\n");
  let eval_code, eval_out, eval_err = run_cli [ "eval"; "-m"; "gc"; file ] in
  let compare_code, compare_out, compare_err = run_cli [ "compare"; file ] in
  Sys.remove file;
  Alcotest.(check int) "eval -m gc exits 1" 1 eval_code;
  Alcotest.(check bool) "eval -m gc reports inapplicable" true
    (String.starts_with ~prefix:"% method=gc status=inapplicable: Counting:" eval_out);
  Alcotest.(check string) "eval names the method" "magic eval: gc ended in status inapplicable\n"
    eval_err;
  Alcotest.(check int) "compare exits 1" 1 compare_code;
  Alcotest.(check (list string)) "compare names the four counting methods"
    (List.map
       (fun m -> Fmt.str "magic compare: %s ended in status inapplicable" m)
       [ "gc"; "gsc"; "gc-sj"; "gsc-sj" ])
    (String.split_on_char '\n' (String.trim compare_err));
  let rows = List.tl (String.split_on_char '\n' (String.trim compare_out)) in
  Alcotest.(check (list string)) "compare prints every method row"
    (List.map fst C.Rewrite.methods)
    (List.map (fun row -> List.hd (String.split_on_char ' ' row)) rows);
  Alcotest.(check int) "the four counting rows are inapplicable" 4
    (List.length
       (List.filter
          (fun row -> List.mem "inapplicable" (String.split_on_char ' ' row))
          rows))

(* a query over a base predicate with a bound argument: no rule is
   rewritten, and every method answers from the EDB (the counting
   rewrites once renamed the query to an indexed predicate nothing
   derives, and answered nothing) *)
let test_edb_query_all_methods () =
  let p, q, edb = load "e(a, b). e(b, c). t(X, Y) :- e(X, Y). ?- e(a, X)." in
  List.iter
    (fun (name, _) ->
      let r = run_method name p q edb in
      Alcotest.(check bool) (name ^ " status ok") true (r.C.Rewrite.status = C.Rewrite.Ok);
      Alcotest.check tuple_list name
        [ Engine.Tuple.of_list [ Term.Sym "a"; Term.Sym "b" ] ]
        (sorted_answers r))
    C.Rewrite.methods

let test_naive_engine_through_rewritten () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 10) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let rw = C.Rewrite.rewrite C.Rewrite.GMS Workload.Programs.ancestor q in
  let naive = C.Rewritten.run ~engine:`Naive rw ~edb in
  let semi = C.Rewritten.run ~engine:`Seminaive rw ~edb in
  Alcotest.check tuple_list "naive = seminaive on the rewritten program"
    (C.Rewritten.answers rw naive) (C.Rewritten.answers rw semi)

let test_custom_sip_option () =
  let edb =
    Workload.Generate.db (Workload.Generate.same_generation ~width:4 ~height:3)
  in
  let q = Workload.Programs.same_generation_query (term "sg_0_0") in
  let options = { C.Rewrite.default_options with C.Rewrite.sip = C.Sip.chain_left_to_right } in
  let r =
    C.Rewrite.run
      (C.Rewrite.Rewritten_bottom_up (C.Rewrite.GMS, options))
      Workload.Programs.nonlinear_same_generation q ~edb
  in
  let reference =
    run_method "seminaive" Workload.Programs.nonlinear_same_generation q edb
  in
  Alcotest.check tuple_list "partial-sip magic agrees" (sorted_answers reference)
    (sorted_answers r)

let suite =
  [
    Alcotest.test_case "method table" `Quick test_method_table;
    Alcotest.test_case "rewriting names" `Quick test_rewriting_names;
    Alcotest.test_case "unsafe status" `Quick test_unsafe_status;
    Alcotest.test_case "diverged status" `Quick test_diverged_status;
    Alcotest.test_case "inapplicable status" `Quick test_inapplicable_status;
    Alcotest.test_case "EDB query: every method answers" `Quick test_edb_query_all_methods;
    Alcotest.test_case "naive engine on rewritten" `Quick test_naive_engine_through_rewritten;
    Alcotest.test_case "custom sip option" `Quick test_custom_sip_option;
  ]
