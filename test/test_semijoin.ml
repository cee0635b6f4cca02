open Datalog
open Helpers
module C = Magic_core

let adorned p q = C.Adorn.adorn p q

let anc_q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0)

let test_noop_on_magic () =
  (* the optimization relies on indices: magic-sets rewritings pass
     through unchanged *)
  let rw = C.Magic_sets.rewrite (adorned Workload.Programs.ancestor anc_q) in
  let opt = C.Semijoin.optimize rw in
  Alcotest.(check bool)
    "unchanged" true
    (List.equal Rule.equal
       (Program.rules rw.C.Rewritten.program)
       (Program.rules opt.C.Rewritten.program))

let test_lemma_8_1_only () =
  (* lemma_8_1 deletes literals but never drops argument columns *)
  let rw =
    C.Counting.rewrite
      (adorned Workload.Programs.nonlinear_same_generation
         (Workload.Programs.same_generation_query (term "j")))
  in
  let opt = C.Semijoin.lemma_8_1 rw in
  (* arities unchanged *)
  let arities p =
    List.sort_uniq Symbol.compare
      (Symbol.Set.elements (Program.predicates p))
  in
  Alcotest.(check bool)
    "same predicates and arities" true
    (arities rw.C.Rewritten.program = arities opt.C.Rewritten.program);
  (* but the Section 8 walkthrough's counting-rule deletion happened:
     the second counting rule lost its guard and up literal *)
  let shorter =
    List.exists2
      (fun r r' -> List.length r'.Rule.body < List.length r.Rule.body)
      (Program.rules rw.C.Rewritten.program)
      (Program.rules opt.C.Rewritten.program)
  in
  Alcotest.(check bool) "some rule shrank" true shorter

let test_restore_reinserts_constants () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 10) in
  let rw =
    C.Semijoin.optimize (C.Counting.rewrite (adorned Workload.Programs.ancestor anc_q))
  in
  Alcotest.(check bool) "restore recorded" true (rw.C.Rewritten.restore <> []);
  let out = C.Rewritten.run rw ~edb in
  let answers = C.Rewritten.answers rw out in
  Alcotest.(check int) "10 answers" 10 (List.length answers);
  (* every answer tuple carries the query constant in position 0 *)
  List.iter
    (fun t ->
      Alcotest.(check bool) "query constant restored" true
        (Term.equal (Engine.Value.extern t.(0)) (Workload.Generate.node "n" 0)))
    answers

let test_anonymize () =
  let rw =
    C.Counting.rewrite
      (adorned Workload.Programs.nonlinear_same_generation
         (Workload.Programs.same_generation_query (term "j")))
  in
  let after_81 = C.Semijoin.lemma_8_1 rw in
  let anon = C.Semijoin.anonymize after_81 in
  (* Lemma 8.2: the sg.1 occurrence in the optimized counting rule has its
     bound argument replaced by a fresh variable *)
  let has_anon_var =
    List.exists
      (fun r ->
        List.exists
          (fun v -> String.length v > 2 && String.sub v 0 2 = "_A")
          (Rule.vars r))
      (Program.rules anon.C.Rewritten.program)
  in
  Alcotest.(check bool) "anonymous variables introduced" true has_anon_var;
  (* anonymization preserves answers *)
  let edb =
    Workload.Generate.db (Workload.Generate.same_generation ~width:4 ~height:3)
  in
  let q' = Workload.Programs.same_generation_query (term "sg_0_0") in
  let rw' =
    C.Semijoin.anonymize
      (C.Semijoin.lemma_8_1
         (C.Counting.rewrite (adorned Workload.Programs.nonlinear_same_generation q')))
  in
  let out = C.Rewritten.run rw' ~edb in
  let reference = run_method "gms" Workload.Programs.nonlinear_same_generation q' edb in
  Alcotest.check tuple_list "answers preserved" (sorted_answers reference)
    (List.sort Engine.Tuple.compare (C.Rewritten.answers rw' out))

let test_blocked_when_bound_arg_leaks () =
  (* if the bound argument of a recursive occurrence is also needed by a
     literal that is NOT part of the sip arc's tail (here audit follows
     the recursive literal and joins on Z), the block's columns cannot be
     dropped.  (A filter placed BEFORE the recursive literal would be
     part of the tail, certified by the indices, and deletable.) *)
  let p =
    program
      "t(X, Y) :- e(X, Y).\n\
       t(X, Y) :- e(X, Z), t(Z, Y), audit(Z, Y)."
  in
  let q = Atom.make "t" [ Term.Sym "c"; Term.Var "Y" ] in
  let rw = C.Counting.rewrite (adorned p q) in
  let opt = C.Semijoin.optimize rw in
  (* t_ind keeps its full arity: audit(Z) needs Z *)
  let arity_of name prog =
    Symbol.Set.fold
      (fun s acc -> if s.Symbol.name = name then Some s.Symbol.arity else acc)
      (Program.predicates prog) None
  in
  Alcotest.(check (option int))
    "t_ind arity unchanged"
    (arity_of "t_ind_bf" rw.C.Rewritten.program)
    (arity_of "t_ind_bf" opt.C.Rewritten.program);
  (* and answers still agree with magic *)
  let edb =
    Engine.Database.of_facts
      (List.map atom [ "e(c, d)"; "e(d, f)"; "audit(d, f)"; "audit(f, g)" ])
  in
  let out = C.Rewritten.run opt ~edb in
  let reference = run_method "gms" p q edb in
  Alcotest.check tuple_list "answers" (sorted_answers reference)
    (List.sort Engine.Tuple.compare (C.Rewritten.answers opt out))

let test_list_reverse_not_dropped () =
  (* bound arguments of reverse_ind are non-variable terms ([V|X]), so
     Theorem 8.3's conditions fail and nothing is dropped — but the
     optimization must still evaluate correctly *)
  let q = Workload.Programs.reverse_query (Workload.Generate.list_of_ints 8) in
  let rw =
    C.Semijoin.optimize (C.Counting.rewrite (adorned Workload.Programs.list_reverse q))
  in
  let out = C.Rewritten.run rw ~edb:(Engine.Database.create ()) in
  Alcotest.(check int) "one answer" 1 (List.length (C.Rewritten.answers rw out))

let test_optimized_equivalence_random =
  qtest ~count:30 "optimized counting = magic on random acyclic graphs" gen_edges
    (fun edges ->
      let edges = List.map (fun (a, b) -> (a, b + 10)) edges in
      let p = Workload.Programs.transitive_closure in
      let edb = Engine.Database.of_facts (edges_to_facts ~pred:"edge" edges) in
      let q = Workload.Programs.tc_query (Term.Sym "n0") in
      let reference = sorted_answers (run_method "seminaive" p q edb) in
      sorted_answers (run_method "gc-sj" p q edb) = reference
      && sorted_answers (run_method "gsc-sj" p q edb) = reference)

let suite =
  [
    Alcotest.test_case "no-op on magic rewritings" `Quick test_noop_on_magic;
    Alcotest.test_case "Lemma 8.1 alone" `Quick test_lemma_8_1_only;
    Alcotest.test_case "restore query constants" `Quick test_restore_reinserts_constants;
    Alcotest.test_case "Lemma 8.2 anonymize" `Quick test_anonymize;
    Alcotest.test_case "leaking bound arg blocks drop" `Quick
      test_blocked_when_bound_arg_leaks;
    Alcotest.test_case "list reverse untouched" `Quick test_list_reverse_not_dropped;
    test_optimized_equivalence_random;
  ]
