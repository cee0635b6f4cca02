(* Incremental maintenance: DRed repairs must leave the
   database extensionally equal to a from-scratch evaluation of the
   updated EDB, for original programs and for magic-rewritten sessions. *)

open Datalog
open Helpers
module C = Magic_core
module M = Incr.Maintain
module S = Incr.Session

let sorted = List.sort Engine.Tuple.compare
let tup l = Engine.Tuple.of_list (List.map term l)

let wildcard pred arity =
  Atom.make pred (List.init arity (fun i -> Term.Var (Fmt.str "A%d" i)))

let scratch_pred program facts pred arity =
  let out = Engine.Eval.seminaive program ~edb:(Engine.Database.of_facts facts) in
  sorted (Engine.Eval.answers out (wildcard pred arity))

(* ------------------------------------------------------------------ *)
(* non-recursive units                                                 *)
(* ------------------------------------------------------------------ *)

let test_alternative_derivation () =
  let p = program "r(X) :- e(X, Y)." in
  let edb =
    Engine.Database.of_facts [ atom "e(a, b)"; atom "e(a, c)"; atom "e(d, b)" ]
  in
  let m = M.create p ~edb in
  ignore (M.apply m [ M.Delete (atom "e(a, b)") ]);
  Alcotest.(check bool)
    "one derivation left, tuple stays" true
    (Engine.Database.mem (M.db m) (atom "r(a)"));
  ignore (M.apply m [ M.Delete (atom "e(a, c)") ]);
  Alcotest.(check bool)
    "last derivation gone, tuple deleted" false
    (Engine.Database.mem (M.db m) (atom "r(a)"));
  Alcotest.(check bool)
    "unrelated tuple untouched" true
    (Engine.Database.mem (M.db m) (atom "r(d)"))

let test_external_support () =
  let p = program "r(X) :- e(X, X)." in
  let m = M.create p ~edb:(Engine.Database.create ()) in
  (* asserting a derived-predicate fact gives it rule-independent support *)
  ignore (M.apply m [ M.Insert (atom "r(z)") ]);
  Alcotest.(check bool) "asserted" true (Engine.Database.mem (M.db m) (atom "r(z)"));
  ignore (M.apply m [ M.Insert (atom "e(z, z)") ]);
  ignore (M.apply m [ M.Delete (atom "e(z, z)") ]);
  Alcotest.(check bool)
    "survives losing its rule support" true
    (Engine.Database.mem (M.db m) (atom "r(z)"));
  ignore (M.apply m [ M.Delete (atom "r(z)") ]);
  Alcotest.(check bool)
    "retracting the assertion deletes it" false
    (Engine.Database.mem (M.db m) (atom "r(z)"))

(* ------------------------------------------------------------------ *)
(* DRed: recursive strata                                              *)
(* ------------------------------------------------------------------ *)

let tc = program "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y)."

let test_dred_rederives () =
  let facts = [ atom "e(a, b)"; atom "e(b, c)"; atom "e(a, c)" ] in
  let m = M.create tc ~edb:(Engine.Database.of_facts facts) in
  (* deleting e(b,c) overdeletes tc(b,c) and tc(a,c); the latter has the
     alternative proof through e(a,c) and must be rederived *)
  let stats = M.apply m [ M.Delete (atom "e(b, c)") ] in
  Alcotest.(check bool) "overdeleted >= 2" true (stats.M.overdeleted >= 2);
  Alcotest.(check bool) "rederived >= 1" true (stats.M.rederived >= 1);
  let facts' = [ atom "e(a, b)"; atom "e(a, c)" ] in
  Alcotest.(check tuple_list)
    "equal to scratch" (scratch_pred tc facts' "tc" 2)
    (M.answers m (wildcard "tc" 2))

let test_dred_cycle () =
  (* a cycle: every tc tuple transitively supports itself; deleting the
     only entering edge must delete the whole closure, not leave a
     self-supporting island (the reason overdeletion precedes
     rederivation) *)
  let facts = [ atom "e(s, a)"; atom "e(a, b)"; atom "e(b, a)" ] in
  let m = M.create tc ~edb:(Engine.Database.of_facts facts) in
  ignore (M.apply m [ M.Delete (atom "e(a, b)") ]);
  Alcotest.(check tuple_list)
    "cycle broken" (scratch_pred tc [ atom "e(s, a)"; atom "e(b, a)" ] "tc" 2)
    (M.answers m (wildcard "tc" 2));
  ignore (M.apply m [ M.Insert (atom "e(a, b)") ]);
  Alcotest.(check tuple_list)
    "cycle restored" (scratch_pred tc facts "tc" 2)
    (M.answers m (wildcard "tc" 2))

(* Rederivation compiles one head-bound check per rule: the head's
   arguments become the scan pattern of a goal relation, or,
   when they contain arithmetic, the rule's base instance is enumerated.
   Each case deletes a fact so that some overdeleted tuple must come
   back, then compares every maintained relation with scratch. *)
let check_rederives name p facts del preds =
  let m = M.create p ~edb:(Engine.Database.of_facts facts) in
  let stats = M.apply m [ M.Delete (atom del) ] in
  Alcotest.(check bool) (name ^ ": rederived >= 1") true (stats.M.rederived >= 1);
  let facts = List.filter (fun a -> a <> atom del) facts in
  List.iter
    (fun (pred, arity) ->
      Alcotest.(check tuple_list)
        (Fmt.str "%s: %s equals scratch" name pred)
        (scratch_pred p facts pred arity)
        (M.answers m (wildcard pred arity)))
    preds;
  (m, facts)

let test_rederive_gms_shape () =
  (* the magic-rule shape: only the last body literal binds the head
     variable; m(a) is an externally asserted seed *)
  let p = program "m(Z) :- m(X), e(X, Z)." in
  ignore
    (check_rederives "gms shape" p
       [ atom "m(a)"; atom "e(a, b)"; atom "e(b, c)"; atom "e(a, c)"; atom "e(c, d)" ]
       "e(b, c)" [ ("m", 1) ])

let test_rederive_head_constant () =
  let p =
    program "r(a, Y) :- e(a, Y). r(a, Y) :- r(a, X), e(X, Y). r(b, Y) :- q(Y)."
  in
  let m, facts =
    check_rederives "head constant" p
      [ atom "e(a, b)"; atom "e(b, c)"; atom "e(a, c)"; atom "q(c)" ]
      "e(b, c)" [ ("r", 2) ]
  in
  (* r(b, c) holds, but the constant keeps it from proving r(a, c) *)
  ignore (M.apply m [ M.Delete (atom "e(a, c)") ]);
  let facts = List.filter (fun a -> a <> atom "e(a, c)") facts in
  Alcotest.(check tuple_list)
    "head constant: r(a, c) stays deleted" (scratch_pred p facts "r" 2)
    (M.answers m (wildcard "r" 2))

let test_rederive_repeated_head_var () =
  let p = program "r(X, X) :- n(X). r(X, Y) :- r(X, Z), e(Z, Y)." in
  ignore
    (check_rederives "repeated head variable" p
       [ atom "n(a)"; atom "e(a, b)"; atom "e(b, a)"; atom "e(b, c)" ]
       "e(b, a)" [ ("r", 2) ])

let test_rederive_arith_head () =
  let p = program "d(0, X) :- src(X). d(N + 1, Y) :- d(N, X), e(X, Y)." in
  ignore
    (check_rederives "arithmetic head" p
       [
         atom "src(a)"; atom "e(a, b)"; atom "e(b, c)"; atom "e(a, x)"; atom "e(x, c)";
       ]
       "e(b, c)" [ ("d", 2) ])

(* A served delete must cost in proportion to the deleted tuple's cone,
   not to the magic relation the installed seeds have grown: the same
   spoke deletion under 10 and under 200 seeds on disjoint chains. *)
let hub =
  program
    "q(X, Y) :- spoke(X, Z), tc(Z, Y). tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, \
     Z), tc(Z, Y)."

let hub_facts =
  List.concat
    (List.init 200 (fun c ->
         atom (Fmt.str "spoke(h%d, n%d_0)" c c)
         :: atom (Fmt.str "spoke(h%d, n%d_5)" c c)
         :: List.init 9 (fun j -> atom (Fmt.str "edge(n%d_%d, n%d_%d)" c j c (j + 1)))))

let delete_probes seeds =
  let q = atom "q(h0, Y)" in
  let s = S.create ~strategy:S.GMS hub q ~edb:(Engine.Database.of_facts hub_facts) in
  for c = 1 to seeds - 1 do
    ignore (S.query s (atom (Fmt.str "q(h%d, Y)" c)))
  done;
  let del = atom "spoke(h0, n0_0)" in
  let stats = S.update s [ M.Delete del ] in
  Alcotest.(check bool)
    (Fmt.str "%d seeds: rederived >= 1" seeds)
    true
    (stats.M.rederived >= 1);
  let ans, _ = S.query s q in
  Alcotest.(check tuple_list)
    (Fmt.str "%d seeds: answers equal scratch" seeds)
    (sorted_answers
       (run_method "gms" hub q
          (Engine.Database.of_facts (List.filter (fun a -> a <> del) hub_facts))))
    (sorted ans);
  stats.M.probes

let test_delete_cost_independent_of_seeds () =
  let few = delete_probes 10 in
  let many = delete_probes 200 in
  if many > 2 * few then
    Alcotest.failf "delete probes grow with unrelated seeds: %d (10 seeds) vs %d (200)"
      few many

(* ------------------------------------------------------------------ *)
(* stratified negation                                                 *)
(* ------------------------------------------------------------------ *)

let test_negation_unit_order () =
  let p =
    program
      "reach(X) :- src(X). reach(Y) :- reach(X), e(X, Y). unreach(X) :- node(X), \
       not reach(X)."
  in
  let facts =
    [
      atom "node(a)"; atom "node(b)"; atom "node(c)"; atom "node(d)";
      atom "src(a)"; atom "e(a, b)"; atom "e(b, c)";
    ]
  in
  let m = M.create p ~edb:(Engine.Database.of_facts facts) in
  let check_all facts =
    List.iter
      (fun (pred, arity) ->
        Alcotest.(check tuple_list)
          (pred ^ " equals scratch")
          (scratch_pred p facts pred arity)
          (M.answers m (wildcard pred arity)))
      [ ("reach", 1); ("unreach", 1) ]
  in
  check_all facts;
  (* losing e(b,c) makes c unreachable: a deletion in a lower unit feeds
     an insertion through the negation *)
  ignore (M.apply m [ M.Delete (atom "e(b, c)") ]);
  let facts = List.filter (fun a -> a <> atom "e(b, c)") facts in
  check_all facts;
  (* and an insertion feeds a deletion through the negation *)
  ignore (M.apply m [ M.Insert (atom "e(a, d)") ]);
  check_all (atom "e(a, d)" :: facts)

(* i(a, y) loses its proof through f(a, b), cannot be rederived from
   what remains, and is proved again by the insertion fixpoint through
   f(d, b) and f(a, d): it is in the old and the new state, so
   [not i(a, y)] stays false, u(a, y) must not appear, and the summary
   reports i(d, y) as i's only change *)
let test_negation_over_rederived () =
  let p =
    program
      "i(X, Y) :- e(X, Y). i(X, Y) :- f(X, Z), i(Z, Y). u(X, Y) :- g(X, Y), not i(X, Y)."
  in
  let facts = [ atom "e(b, y)"; atom "f(a, b)"; atom "f(a, d)"; atom "g(a, y)" ] in
  let m = M.create p ~edb:(Engine.Database.of_facts facts) in
  let _, summary = M.apply_delta m [ M.Delete (atom "f(a, b)"); M.Insert (atom "f(d, b)") ] in
  (match List.find_opt (fun d -> d.M.d_pred.Symbol.name = "i") summary with
  | Some d ->
    Alcotest.(check (pair int int)) "i: net inserted, deleted" (1, 0) (d.M.d_inserted, d.M.d_deleted)
  | None -> Alcotest.fail "i missing from the summary");
  let facts = atom "f(d, b)" :: List.filter (fun a -> a <> atom "f(a, b)") facts in
  List.iter
    (fun pred ->
      Alcotest.(check tuple_list)
        (pred ^ " equals scratch") (scratch_pred p facts pred 2)
        (M.answers m (wildcard pred 2)))
    [ "i"; "u" ]

(* the transaction that takes i(b, y)'s rule support away asserts it:
   it stays, and so does i(a, y), which it proves *)
let test_assertion_restores_dependents () =
  let p = program "i(X, Y) :- e(X, Y). i(X, Y) :- f(X, Z), i(Z, Y)." in
  let m = M.create p ~edb:(Engine.Database.of_facts [ atom "e(b, y)"; atom "f(a, b)" ]) in
  ignore (M.apply m [ M.Delete (atom "e(b, y)"); M.Insert (atom "i(b, y)") ]);
  Alcotest.(check tuple_list)
    "asserted tuple and its dependent"
    [ tup [ "a"; "y" ]; tup [ "b"; "y" ] ]
    (sorted (M.answers m (wildcard "i" 2)))

(* ------------------------------------------------------------------ *)
(* sessions: dynamic magic sets                                        *)
(* ------------------------------------------------------------------ *)

let path = program "path(X, Y) :- e(X, Y). path(X, Y) :- e(X, Z), path(Z, Y)."

let test_session_dynamic_magic () =
  let facts = [ atom "e(a, b)"; atom "e(b, c)"; atom "e(d, f)" ] in
  let edb = Engine.Database.of_facts facts in
  let scratch q facts =
    sorted_answers (run_method "gms" path q (Engine.Database.of_facts facts))
  in
  let q1 = atom "path(a, Ans)" in
  let s = S.create ~strategy:S.GMS path q1 ~edb in
  Alcotest.(check tuple_list) "initial query" (scratch q1 facts) (sorted (S.answers s));
  (* same binding pattern: only new seeds are installed, the cone grows *)
  let q2 = atom "path(d, Ans)" in
  let ans2, _ = S.query s q2 in
  Alcotest.(check tuple_list) "second query" (scratch q2 facts) (sorted ans2);
  (* updates repair under the union of all installed seeds *)
  ignore (S.update s [ M.Insert (atom "e(c, d)") ]);
  let facts = atom "e(c, d)" :: facts in
  let ans1, _ = S.query s q1 in
  Alcotest.(check tuple_list) "first query after update" (scratch q1 facts) (sorted ans1);
  let ans2, _ = S.query s q2 in
  Alcotest.(check tuple_list) "second query after update" (scratch q2 facts) (sorted ans2);
  (* a different binding pattern adorns differently and is refused *)
  Alcotest.(check bool)
    "incompatible query raises" true
    (try
       ignore (S.query s (atom "path(Ans, c)"));
       false
     with S.Incompatible_query _ -> true)

let test_session_original () =
  let facts = [ atom "e(a, b)"; atom "e(b, c)" ] in
  let s = S.create path (atom "path(a, Ans)") ~edb:(Engine.Database.of_facts facts) in
  ignore (S.update s [ M.Delete (atom "e(b, c)"); M.Insert (atom "e(a, c)") ]);
  Alcotest.(check tuple_list)
    "original strategy repairs the full fixpoint"
    (scratch_pred path [ atom "e(a, b)"; atom "e(a, c)" ] "path" 2)
    (sorted (S.answers s));
  (* any binding pattern is fine without a rewriting *)
  let ans, _ = S.query s (atom "path(Ans, c)") in
  Alcotest.(check tuple_list)
    "rebound query" (scratch_pred path [ atom "e(a, b)"; atom "e(a, c)" ] "path" 2
                     |> List.filter (fun t ->
                            Term.equal (Engine.Value.extern t.(1)) (Term.Sym "c")))
    (sorted ans)

(* ------------------------------------------------------------------ *)
(* one-edge deltas on larger materializations                          *)
(* ------------------------------------------------------------------ *)

(* Delete one edge and re-add it, twice, on two standing
   materializations, and compare the maintained answers with a
   from-scratch evaluation at every deleted and restored state:
   - a GMS session over a chain of 300 edges, queried at the middle,
     losing the tail edge of its cone;
   - the original transitive closure of a random graph (60 nodes, 90
     edges, seed 17) losing a pendant edge. *)
let test_edge_delta_equals_scratch () =
  let module G = Workload.Generate in
  let module W = Workload.Programs in
  let chain =
    let n = 300 in
    let q = W.ancestor_query (G.node "n" (n / 2)) in
    let base = G.chain ~pred:"p" n in
    let s = S.create ~strategy:S.GMS W.ancestor q ~edb:(G.db base) in
    ( "gms chain n=300",
      Atom.make "p" [ G.node "n" (n - 1); G.node "n" n ],
      base,
      (fun ops -> ignore (S.update s ops)),
      (fun () -> sorted (S.answers s)),
      fun facts -> sorted_answers (run_method "gms" W.ancestor q (G.db facts)) )
  in
  let random =
    let pendant = Atom.make "edge" [ G.node "n" 0; G.node "aux" 0 ] in
    let base = pendant :: G.random_graph ~pred:"edge" ~nodes:60 ~edges:90 ~seed:17 () in
    let m = M.create W.transitive_closure ~edb:(G.db base) in
    ( "original tc over a random graph",
      pendant,
      base,
      (fun ops -> ignore (M.apply m ops)),
      (fun () -> sorted (M.answers m (wildcard "tc" 2))),
      fun facts -> scratch_pred W.transitive_closure facts "tc" 2 )
  in
  List.iter
    (fun (label, edge, base, apply, maintained, scratch) ->
      let without = List.filter (fun a -> not (Atom.equal a edge)) base in
      for round = 1 to 2 do
        apply [ M.Delete edge ];
        Alcotest.check tuple_list
          (Fmt.str "%s, round %d: deleted" label round)
          (scratch without) (maintained ());
        apply [ M.Insert edge ];
        Alcotest.check tuple_list
          (Fmt.str "%s, round %d: restored" label round)
          (scratch base) (maintained ())
      done)
    [ chain; random ]

(* ------------------------------------------------------------------ *)
(* the acceptance property: maintained state = scratch evaluation      *)
(* ------------------------------------------------------------------ *)

(* random ground ops over the generators' predicate universe; derived
   (i0) ops exercise external support *)
let gen_op =
  let open QCheck2.Gen in
  let* pred = oneofl [ "e0"; "e0"; "e1"; "e2"; "i0" ] in
  let* a = int_bound 6 in
  let* b = int_bound 6 in
  let at =
    Atom.make pred [ Term.Sym (Fmt.str "n%d" a); Term.Sym (Fmt.str "n%d" b) ]
  in
  map (fun del -> if del then M.Delete at else M.Insert at) bool

let gen_base_op =
  let open QCheck2.Gen in
  let* pred = oneofl [ "e0"; "e0"; "e1"; "e2" ] in
  let* a = int_bound 6 in
  let* b = int_bound 6 in
  let at =
    Atom.make pred [ Term.Sym (Fmt.str "n%d" a); Term.Sym (Fmt.str "n%d" b) ]
  in
  map (fun del -> if del then M.Delete at else M.Insert at) bool

let gen_txns op = QCheck2.Gen.(list_size (int_range 1 3) (list_size (int_range 1 4) op))

(* the scratch EDB after a transaction: ops applied in order, set
   semantics — exactly the net-effect contract of Maintain.apply *)
let apply_shadow shadow ops =
  List.fold_left
    (fun acc op ->
      match op with
      | M.Insert a -> if List.mem a acc then acc else a :: acc
      | M.Delete a -> List.filter (fun b -> b <> a) acc)
    shadow ops

let prop_maintained_equals_scratch =
  qtest ~count:70 "maintained = scratch (original program, negation)"
    QCheck2.Gen.(triple gen_random_case (gen_txns gen_op) bool)
    (fun ((src, edb_facts), txns, with_neg) ->
      let src =
        if with_neg then src ^ "\nu0(X, Y) :- e2(X, Y), not i0(X, Y)." else src
      in
      let p = program src in
      let m = M.create p ~edb:(Engine.Database.of_facts edb_facts) in
      let shadow = ref (List.sort_uniq compare edb_facts) in
      let preds =
        [ ("i0", 2); ("i1", 2) ] @ if with_neg then [ ("u0", 2) ] else []
      in
      List.for_all
        (fun ops ->
          ignore (M.apply m ops);
          shadow := apply_shadow !shadow ops;
          List.for_all
            (fun (pred, arity) ->
              M.answers m (wildcard pred arity)
              = scratch_pred p !shadow pred arity)
            preds)
        txns)

let prop_session_equals_scratch =
  qtest ~count:50 "maintained = scratch (gms/gsms sessions)"
    QCheck2.Gen.(triple gen_random_case (gen_txns gen_base_op) bool)
    (fun ((src, edb_facts), txns, use_gsms) ->
      let strategy = if use_gsms then S.GSMS else S.GMS in
      let meth = if use_gsms then "gsms" else "gms" in
      let p = program src in
      let q = Atom.make "i0" [ Term.Sym "n0"; Term.Var "Ans" ] in
      let s =
        S.create ~strategy p q ~edb:(Engine.Database.of_facts edb_facts)
      in
      let shadow = ref (List.sort_uniq compare edb_facts) in
      List.for_all
        (fun ops ->
          ignore (S.update s ops);
          shadow := apply_shadow !shadow ops;
          sorted (S.answers s)
          = sorted_answers
              (run_method meth p q (Engine.Database.of_facts !shadow)))
        txns)

(* ------------------------------------------------------------------ *)
(* change summaries                                                    *)
(* ------------------------------------------------------------------ *)

let delta_for summary pred arity =
  List.find_opt
    (fun (d : M.delta) -> Symbol.equal d.M.d_pred (Symbol.make pred arity))
    summary

let test_summary_counts () =
  let facts = [ atom "e(a, b)"; atom "e(b, c)"; atom "e(a, c)" ] in
  let m = M.create tc ~edb:(Engine.Database.of_facts facts) in
  (* insert e(c,d): base gains 1; tc gains (a,d), (b,d), (c,d) *)
  let _, summary = M.apply_delta m [ M.Insert (atom "e(c, d)") ] in
  Alcotest.(check bool) "insert-only" false (M.has_deletions summary);
  (match delta_for summary "e" 2 with
  | Some d ->
    Alcotest.(check int) "e inserted" 1 d.M.d_inserted;
    Alcotest.(check int) "e deleted" 0 d.M.d_deleted;
    Alcotest.(check (option int)) "e added materialized" (Some 1)
      (Option.map List.length d.M.d_added)
  | None -> Alcotest.fail "e must be in the summary");
  (match delta_for summary "tc" 2 with
  | Some d ->
    Alcotest.(check int) "tc inserted" 3 d.M.d_inserted;
    Alcotest.(check int) "tc deleted" 0 d.M.d_deleted;
    Alcotest.(check bool) "tc added rows listed" true
      (match d.M.d_added with
      | Some rows ->
        List.sort Engine.Tuple.compare rows
        = sorted [ tup [ "a"; "d" ]; tup [ "b"; "d" ]; tup [ "c"; "d" ] ]
      | None -> false)
  | None -> Alcotest.fail "tc must be in the summary");
  (* delete e(a,c): tc(a,c) survives via b — a net no-op on tc *)
  let _, summary = M.apply_delta m [ M.Delete (atom "e(a, c)") ] in
  Alcotest.(check bool) "has deletions" true (M.has_deletions summary);
  (match delta_for summary "e" 2 with
  | Some d -> Alcotest.(check int) "e deleted" 1 d.M.d_deleted
  | None -> Alcotest.fail "e must be in the summary");
  Alcotest.(check bool) "overdelete/rederive nets out of the summary" true
    (match delta_for summary "tc" 2 with
    | None -> true
    | Some d -> d.M.d_inserted = 0 && d.M.d_deleted = 0);
  (* a transaction already reflected in the state is a no-op summary *)
  let _, summary = M.apply_delta m [ M.Insert (atom "e(c, d)") ] in
  Alcotest.(check int) "no-op txn: empty summary" 0 (List.length summary);
  Alcotest.(check bool) "touched set empty" true
    (Symbol.Set.is_empty (M.touched summary))

let test_summary_through_negation () =
  let p = program "r(X) :- e(X, Y), not v(X)." in
  let m =
    M.create p ~edb:(Engine.Database.of_facts [ atom "e(a, b)"; atom "e(c, b)" ])
  in
  (* inserting v(a) deletes r(a) through the negation: the summary must
     report the derived deletion *)
  let _, summary = M.apply_delta m [ M.Insert (atom "v(a)") ] in
  (match delta_for summary "r" 1 with
  | Some d ->
    Alcotest.(check int) "r deleted through negation" 1 d.M.d_deleted;
    Alcotest.(check int) "r inserted" 0 d.M.d_inserted
  | None -> Alcotest.fail "r must be in the summary");
  match delta_for summary "v" 1 with
  | Some d -> Alcotest.(check int) "v inserted" 1 d.M.d_inserted
  | None -> Alcotest.fail "v must be in the summary"

(* ------------------------------------------------------------------ *)
(* update-script parsing: located diagnostics, never exceptions        *)
(* ------------------------------------------------------------------ *)

let script_error src =
  match Incr.Script.parse_spanned src with
  | Ok _ -> Alcotest.failf "expected a script error for %S" src
  | Error e -> e

let test_script_spans () =
  (match Incr.Script.parse_spanned "% note\n+ p(a, b).\n? p(a, X).\n" with
  | Ok [ Incr.Script.Assert _; Incr.Script.Query _ ] -> ()
  | Ok _ -> Alcotest.fail "wrong items"
  | Error e -> Alcotest.failf "clean script rejected: %s" e.message);
  let e = script_error "+ p(a, b).\np(b, c).\n" in
  Alcotest.(check int) "bad marker line" 2 e.Incr.Script.span.Loc.start.Loc.line;
  let e = script_error "+ p(a, b).\n+ p(b" in
  Alcotest.(check bool) "truncated mentions truncation" true
    (String.length e.Incr.Script.message >= 9
    && String.sub e.Incr.Script.message 0 9 = "truncated");
  Alcotest.(check int) "truncated line" 2 e.Incr.Script.span.Loc.start.Loc.line;
  let e = script_error "+ p(a, b).\n+ p(99999999999999999999).\n" in
  Alcotest.(check int) "integer overflow line" 2 e.Incr.Script.span.Loc.start.Loc.line;
  Alcotest.(check string) "integer overflow message"
    "1:3: integer literal 99999999999999999999 does not fit in 63 bits"
    e.Incr.Script.message;
  let e = script_error "+ p(a, X).\n" in
  Alcotest.(check int) "non-ground line" 1 e.Incr.Script.span.Loc.start.Loc.line;
  (* the exception-style wrapper keeps its line-numbered message *)
  match Incr.Script.parse "? p(a\n" with
  | exception Incr.Script.Error msg ->
    Alcotest.(check bool) "line number in message" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 1:")
  | _ -> Alcotest.fail "expected Script.Error"

let suite =
  [
    Alcotest.test_case "non-recursive unit: alternative derivation" `Quick
      test_alternative_derivation;
    Alcotest.test_case "script: located errors" `Quick test_script_spans;
    Alcotest.test_case "external support (non-recursive unit)" `Quick
      test_external_support;
    Alcotest.test_case "dred rederives" `Quick test_dred_rederives;
    Alcotest.test_case "dred cycle" `Quick test_dred_cycle;
    Alcotest.test_case "rederive: gms rule shape" `Quick test_rederive_gms_shape;
    Alcotest.test_case "rederive: head constant" `Quick test_rederive_head_constant;
    Alcotest.test_case "rederive: repeated head variable" `Quick
      test_rederive_repeated_head_var;
    Alcotest.test_case "rederive: arithmetic head" `Quick test_rederive_arith_head;
    Alcotest.test_case "rederive: delete cost independent of seeds" `Quick
      test_delete_cost_independent_of_seeds;
    Alcotest.test_case "stratified negation" `Quick test_negation_unit_order;
    Alcotest.test_case "negation over a rederived tuple" `Quick
      test_negation_over_rederived;
    Alcotest.test_case "assertion restores its dependents" `Quick
      test_assertion_restores_dependents;
    Alcotest.test_case "change summary counts" `Quick test_summary_counts;
    Alcotest.test_case "change summary through negation" `Quick
      test_summary_through_negation;
    Alcotest.test_case "session dynamic magic" `Quick test_session_dynamic_magic;
    Alcotest.test_case "session original" `Quick test_session_original;
    Alcotest.test_case "edge delete/re-add = scratch" `Quick
      test_edge_delta_equals_scratch;
    prop_maintained_equals_scratch;
    prop_session_equals_scratch;
  ]
