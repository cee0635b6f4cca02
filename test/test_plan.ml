(* Unit tests of the rule-compilation layer (Plan): static binding
   patterns, key slots, per-delta-position instances with greedy
   reordering, fast-form availability, head emitters and stamp-range
   execution. *)

open Datalog
open Helpers
module E = Engine

let sym name arity = Symbol.make name arity

let compile ?(delta = []) src =
  E.Plan.compile
    ~delta_preds:(Symbol.Set.of_list (List.map (fun (n, a) -> sym n a) delta))
    (rule src)

let scan_of = function
  | E.Plan.Scan s -> s
  | _ -> Alcotest.fail "expected a relation scan"

let bool_array = Alcotest.(array bool)

let test_patterns_and_slots () =
  let plan = compile ~delta:[ ("t", 2) ] "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let base = plan.E.Plan.base in
  Alcotest.(check int) "two steps" 2 (Array.length base.E.Plan.steps);
  let se = scan_of base.E.Plan.steps.(0) in
  Alcotest.check bool_array "e: nothing bound yet" [| false; false |] se.E.Plan.pattern;
  Alcotest.(check int) "e: both positions free" 2 (List.length se.E.Plan.free);
  Alcotest.(check bool) "e: not all bound" false se.E.Plan.all_bound;
  let st = scan_of base.E.Plan.steps.(1) in
  Alcotest.check bool_array "t: first position bound" [| true; false |]
    st.E.Plan.pattern;
  (match st.E.Plan.key with
  | [| E.Plan.Bound "Z" |] -> ()
  | _ -> Alcotest.fail "t: key should be the bound variable Z");
  (match base.E.Plan.head with
  | E.Plan.Direct (s, [| E.Plan.Bound "X"; E.Plan.Bound "Y" |]) ->
    Alcotest.(check bool) "head symbol" true (Symbol.equal s (sym "a" 2))
  | _ -> Alcotest.fail "head should be a direct emitter over X, Y");
  Alcotest.(check bool) "pure-relational rule has a fast form" true
    (Option.is_some base.E.Plan.fast);
  Alcotest.(check bool) "head_symbol is static" true
    (match E.Plan.head_symbol base with
    | Some s -> Symbol.equal s (sym "a" 2)
    | None -> false)

let test_constant_keys () =
  let plan = compile "a(X) :- e(X, c)." in
  let se = scan_of plan.E.Plan.base.E.Plan.steps.(0) in
  Alcotest.check bool_array "constant position is bound" [| false; true |]
    se.E.Plan.pattern;
  match se.E.Plan.key with
  | [| E.Plan.Const (Term.Sym "c") |] -> ()
  | _ -> Alcotest.fail "key should be the constant c"

let test_all_bound_membership () =
  let plan = compile "a(X, Y) :- e(X, Y), f(X, Y)." in
  let sf = scan_of plan.E.Plan.base.E.Plan.steps.(1) in
  Alcotest.(check bool) "second literal fully bound" true sf.E.Plan.all_bound;
  Alcotest.(check int) "no free positions" 0 (List.length sf.E.Plan.free)

let test_builtin_disables_fast () =
  let plan = compile "a(X) :- e(X, Y), X < Y." in
  let base = plan.E.Plan.base in
  (match base.E.Plan.steps.(1) with
  | E.Plan.Builtin _ -> ()
  | _ -> Alcotest.fail "second step should be the builtin");
  Alcotest.(check bool) "builtins fall back to the generic executor" true
    (Option.is_none base.E.Plan.fast)

let test_dynamic_head_unsafe () =
  let plan = compile "a(X, Y) :- e(X)." in
  (match plan.E.Plan.base.E.Plan.head with
  | E.Plan.Dynamic _ -> ()
  | E.Plan.Direct _ -> Alcotest.fail "unbound head variable must be dynamic");
  Alcotest.(check bool) "no static head symbol" true
    (E.Plan.head_symbol plan.E.Plan.base = None);
  let db = E.Database.of_facts [ atom "e(v)" ] in
  Alcotest.(check bool) "running it raises Unsafe" true
    (try
       E.Plan.run ~source:(E.Plan.db_source db)
         ~neg_source:(E.Plan.db_source db)
         ~on_fact:(fun _ _ -> ())
         plan.E.Plan.base;
       false
     with E.Solve.Unsafe _ -> true)

let test_delta_instances () =
  (* one instance per body position reading a predicate of the stratum *)
  let plan = compile ~delta:[ ("t", 2) ] "t(X, Y) :- t(X, Z), t(Z, Y)." in
  Alcotest.(check (list int)) "nonlinear rule: two delta positions" [ 0; 1 ]
    (List.map fst plan.E.Plan.delta);
  let linear = compile ~delta:[ ("t", 2) ] "t(X, Y) :- e(X, Z), t(Z, Y)." in
  Alcotest.(check (list int)) "linear rule: one delta position" [ 1 ]
    (List.map fst linear.E.Plan.delta);
  (* the delta literal leads its instance; the base literal joins after
     it with the shared variable bound *)
  let inst = List.assoc 1 linear.E.Plan.delta in
  let first = scan_of inst.E.Plan.steps.(0) in
  Alcotest.(check int) "delta literal first" 1 first.E.Plan.lit;
  Alcotest.check bool_array "delta literal unconstrained" [| false; false |]
    first.E.Plan.pattern;
  let second = scan_of inst.E.Plan.steps.(1) in
  Alcotest.(check int) "base literal second" 0 second.E.Plan.lit;
  Alcotest.check bool_array "base literal joins on Z" [| false; true |]
    second.E.Plan.pattern;
  (* base preds never get delta instances *)
  Alcotest.(check (list int)) "no delta instances without stratum preds" []
    (List.map fst (compile "a(X, Y) :- e(X, Z), t(Z, Y).").E.Plan.delta)

let test_base_execution () =
  let db = E.Database.of_facts [ atom "e(n1, n2)"; atom "e(n2, n3)"; atom "t(n2, n4)" ] in
  let plan = compile ~delta:[ ("t", 2) ] "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let facts = ref [] in
  E.Plan.run
    ~source:(E.Plan.db_source db)
    ~neg_source:(E.Plan.db_source db)
    ~on_fact:(fun s t -> facts := (s, E.Tuple.to_list t) :: !facts)
    plan.E.Plan.base;
  Alcotest.(check bool) "base instance solves left-to-right" true
    (!facts = [ (sym "a" 2, [ Term.Sym "n1"; Term.Sym "n4" ]) ])

let test_range_views () =
  (* the delta instance reads only the [lo, hi) stamp range of t *)
  let db = E.Database.of_facts [ atom "e(n1, n2)"; atom "e(n2, n3)" ] in
  let trel = E.Database.relation db (sym "t" 2) in
  let tadd a b = ignore (E.Relation.add trel (E.Tuple.of_list [ Term.Sym a; Term.Sym b ])) in
  tadd "n2" "n4";
  let d = E.Relation.size trel in
  tadd "n3" "n5";
  let plan = compile ~delta:[ ("t", 2) ] "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let inst = List.assoc 1 plan.E.Plan.delta in
  let facts = ref [] in
  let source lit s =
    if lit = 1 then [ { E.Plan.rel = trel; lo = d; hi = E.Relation.size trel } ]
    else E.Plan.db_source db lit s
  in
  E.Plan.run ~source
    ~neg_source:(E.Plan.db_source db)
    ~on_fact:(fun _ t -> facts := E.Tuple.to_list t :: !facts)
    inst;
  (* only t(n3, n5) is in the delta range, so only a(n2, n5) is derived;
     joining through the pre-delta t(n2, n4) would also give a(n1, n4) *)
  Alcotest.(check int) "one fact" 1 (List.length !facts);
  Alcotest.(check bool) "a(n2, n5)" true ([ Term.Sym "n2"; Term.Sym "n5" ] = List.hd !facts)

let test_missing_relation_not_probed () =
  (* parity with Solve: a predicate with no relation costs no probe *)
  let db = E.Database.of_facts [ atom "b(1)" ] in
  let plan = compile "a(X) :- b(X), c(X)." in
  let s = E.Stats.create () in
  E.Plan.run ~stats:s
    ~source:(E.Plan.db_source db)
    ~neg_source:(E.Plan.db_source db)
    ~on_fact:(fun _ _ -> ())
    plan.E.Plan.base;
  Alcotest.(check int) "only b is probed" 1 s.E.Stats.probes

(* regression: executor scratch (env + key buffers) is allocated per
   run — a nested run fired from inside on_fact must not corrupt the
   outer run's keys the way the old shared key buffer did *)
let test_run_reentrant () =
  let facts =
    List.init 8 (fun i -> atom (Fmt.str "e(n%d, n%d)" i (i + 1)))
    @ List.init 9 (fun i -> atom (Fmt.str "t(n%d, m%d)" i i))
  in
  let db = E.Database.of_facts facts in
  let plan = compile "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let inst = plan.E.Plan.base in
  Alcotest.(check bool) "compiled to the fast form" true (inst.E.Plan.fast <> None);
  let source = E.Plan.db_source db in
  let run_with on_fact = E.Plan.run ~source ~neg_source:source ~on_fact inst in
  let run_one () =
    let acc = ref [] in
    run_with (fun _ t -> acc := t :: !acc);
    !acc
  in
  let expected = run_one () in
  Alcotest.(check int) "expected solutions" 8 (List.length expected);
  let outer = ref [] in
  let nested_ok = ref true in
  run_with (fun _ t ->
      outer := t :: !outer;
      (* a full nested run of the same compiled form, mid-solution *)
      if run_one () <> expected then nested_ok := false);
  Alcotest.(check bool) "nested runs see correct keys" true !nested_ok;
  Alcotest.(check bool) "outer run unaffected by nested runs" true (!outer = expected)

let suite =
  [
    Alcotest.test_case "patterns and slots" `Quick test_patterns_and_slots;
    Alcotest.test_case "constant keys" `Quick test_constant_keys;
    Alcotest.test_case "all-bound membership" `Quick test_all_bound_membership;
    Alcotest.test_case "builtin disables fast form" `Quick test_builtin_disables_fast;
    Alcotest.test_case "dynamic head is unsafe" `Quick test_dynamic_head_unsafe;
    Alcotest.test_case "delta instances" `Quick test_delta_instances;
    Alcotest.test_case "base execution" `Quick test_base_execution;
    Alcotest.test_case "range views" `Quick test_range_views;
    Alcotest.test_case "missing relation not probed" `Quick
      test_missing_relation_not_probed;
    Alcotest.test_case "run is re-entrant (fast form)" `Quick test_run_reentrant;
  ]
