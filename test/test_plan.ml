(* Unit tests of the rule-compilation layer (Plan): static binding
   patterns, key slots, per-delta-position instances with greedy
   reordering, filter placement, head emitters, stamp-range execution,
   and the one executor against the reference engine. *)

open Datalog
open Helpers
module E = Engine

let sym name arity = Symbol.make name arity

let compile ?(delta = []) src =
  E.Plan.compile
    ~delta_preds:(Symbol.Set.of_list (List.map (fun (n, a) -> sym n a) delta))
    (rule src)

(* every literal reads the whole database *)
let db_views db plan = E.Plan.views plan.E.Plan.rule (fun _ _ -> E.Plan.stored db)

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
  (match se.E.Plan.free with
  | [| E.Plan.Bind (0, _); E.Plan.Bind (1, _) |] -> ()
  | _ -> Alcotest.fail "e: both positions should bind fresh slots");
  Alcotest.(check bool) "e: not all bound" false se.E.Plan.all_bound;
  let st = scan_of base.E.Plan.steps.(1) in
  Alcotest.check bool_array "t: first position bound" [| true; false |]
    st.E.Plan.pattern;
  (* e binds X and Z to slots 0 and 1; t's key reads Z's slot *)
  (match st.E.Plan.key with
  | [| E.Plan.Slot 1 |] -> ()
  | _ -> Alcotest.fail "t: key should be the slot of Z");
  (match base.E.Plan.head with
  | E.Plan.Direct (s, [| E.Plan.Slot 0; E.Plan.Slot 2 |]) ->
    Alcotest.(check bool) "head symbol" true (Symbol.equal s (sym "a" 2))
  | _ -> Alcotest.fail "head should be a direct emitter over the slots of X, Y");
  Alcotest.(check int) "three env slots" 3 base.E.Plan.nvars

let test_constant_keys () =
  let plan = compile "a(X) :- e(X, c)." in
  let se = scan_of plan.E.Plan.base.E.Plan.steps.(0) in
  Alcotest.check bool_array "constant position is bound" [| false; true |]
    se.E.Plan.pattern;
  match se.E.Plan.key with
  | [| E.Plan.Const v |] ->
    Alcotest.(check bool) "pre-interned c" true (E.Value.extern v = Term.Sym "c")
  | _ -> Alcotest.fail "key should be the constant c"

let test_all_bound_membership () =
  let plan = compile "a(X, Y) :- e(X, Y), f(X, Y)." in
  let sf = scan_of plan.E.Plan.base.E.Plan.steps.(1) in
  Alcotest.(check bool) "second literal fully bound" true sf.E.Plan.all_bound;
  Alcotest.(check int) "no free positions" 0 (Array.length sf.E.Plan.free)

let test_builtin_slot_test () =
  let plan = compile "a(X) :- e(X, Y), X < Y." in
  match plan.E.Plan.base.E.Plan.steps.(1) with
  | E.Plan.Test { op = E.Plan.Lt; l = E.Plan.Slot 0; r = E.Plan.Slot 1; negated = false } -> ()
  | _ -> Alcotest.fail "second step should compare the slots of X and Y"

let test_dynamic_head_unsafe () =
  let plan = compile "a(X, Y) :- e(X)." in
  (match plan.E.Plan.base.E.Plan.head with
  | E.Plan.Dynamic { kind = E.Plan.Unbound_head; _ } -> ()
  | _ -> Alcotest.fail "unbound head variable must be dynamic");
  let db = E.Database.of_facts [ atom "e(v)" ] in
  match
    E.Plan.run ~views:(db_views db plan) ~on_fact:(fun _ _ -> ()) plan.E.Plan.base
  with
  | () -> Alcotest.fail "running it must raise Unsafe"
  | exception E.Solve.Unsafe msg ->
    Alcotest.(check string) "message names the instantiated head"
      "rule for a(X, Y) derived non-ground head a(v, Y)" msg

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
  E.Plan.run ~views:(db_views db plan)
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
  let views =
    E.Plan.views plan.E.Plan.rule (fun i _ s ->
        if i = 1 then [ { E.Plan.rel = trel; lo = d; hi = E.Relation.size trel } ]
        else E.Plan.stored db s)
  in
  E.Plan.run ~views
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
  E.Plan.run ~stats:s ~views:(db_views db plan) ~on_fact:(fun _ _ -> ())
    plan.E.Plan.base;
  Alcotest.(check int) "only b is probed" 1 s.E.Stats.probes

(* A naive round resolves each plan's views just before that plan runs:
   [b] is absent when the round starts, the first rule's first firing
   creates it, and the second rule reads it in the same round.  Round 1
   probes e once and b once, f for each of b(1), b(2); round 2 repeats
   it and derives nothing.  Resolving every plan's views before the round
   would read b as absent in round 1 and take a third round. *)
let test_mid_round_relation () =
  let p, _, edb =
    load "e(1). e(2). f(1). f(2). f(3). b(X) :- e(X). c(X) :- b(X), f(X). ?- c(X)."
  in
  let s = (E.Eval.naive p ~edb).E.Eval.stats in
  Alcotest.(check (list int))
    "probes, facts, rounds"
    [ 8; 4; 2 ]
    [ s.E.Stats.probes; s.E.Stats.facts; s.E.Stats.iterations ]

(* regression: executor scratch (env, key and head buffers) is allocated
   per run — a nested run fired from inside on_fact must not corrupt the
   outer run's keys the way the old shared key buffer did.  The head
   tuple is borrowed, so every tuple kept here is copied. *)
let test_run_reentrant () =
  let facts =
    List.init 8 (fun i -> atom (Fmt.str "e(n%d, n%d)" i (i + 1)))
    @ List.init 9 (fun i -> atom (Fmt.str "t(n%d, m%d)" i i))
  in
  let db = E.Database.of_facts facts in
  let plan = compile "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let inst = plan.E.Plan.base in
  let views = db_views db plan in
  let run_with on_fact = E.Plan.run ~views ~on_fact inst in
  let run_one () =
    let acc = ref [] in
    run_with (fun _ t -> acc := Array.copy t :: !acc);
    !acc
  in
  let expected = run_one () in
  Alcotest.(check int) "expected solutions" 8 (List.length expected);
  let outer = ref [] in
  let nested_ok = ref true in
  run_with (fun _ t ->
      outer := Array.copy t :: !outer;
      (* a full nested run of the same compiled form, mid-solution *)
      if run_one () <> expected then nested_ok := false);
  Alcotest.(check bool) "nested runs see correct keys" true !nested_ok;
  Alcotest.(check bool) "outer run unaffected by nested runs" true (!outer = expected)

(* A firing allocates nothing of its own: the head is a borrowed buffer,
   scans reuse one continuation per step, and a duplicate fact is
   rejected by probing the stamp table with that buffer.  A run whose
   firings are all duplicates allocates only its per-run scratch. *)
let test_duplicate_firings_no_alloc () =
  let n = 40 in
  let facts =
    List.concat
      (List.init n (fun i ->
           [
             atom (Fmt.str "e(n%d, z%d)" i (i mod 2));
             atom (Fmt.str "t(z%d, m%d)" (i mod 2) i);
             atom (Fmt.str "t(z%d, m%d)" ((i + 1) mod 2) i);
           ]))
  in
  let db = E.Database.of_facts facts in
  let arel = E.Database.relation db (sym "a" 2) in
  let views =
    [| [ E.Plan.full (E.Database.relation db (sym "e" 2)) ];
       [ E.Plan.full (E.Database.relation db (sym "t" 2)) ];
       [] |]
  in
  let inst = (compile "a(X, Y) :- e(X, Z), t(Z, Y), X <> Y.").E.Plan.base in
  let firings = ref 0 and fresh = ref 0 in
  let on_fact _ t =
    incr firings;
    if E.Relation.add_borrowed arel t then incr fresh
  in
  E.Plan.run ~views ~on_fact inst;
  Alcotest.(check int) "first run stores every fact" (n * n) !fresh;
  firings := 0;
  fresh := 0;
  let before = Gc.minor_words () in
  E.Plan.run ~views ~on_fact inst;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "second run: every firing a duplicate" 0 !fresh;
  Alcotest.(check int) "second run fires" (n * n) !firings;
  let per_firing = words /. float_of_int !firings in
  if per_firing >= 1.0 then
    Alcotest.failf "a duplicate firing allocates %.2f words (%.0f for %d firings)" per_firing
      words !firings

(* A naive round resolves each plan's views from the database once per
   run, so a probe asks for nothing: beyond the per-run scratch (views
   array, env, key and head buffers, continuations), a run whose
   firings are all duplicates allocates nothing per probe. *)
let test_db_views_no_alloc () =
  let n = 400 in
  let facts =
    List.init n (fun i -> atom (Fmt.str "e(n%d, z%d)" i (i mod 4)))
    @ List.init 4 (fun i -> atom (Fmt.str "t(z%d, m)" i))
  in
  let db = E.Database.of_facts facts in
  let arel = E.Database.relation db (sym "a" 2) in
  let plan = compile "a(X, Y) :- e(X, Z), t(Z, Y)." in
  let s = E.Stats.create () in
  let on_fact _ t = ignore (E.Relation.add_borrowed arel t) in
  let round () = E.Plan.run ~stats:s ~views:(db_views db plan) ~on_fact plan.E.Plan.base in
  round ();
  Alcotest.(check int) "first round stores every fact" n (E.Relation.cardinal arel);
  let probes0 = s.E.Stats.probes in
  let before = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. before in
  let probes = s.E.Stats.probes - probes0 in
  Alcotest.(check int) "one probe of e, one of t per e tuple" (n + 1) probes;
  Alcotest.(check int) "second round adds nothing" n (E.Relation.cardinal arel);
  let per_probe = words /. float_of_int probes in
  if per_probe >= 1.0 then
    Alcotest.failf "a probe over database views allocates %.2f words (%.0f for %d probes)"
      per_probe words probes

(* A filter written before the literal that binds it waits until it is
   ready; relation literals keep their written order. *)
let test_filter_waits () =
  let steps = (compile "a(X) :- X < 3, b(X).").E.Plan.base.E.Plan.steps in
  match steps with
  | [| E.Plan.Scan { lit = 1; _ }; E.Plan.Test { op = E.Plan.Lt; _ } |] -> ()
  | _ -> Alcotest.fail "base instance should scan b before testing X < 3"

let bottom_up =
  List.filter_map
    (fun (name, m) ->
      match m with Magic_core.Rewrite.Top_down _ -> None | _ -> Some name)
    Magic_core.Rewrite.methods

(* every bottom-up method answers like tabled evaluation *)
let test_filters_before_binders () =
  List.iter
    (fun (rule_src, query) ->
      let p, q, edb = load (Fmt.str "b(1). %s ?- %s." rule_src query) in
      let expected = run_method "tabled" p q edb in
      Alcotest.(check bool) (rule_src ^ " tabled answers") true
        (expected.Magic_core.Rewrite.status = Magic_core.Rewrite.Ok
        && expected.Magic_core.Rewrite.answers <> []);
      List.iter
        (fun m ->
          let r = run_method m p q edb in
          Alcotest.(check bool) (Fmt.str "%s: %s status ok" rule_src m) true
            (r.Magic_core.Rewrite.status = Magic_core.Rewrite.Ok);
          Alcotest.check tuple_list (Fmt.str "%s: %s answers" rule_src m)
            (sorted_answers expected) (sorted_answers r))
        bottom_up)
    [
      ("a(X) :- X = Y, b(X).", "a(X)");
      ("a(X) :- X = Y, b(Y).", "a(X)");
      ("a(X) :- X = f(Y), b(Y).", "a(X)");
      (* a free query would make the top-down engines reach X < 3 first *)
      ("a(X) :- X < 3, b(X).", "a(1)");
    ]

let test_never_ready_unsafe () =
  let p, _, edb = load "b(1). a(X) :- b(X), Y < 3. ?- a(X)." in
  match Engine.Eval.seminaive p ~edb with
  | _ -> Alcotest.fail "a filter that never becomes ready must raise Unsafe"
  | exception E.Solve.Unsafe msg ->
    Alcotest.(check string) "message" "builtin Y < 3 reached with unbound arguments" msg

let same_as_reference name src =
  let p, _, edb = load src in
  let facts out =
    List.concat_map
      (fun sym ->
        match E.Database.find out.E.Eval.db sym with
        | Some rel -> List.map (fun t -> (sym.Symbol.name, t)) (E.Relation.to_list rel)
        | None -> [])
      (Symbol.Set.elements (Program.derived p))
    |> List.sort compare
  in
  let reference = facts (E.Eval.seminaive_reference p ~edb) in
  Alcotest.(check bool) (name ^ ": derives something") true (reference <> []);
  Alcotest.(check bool) (name ^ ": seminaive = reference") true
    (facts (E.Eval.seminaive p ~edb) = reference);
  Alcotest.(check bool) (name ^ ": naive = reference") true
    (facts (E.Eval.naive p ~edb) = reference)

(* comparisons on slots: integer order on two integers, Term.compare
   otherwise, over the operand pairs of the Solve tests *)
let test_comparisons_match_reference () =
  let operands = [ "1"; "2"; "5"; "a"; "b"; "f(1)"; "f(2)" ] in
  let facts = String.concat " " (List.map (Fmt.str "v(%s).") operands) in
  List.iter
    (fun op ->
      same_as_reference op (Fmt.str "%s r(X, Y) :- v(X), v(Y), X %s Y. ?- r(X, Y)." facts op);
      same_as_reference ("not " ^ op)
        (Fmt.str "%s r(X, Y) :- v(X), v(Y), not X %s Y. ?- r(X, Y)." facts op))
    [ "<"; "<="; ">"; ">="; "="; "<>" ]

(* compound patterns, arithmetic inversion, negated compound keys and
   arithmetic heads, against the substitution-based reference *)
let test_terms_match_reference () =
  List.iter
    (fun (name, src) -> same_as_reference name (src ^ " ?- q(X, Y)."))
    [
      ( "inversion",
        "r(3, 10). r(4, 7). r(0, 0). r(a, 4). q(I, K) :- r(I + 1, K * 2 + 2)." );
      ( "destructure",
        "r(f(1, g(2)), 1). r(f(1, g(3)), 2). r(f(2, h(2)), 2). r(c, 1). \
         q(X, Y) :- r(f(X, g(Y)), X)." );
      ( "negated compound key",
        "v(1). v(2). w(f(1)). q(X, Y) :- v(X), not w(f(X)), Y = g(X, X + 1)." );
      ("counting head", "c(0, 1). c(1, 3). q(X, Y) :- c(X, K), Y = K * 4 + X.");
    ]

let suite =
  [
    Alcotest.test_case "patterns and slots" `Quick test_patterns_and_slots;
    Alcotest.test_case "constant keys" `Quick test_constant_keys;
    Alcotest.test_case "all-bound membership" `Quick test_all_bound_membership;
    Alcotest.test_case "builtin compiles to a slot test" `Quick test_builtin_slot_test;
    Alcotest.test_case "dynamic head is unsafe" `Quick test_dynamic_head_unsafe;
    Alcotest.test_case "delta instances" `Quick test_delta_instances;
    Alcotest.test_case "base execution" `Quick test_base_execution;
    Alcotest.test_case "range views" `Quick test_range_views;
    Alcotest.test_case "missing relation not probed" `Quick
      test_missing_relation_not_probed;
    Alcotest.test_case "relation created mid-round is read that round" `Quick
      test_mid_round_relation;
    Alcotest.test_case "run is re-entrant (fast form)" `Quick test_run_reentrant;
    Alcotest.test_case "duplicate firings do not allocate" `Quick
      test_duplicate_firings_no_alloc;
    Alcotest.test_case "database views do not allocate per probe" `Quick
      test_db_views_no_alloc;
    Alcotest.test_case "filter waits until ready" `Quick test_filter_waits;
    Alcotest.test_case "filters before binders = tabled" `Quick test_filters_before_binders;
    Alcotest.test_case "never-ready filter is unsafe" `Quick test_never_ready_unsafe;
    Alcotest.test_case "comparisons = reference" `Quick test_comparisons_match_reference;
    Alcotest.test_case "terms = reference" `Quick test_terms_match_reference;
  ]
