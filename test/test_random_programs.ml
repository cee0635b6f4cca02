(* Program-level property testing: random safe Datalog programs are
   generated (linear and nonlinear recursion, multiple IDB predicates,
   interleaved base literals), evaluated with every strategy and checked
   for agreement.  This is the broadest correctness net in the suite. *)

open Datalog
open Helpers
module C = Magic_core

(* random programs over i0/i1 IDB and e0/e1/e2 EDB: see Helpers *)
let gen_case = gen_random_case

let query = Atom.make "i0" [ Term.Sym "n0"; Term.Var "Y" ]

(* the reference is the substitution-based Solve engine, which shares no
   code with the compiled Plan executor every bottom-up method runs on *)
let reference p edb =
  Engine.Eval.answers (Engine.Eval.seminaive_reference ~max_facts:200_000 p ~edb) query

let agree methods (src, facts) =
  let p = program src in
  let edb = Engine.Database.of_facts facts in
  let reference = reference p edb in
  List.for_all
    (fun m ->
      let r = run_method ~max_facts:200_000 m p query edb in
      r.C.Rewrite.status = C.Rewrite.Ok && sorted_answers r = reference)
    methods

let prop_magic_family =
  qtest ~count:60 "random programs: magic family = seminaive" gen_case
    (agree [ "seminaive"; "naive"; "gms"; "gsms"; "tabled" ])

(* counting can diverge on cyclic data, so only check it when it
   completes; when it does, it must agree *)
let prop_counting_agrees_when_terminating =
  (* small divergence budgets: counting on cyclic random data is cut off
     quickly, and the path indices' deep terms make large budgets slow *)
  qtest ~count:30 "random programs: counting agrees when it terminates" gen_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let reference = reference p edb in
      List.for_all
        (fun m ->
          let r = run_method ~max_facts:2_000 m p query edb in
          match r.C.Rewrite.status with
          | C.Rewrite.Ok -> sorted_answers r = reference
          | C.Rewrite.Diverged | C.Rewrite.Inapplicable _ -> true
          | C.Rewrite.Unsafe _ -> false)
        [ "gc"; "gsc"; "gc-sj"; "gsc-sj" ])

(* the cost-based selector must never pick a strategy that changes the
   answers: whatever it chooses, running it agrees with the reference,
   and it agrees with every hand-picked strategy that terminates *)
let prop_auto_extensionally_equal =
  qtest ~count:30 "random programs: auto = gms/gsms/gc/gsc answers" gen_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let reference = reference p edb in
      let choice = Analysis.choose_strategy ~db:edb p query in
      let auto =
        run_method ~max_facts:200_000
          choice.Analysis.Pass_cost.winner.Analysis.Pass_cost.name p query edb
      in
      auto.C.Rewrite.status = C.Rewrite.Ok
      && sorted_answers auto = reference
      && List.for_all
           (fun m ->
             let r = run_method ~max_facts:2_000 m p query edb in
             match r.C.Rewrite.status with
             | C.Rewrite.Ok -> sorted_answers r = reference
             | C.Rewrite.Diverged | C.Rewrite.Inapplicable _ -> true
             | C.Rewrite.Unsafe _ -> false)
           [ "gms"; "gsms"; "gc"; "gsc" ])

let prop_sip_variants =
  qtest ~count:40 "random programs: chain and head-only sips agree" gen_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let reference = reference p edb in
      List.for_all
        (fun sip ->
          let options = { C.Rewrite.default_options with C.Rewrite.sip } in
          let r =
            C.Rewrite.run ~max_facts:200_000
              (C.Rewrite.Rewritten_bottom_up (C.Rewrite.GMS, options))
              p query ~edb
          in
          r.C.Rewrite.status = C.Rewrite.Ok && sorted_answers r = reference)
        [ C.Sip.chain_left_to_right; C.Sip.head_only; C.Sip.none ])

let prop_rewrites_lint_clean =
  qtest ~count:60 "random programs: rewritten outputs pass the invariant linter"
    gen_case
    (fun (src, _) -> lint_ok (program src) query)

let prop_theorem_9_1_random_programs =
  qtest ~count:30 "random programs: GMS sip-optimal" gen_case (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let ad = C.Adorn.adorn p query in
      Result.is_ok (C.Optimality.check_gms ad ~edb))

let prop_explain_random =
  qtest ~count:25 "random programs: every answer has a valid derivation" gen_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let out = Engine.Eval.seminaive p ~edb in
      let answers = Engine.Eval.answers out query in
      List.for_all
        (fun t ->
          let fact = Atom.make "i0" (Engine.Tuple.to_list t) in
          match Engine.Explain.derive p out.Engine.Eval.db fact with
          | Some tree -> Engine.Explain.check p out.Engine.Eval.db tree
          | None -> false)
        answers)

let suite =
  [
    prop_magic_family;
    prop_counting_agrees_when_terminating;
    prop_auto_extensionally_equal;
    prop_sip_variants;
    prop_rewrites_lint_clean;
    prop_theorem_9_1_random_programs;
    prop_explain_random;
  ]
