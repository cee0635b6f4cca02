(* Cross-strategy equivalence: Theorems 4.1, 5.1, 6.1 and 7.1 state that
   every rewriting computes the same answers as the original program for
   the query; the counting methods additionally compute, modulo index
   fields, exactly the facts of the magic methods (Section 6).  These are
   checked on the appendix programs and on random extensional databases. *)

open Datalog
open Helpers
module C = Magic_core

let method_names = [ "naive"; "seminaive"; "tabled"; "gms"; "gsms"; "gc"; "gsc"; "gc-sj"; "gsc-sj" ]

let check_all_agree ?(skip = []) ?(max_facts = 500_000) name program query edb =
  lint_clean name program query;
  let reference = run_method ~max_facts "seminaive" program query edb in
  Alcotest.(check bool)
    (name ^ " reference ok") true
    (reference.C.Rewrite.status = C.Rewrite.Ok);
  List.iter
    (fun m ->
      if not (List.mem m skip) then begin
        let r = run_method ~max_facts m program query edb in
        if r.C.Rewrite.status <> C.Rewrite.Ok then
          Alcotest.failf "%s: %s did not complete" name m;
        if sorted_answers r <> sorted_answers reference then
          Alcotest.failf "%s: %s disagrees with seminaive" name m
      end)
    method_names

let test_ancestor_chain () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 20) in
  check_all_agree "ancestor chain" Workload.Programs.ancestor
    (Workload.Programs.ancestor_query (Workload.Generate.node "n" 0))
    edb

let test_ancestor_cycle () =
  (* cyclic data: the counting methods diverge, everything else agrees *)
  let edb = Workload.Generate.db (Workload.Generate.cycle ~pred:"p" 8) in
  check_all_agree ~skip:[ "gc"; "gsc"; "gc-sj"; "gsc-sj" ] ~max_facts:100_000
    "ancestor cycle" Workload.Programs.ancestor
    (Workload.Programs.ancestor_query (Workload.Generate.node "n" 0))
    edb;
  let gc =
    run_method ~max_facts:20_000 "gc" Workload.Programs.ancestor
      (Workload.Programs.ancestor_query (Workload.Generate.node "n" 0))
      edb
  in
  Alcotest.(check bool) "gc diverges on a cycle" true (gc.C.Rewrite.status = C.Rewrite.Diverged)

let test_nonlinear_ancestor () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 10) in
  check_all_agree ~skip:[ "gc"; "gsc"; "gc-sj"; "gsc-sj" ] "nonlinear ancestor"
    Workload.Programs.nonlinear_ancestor
    (Workload.Programs.ancestor_query (Workload.Generate.node "n" 0))
    edb

let test_nested_sg () =
  let edb =
    Workload.Generate.db
      (Workload.Generate.same_generation ~width:5 ~height:4
      @ List.map atom [ "b1(sg_0_0, z1)"; "b2(sg_3_0, z2)"; "b2(sg_1_0, z3)" ])
  in
  check_all_agree "nested sg" Workload.Programs.nested_same_generation
    (Workload.Programs.nested_same_generation_query (term "sg_0_0"))
    edb

let test_nonlinear_sg () =
  let edb =
    Workload.Generate.db (Workload.Generate.same_generation ~width:5 ~height:3)
  in
  check_all_agree "nonlinear sg" Workload.Programs.nonlinear_same_generation
    (Workload.Programs.same_generation_query (term "sg_0_0"))
    edb

let test_list_reverse () =
  (* plain bottom-up is unsafe here; compare the rewritings against SLD *)
  let program = Workload.Programs.list_reverse in
  let query = Workload.Programs.reverse_query (Workload.Generate.list_of_ints 12) in
  lint_clean "list reverse" program query;
  let edb = Engine.Database.create () in
  let reference = run_method "sld" program query edb in
  List.iter
    (fun m ->
      let r = run_method m program query edb in
      Alcotest.(check bool) (m ^ " ok") true (r.C.Rewrite.status = C.Rewrite.Ok);
      Alcotest.check tuple_list (m ^ " answers") (sorted_answers reference)
        (sorted_answers r))
    [ "gms"; "gsms"; "gc"; "gsc"; "gc-sj"; "gsc-sj" ];
  let plain = run_method "seminaive" program query edb in
  Alcotest.(check bool)
    "plain bottom-up unsafe" true
    (match plain.C.Rewrite.status with C.Rewrite.Unsafe _ -> true | _ -> false)

(* Section 6: projecting out the index fields of the GC result yields
   exactly the facts of the GMS result. *)
let test_gc_projection_equals_gms () =
  let program = Workload.Programs.ancestor in
  let query = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 12) in
  let ad = C.Adorn.adorn program query in
  let gms = C.Magic_sets.rewrite ad in
  let gms_out = C.Rewritten.run gms ~edb in
  let ad2 = C.Adorn.adorn program query in
  let gc = C.Counting.rewrite ad2 in
  let gc_out = C.Rewritten.run gc ~edb in
  let pred_facts db name arity project =
    match Engine.Database.find db (Symbol.make name arity) with
    | None -> []
    | Some rel ->
      List.sort_uniq Engine.Tuple.compare
        (List.map project (Engine.Relation.to_list rel))
  in
  let drop3 t = Array.sub t 3 (Array.length t - 3) in
  Alcotest.check tuple_list "a facts match"
    (pred_facts gms_out.Engine.Eval.db "a_bf" 2 Fun.id)
    (pred_facts gc_out.Engine.Eval.db "a_ind_bf" 5 drop3);
  Alcotest.check tuple_list "magic facts match cnt facts"
    (pred_facts gms_out.Engine.Eval.db "magic_a_bf" 1 Fun.id)
    (pred_facts gc_out.Engine.Eval.db "cnt_a_bf" 4 drop3)

let test_unsimplified_variants_agree () =
  (* the full constructions (without Prop 4.2 pruning etc.) are equivalent
     to the simplified ones *)
  let program = Workload.Programs.nonlinear_same_generation in
  let query = Workload.Programs.same_generation_query (term "sg_0_0") in
  let edb =
    Workload.Generate.db (Workload.Generate.same_generation ~width:4 ~height:3)
  in
  let run_variant rewriting simplify =
    let options = { C.Rewrite.default_options with C.Rewrite.simplify } in
    sorted_answers
      (C.Rewrite.run (C.Rewrite.Rewritten_bottom_up (rewriting, options)) program query
         ~edb)
  in
  List.iter
    (fun rw ->
      Alcotest.check tuple_list
        (C.Rewrite.rewriting_to_string rw ^ " simplified = full")
        (run_variant rw true) (run_variant rw false))
    [ C.Rewrite.GMS; C.Rewrite.GSMS; C.Rewrite.GC; C.Rewrite.GSC ]

let prop_gms_equivalent_on_random_graphs =
  qtest ~count:60 "GMS = seminaive on random graphs" gen_edges (fun edges ->
      let p = Workload.Programs.transitive_closure in
      let edb = Engine.Database.of_facts (edges_to_facts ~pred:"edge" edges) in
      let q = Workload.Programs.tc_query (Term.Sym "n0") in
      let a = sorted_answers (run_method "seminaive" p q edb) in
      let b = sorted_answers (run_method "gms" p q edb) in
      a = b)

let prop_all_strategies_on_random_graphs =
  qtest ~count:30 "all rewritings agree on random acyclic-ish graphs"
    (QCheck2.Gen.pair gen_edges (QCheck2.Gen.int_bound 9))
    (fun (edges, root) ->
      (* make the graph acyclic by orienting edges upward *)
      let edges = List.map (fun (a, b) -> if a <= b then (a, b + 10) else (b, a + 10)) edges in
      let p = Workload.Programs.transitive_closure in
      let edb = Engine.Database.of_facts (edges_to_facts ~pred:"edge" edges) in
      let q = Workload.Programs.tc_query (Term.Sym (Fmt.str "n%d" root)) in
      let reference = sorted_answers (run_method "seminaive" p q edb) in
      List.for_all
        (fun m -> sorted_answers (run_method ~max_facts:200_000 m p q edb) = reference)
        [ "gms"; "gsms"; "gc"; "gsc"; "gc-sj"; "gsc-sj"; "tabled" ])

(* ------------------------------------------------------------------ *)
(* Engine-level equivalence: the naive, reference semi-naive and       *)
(* plan-compiled semi-naive engines must derive identical databases.   *)
(* ------------------------------------------------------------------ *)

type engine_run =
  ?max_iterations:int ->
  ?max_facts:int ->
  ?seeds:Atom.t list ->
  Program.t ->
  edb:Engine.Database.t ->
  Engine.Eval.outcome

let engine_runs : (string * engine_run) list =
  [
    ("naive", Engine.Eval.naive);
    ("plan seminaive", Engine.Eval.seminaive);
    ("reference seminaive", Engine.Eval.seminaive_reference);
  ]

(* everything the engines must agree on: the derived fact set, the
   per-predicate fact counts in the database, and the total of new facts
   in the stats *)
let db_signature (out : Engine.Eval.outcome) =
  let db = out.Engine.Eval.db in
  let syms =
    List.filter
      (fun s -> Engine.Database.cardinal db s > 0)
      (List.sort Symbol.compare (Engine.Database.symbols db))
  in
  ( out.Engine.Eval.diverged,
    List.sort Atom.compare (Engine.Database.all_facts db),
    List.map (fun s -> (s, Engine.Database.cardinal db s)) syms,
    out.Engine.Eval.stats.Engine.Stats.facts )

let prop_engines_identical =
  qtest ~count:100 "engines: naive = reference = plan on random programs"
    gen_random_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      match
        List.map
          (fun ((_, run) : string * engine_run) -> db_signature (run p ~edb))
          engine_runs
      with
      | reference :: rest -> List.for_all (fun s -> s = reference) rest
      | [] -> true)

(* the plan-compiled engine against the uncompiled reference engine on
   GMS-rewritten random programs — the shape the bench's speedup number
   measures, with answers extracted through the rewrite's restore maps *)
let prop_rewritten_engines_identical =
  qtest ~count:60 "engines: reference = plan on gms-rewritten random programs"
    gen_random_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let q = Atom.make "i0" [ Term.Sym "n0"; Term.Var "Y" ] in
      let rw = C.Rewrite.rewrite C.Rewrite.GMS p q in
      let answers engine =
        let out = C.Rewritten.run ~engine rw ~edb in
        List.sort Engine.Tuple.compare (C.Rewritten.answers rw out)
      in
      List.equal Engine.Tuple.equal
        (answers `Seminaive_reference)
        (answers `Seminaive))

let prop_budget_zero_iterations =
  qtest ~count:40 "engines: max_iterations:0 diverges before any work"
    gen_random_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      List.for_all
        (fun ((_, run) : string * engine_run) ->
          let out = run ~max_iterations:0 p ~edb in
          out.Engine.Eval.diverged
          && out.Engine.Eval.stats.Engine.Stats.firings = 0
          && out.Engine.Eval.stats.Engine.Stats.iterations = 0
          && Engine.Database.total out.Engine.Eval.db = Engine.Database.total edb)
        engine_runs)

let prop_budget_one_fact =
  qtest ~count:40 "engines: max_facts:1 diverges iff anything is derivable"
    gen_random_case
    (fun (src, facts) ->
      let p = program src in
      let edb = Engine.Database.of_facts facts in
      let derivable =
        (Engine.Eval.seminaive p ~edb).Engine.Eval.stats.Engine.Stats.facts > 0
      in
      List.for_all
        (fun ((_, run) : string * engine_run) ->
          let out = run ~max_facts:1 p ~edb in
          out.Engine.Eval.stats.Engine.Stats.facts <= 1
          && out.Engine.Eval.diverged = derivable)
        engine_runs)

let suite =
  [
    Alcotest.test_case "ancestor chain" `Quick test_ancestor_chain;
    Alcotest.test_case "ancestor cycle" `Quick test_ancestor_cycle;
    Alcotest.test_case "nonlinear ancestor" `Quick test_nonlinear_ancestor;
    Alcotest.test_case "nested sg" `Quick test_nested_sg;
    Alcotest.test_case "nonlinear sg" `Quick test_nonlinear_sg;
    Alcotest.test_case "list reverse" `Quick test_list_reverse;
    Alcotest.test_case "GC projection = GMS (Section 6)" `Quick
      test_gc_projection_equals_gms;
    Alcotest.test_case "unsimplified variants" `Quick test_unsimplified_variants_agree;
    prop_gms_equivalent_on_random_graphs;
    prop_all_strategies_on_random_graphs;
    prop_engines_identical;
    prop_rewritten_engines_identical;
    prop_budget_zero_iterations;
    prop_budget_one_fact;
  ]
