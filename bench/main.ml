(* Bench harness: regenerates every appendix table (A2-A6) and measured
   experiment (P1-P8) of DESIGN.md, and the OPT table (cost-based
   strategy selection against every hand-picked strategy).  Run all
   tables with `dune exec bench/main.exe`, or one with `-- --table P4`.
   With `--json`, writes the P1, P8 and OPT series and the
   reference-vs-plan engine comparison to BENCH_engine.json instead
   (`-- --table P1 --json` restricts to one series).

   Serving, durability and maintenance are timed out of process by
   perfbench/ (BENCHMARK.json); their correctness gates are tests in
   test/.

   Multi-second rows (naive evaluation of the larger workloads, repeat
   timing of the engine comparison) only run under `--full`.  Every
   timed row's answer set is checked against the uncompiled reference
   engine; divergence exits 1. *)

open Datalog
module C = Magic_core
module G = Workload.Generate
module P = Workload.Programs

let problems =
  [
    ("ancestor", P.ancestor, P.ancestor_query (Term.Sym "john"));
    ("nonlinear ancestor", P.nonlinear_ancestor, P.ancestor_query (Term.Sym "john"));
    ( "nested same generation",
      P.nested_same_generation,
      P.nested_same_generation_query (Term.Sym "john") );
    ( "nonlinear same generation",
      P.nonlinear_same_generation,
      P.same_generation_query (Term.Sym "john") );
    ("list reverse", P.list_reverse, P.reverse_query (Parser.parse_term "[a, b, c]"));
  ]

let header title = Fmt.pr "@.=== %s ===@." title


(* --smoke shrinks the OPT workloads (CI); --full adds the multi-second
   rows the default invocation skips *)
let smoke = ref false
let full = ref false

(* ------------------------------------------------------------------ *)
(* A2-A6: appendix program listings                                    *)
(* ------------------------------------------------------------------ *)

let table_a2 () =
  header "Table A2 — adorned rule sets (Appendix A.2)";
  List.iter
    (fun (name, p, q) ->
      let ad = C.Adorn.adorn p q in
      Fmt.pr "@.-- %s --@.%a@." name C.Adorn.pp ad)
    problems

let rewrite_table title rewrite =
  header title;
  List.iter
    (fun (name, p, q) ->
      let rw = rewrite (C.Adorn.adorn p q) in
      Fmt.pr "@.-- %s --@.%a@." name C.Rewritten.pp rw)
    problems

let table_a3 () =
  rewrite_table "Table A3 — generalized magic sets (Appendix A.3)"
    (C.Magic_sets.rewrite ?simplify:None)

let table_a4 () =
  rewrite_table "Table A4 — generalized supplementary magic sets (Appendix A.4)"
    (C.Supplementary.rewrite ?simplify:None)

let table_a5 () =
  rewrite_table "Table A5 — generalized counting (Appendix A.5, with the path indices of Section 11)"
    (C.Counting.rewrite ?simplify:None);
  header "Table A5 (continued) — semijoin-optimized counting (Section 8)";
  List.iter
    (fun (name, p, q) ->
      let rw = C.Semijoin.optimize (C.Counting.rewrite (C.Adorn.adorn p q)) in
      Fmt.pr "@.-- %s (optimized) --@.%a@." name C.Rewritten.pp rw)
    problems;
  Fmt.pr
    "@.note: as in A.5.2, the counting rewrite of the nonlinear ancestor contains a \
     self-feeding counting rule and its bottom-up evaluation does not terminate \
     (see table P5).@."

let table_a6 () =
  rewrite_table "Table A6 — generalized supplementary counting (Appendix A.6, with path indices)"
    (C.Sup_counting.rewrite ?simplify:None);
  header "Table A6 (continued) — semijoin-optimized (Section 8)";
  List.iter
    (fun (name, p, q) ->
      let rw = C.Semijoin.optimize (C.Sup_counting.rewrite (C.Adorn.adorn p q)) in
      Fmt.pr "@.-- %s (optimized) --@.%a@." name C.Rewritten.pp rw)
    problems

(* ------------------------------------------------------------------ *)
(* P1: magic restricts the computation to the query's cone             *)
(* ------------------------------------------------------------------ *)

let run ?(max_facts = 5_000_000) name p q edb =
  C.Rewrite.run ~max_facts (List.assoc name C.Rewrite.methods) p q ~edb

(* the P1 workloads, read by the table and the JSON series alike:
   (label, program, query, edb, whether naive evaluation is slow).
   Naive evaluation of the larger chains takes several seconds per row
   and shows nothing the smaller sizes don't, so it runs only under
   --full. *)
let p1_workloads () =
  List.map
    (fun n ->
      ( Fmt.str "chain n=%d, query mid" n,
        P.ancestor,
        P.ancestor_query (G.node "n" (n / 2)),
        G.db (G.chain ~pred:"p" n),
        n >= 400 ))
    [ 100; 200; 400 ]
  @ List.map
      (fun (nodes, edges) ->
        let facts = G.random_graph ~pred:"edge" ~nodes ~edges ~seed:11 () in
        ( Fmt.str "random %d nodes %d edges" nodes edges,
          P.transitive_closure,
          (* query a node that actually has outgoing edges *)
          P.tc_query (List.hd (List.hd facts).Atom.args),
          G.db facts,
          false ))
      [ (200, 300); (400, 600) ]

let table_p1 () =
  header "Table P1 — bottom-up vs magic: facts computed (Section 1 claim)";
  Fmt.pr "%-28s %10s %10s %10s %10s@." "workload" "naive" "seminaive" "gms" "answers";
  List.iter
    (fun (label, p, q, edb, slow_naive) ->
      let facts (r : C.Rewrite.result) = r.C.Rewrite.stats.Engine.Stats.facts in
      let naive =
        if slow_naive && not !full then "(--full)"
        else string_of_int (facts (run "naive" p q edb))
      in
      let semi = run "seminaive" p q edb in
      let gms = run "gms" p q edb in
      Fmt.pr "%-28s %10s %10d %10d %10d@." label naive (facts semi) (facts gms)
        (List.length gms.C.Rewrite.answers))
    (p1_workloads ());
  Fmt.pr
    "@.shape: magic computes a fraction of the facts of bottom-up evaluation when \
     the query binds an argument; the fraction shrinks as the data grows around \
     the query's cone.@."

(* ------------------------------------------------------------------ *)
(* P2: sip optimality (Theorem 9.1) and the n^2 remark of Section 9    *)
(* ------------------------------------------------------------------ *)

let table_p2 () =
  header "Table P2 — sip optimality of GMS (Theorem 9.1)";
  Fmt.pr "%-18s %8s %8s %12s %10s %10s@." "workload" "|Q|" "|F|" "gms facts"
    "answers" "optimal?";
  List.iter
    (fun n ->
      let edb = G.db (G.chain ~pred:"p" n) in
      let q = P.ancestor_query (G.node "n" 0) in
      let ad = C.Adorn.adorn P.ancestor q in
      let r = C.Optimality.reference ad ~edb in
      let gms = run "gms" P.ancestor q edb in
      let verdict =
        match C.Optimality.check_gms ad ~edb with Ok () -> "yes" | Error _ -> "NO"
      in
      Fmt.pr "%-18s %8d %8d %12d %10d %10s@."
        (Fmt.str "chain n=%d" n)
        (List.length r.C.Optimality.queries)
        (List.length r.C.Optimality.facts)
        gms.C.Rewrite.stats.Engine.Stats.facts
        (List.length gms.C.Rewrite.answers)
        verdict)
    [ 10; 20; 40; 80 ];
  Fmt.pr
    "@.shape: |F| grows as n(n+1)/2 — magic computes Theta(n^2) facts for n \
     answers, exactly the n^2 remark of Section 9; gms facts = |Q| + |F| \
     (magic facts plus derived facts).@."

(* ------------------------------------------------------------------ *)
(* P3: full vs partial sips (Lemma 9.3)                                *)
(* ------------------------------------------------------------------ *)

let table_p3 () =
  header "Table P3 — full sip (IV) vs partial sip (V) on nonlinear same generation";
  Fmt.pr "%-22s %12s %14s %10s@." "grid (width x height)" "full facts" "partial facts"
    "answers";
  List.iter
    (fun (w, h) ->
      let edb = G.db (G.same_generation ~width:w ~height:h) in
      let q = P.same_generation_query (Term.Sym "sg_0_0") in
      let facts_with sip =
        let ad = C.Adorn.adorn ~strategy:sip P.nonlinear_same_generation q in
        let out = C.Rewritten.run (C.Magic_sets.rewrite ad) ~edb in
        out.Engine.Eval.stats.Engine.Stats.facts
      in
      let full = facts_with C.Sip.full_left_to_right in
      let partial = facts_with C.Sip.chain_left_to_right in
      let answers =
        List.length (run "gms" P.nonlinear_same_generation q edb).C.Rewrite.answers
      in
      Fmt.pr "%-22s %12d %14d %10d@." (Fmt.str "%d x %d" w h) full partial answers;
      assert (full <= partial))
    [ (6, 4); (10, 6); (14, 8) ];
  Fmt.pr
    "@.shape: the fuller sip never computes more facts (Lemma 9.3); both return \
     the same answers.@."

(* ------------------------------------------------------------------ *)
(* P4: counting vs magic (Sections 8 and 11)                           *)
(* ------------------------------------------------------------------ *)

let table_p4 () =
  header "Table P4 — counting vs magic: acyclic data, then cyclic data";
  Fmt.pr "%-24s %10s %10s %10s %10s@." "workload" "gms" "gc" "gc-sj" "status";
  List.iter
    (fun n ->
      let edb = G.db (G.chain ~pred:"p" n) in
      let q = P.ancestor_query (G.node "n" 0) in
      let gms = run "gms" P.ancestor q edb in
      let gc = run "gc" P.ancestor q edb in
      let gcsj = run "gc-sj" P.ancestor q edb in
      Fmt.pr "%-24s %10d %10d %10d %10s@."
        (Fmt.str "chain n=%d (facts)" n)
        gms.C.Rewrite.stats.Engine.Stats.facts gc.C.Rewrite.stats.Engine.Stats.facts
        gcsj.C.Rewrite.stats.Engine.Stats.facts
        (C.Rewrite.status_name gc.C.Rewrite.status);
      Fmt.pr "%-24s %10d %10d %10d@."
        (Fmt.str "chain n=%d (probes)" n)
        gms.C.Rewrite.stats.Engine.Stats.probes gc.C.Rewrite.stats.Engine.Stats.probes
        gcsj.C.Rewrite.stats.Engine.Stats.probes)
    (* 100 is past the ~62 levels the paper's numeric indices reach; the
       path indices have no depth limit *)
    [ 25; 50; 100 ];
  let edb = G.db (G.cycle ~pred:"p" 20) in
  let q = P.ancestor_query (G.node "n" 0) in
  let gms = run "gms" P.ancestor q edb in
  let gc = run ~max_facts:50_000 "gc" P.ancestor q edb in
  Fmt.pr "%-24s %10s %10s@." "cycle n=20" (C.Rewrite.status_name gms.C.Rewrite.status)
    (C.Rewrite.status_name gc.C.Rewrite.status);
  Fmt.pr
    "@.shape: on acyclic chains the semijoin-optimized counting does fewer join \
     probes than magic (the indices replace the magic joins); on cyclic data \
     magic terminates (Theorem 10.2) while counting diverges and is cut off by \
     the fact budget.@."

(* ------------------------------------------------------------------ *)
(* P5: safety reports (Section 10)                                     *)
(* ------------------------------------------------------------------ *)

let table_p5 () =
  header "Table P5 — static safety analysis (Theorems 10.1-10.3)";
  Fmt.pr "%-28s %8s %9s %11s %13s %13s@." "problem" "datalog" "pos.cyc" "magic-safe"
    "cnt-diverges" "counting-safe";
  List.iter
    (fun (name, p, q) ->
      let r = C.Safety.analyze (C.Adorn.adorn p q) in
      Fmt.pr "%-28s %8b %9b %11b %13b %13b@." name r.C.Safety.is_datalog
        r.C.Safety.positive_binding_cycles r.C.Safety.magic_safe
        r.C.Safety.counting_statically_diverges r.C.Safety.counting_safe)
    problems;
  Fmt.pr
    "@.shape: Datalog problems are magic-safe (Thm 10.2); the nonlinear ancestor's \
     cyclic argument graph makes counting diverge (Thm 10.3); list reverse has \
     positive binding cycles, hence safe despite function symbols (Thm 10.1).@."

(* ------------------------------------------------------------------ *)
(* P6: GSMS eliminates GMS's duplicate joins (Section 5)               *)
(* ------------------------------------------------------------------ *)

let table_p6 () =
  header "Table P6 — duplicate work: GMS vs GSMS on nested same generation";
  Fmt.pr "%-22s %12s %12s %12s %12s@." "grid" "gms probes" "gsms probes" "gms facts"
    "gsms facts";
  List.iter
    (fun (w, h) ->
      let edb =
        G.db
          (G.same_generation ~width:w ~height:h
          @ [
              Atom.make "b1" [ Term.Sym "sg_0_0"; Term.Sym "leaf0" ];
              Atom.make "b2" [ Term.Sym (Fmt.str "sg_%d_0" (w - 1)); Term.Sym "leaf1" ];
            ])
      in
      let q = P.nested_same_generation_query (Term.Sym "sg_0_0") in
      let gms = run "gms" P.nested_same_generation q edb in
      let gsms = run "gsms" P.nested_same_generation q edb in
      assert (gms.C.Rewrite.answers = gsms.C.Rewrite.answers);
      Fmt.pr "%-22s %12d %12d %12d %12d@." (Fmt.str "%d x %d" w h)
        gms.C.Rewrite.stats.Engine.Stats.probes gsms.C.Rewrite.stats.Engine.Stats.probes
        gms.C.Rewrite.stats.Engine.Stats.facts gsms.C.Rewrite.stats.Engine.Stats.facts)
    [ (8, 6); (16, 10); (24, 14) ];
  Fmt.pr
    "@.shape: GSMS trades extra stored facts (the supplementary relations) for \
     fewer join probes — the duplicate-work elimination motivating Section 5.@."

(* ------------------------------------------------------------------ *)
(* P7: semijoin ablation (Section 8)                                   *)
(* ------------------------------------------------------------------ *)

let table_p7 () =
  header "Table P7 — semijoin optimization ablation (Section 8)";
  Fmt.pr "%-26s %10s %12s %12s %12s@." "workload" "gc facts" "gc-sj facts" "gc probes"
    "gc-sj probes";
  let cases =
    [
      ( "ancestor chain n=60",
        P.ancestor,
        P.ancestor_query (G.node "n" 0),
        G.db (G.chain ~pred:"p" 60) );
      ( "nested sg 12x8",
        P.nested_same_generation,
        P.nested_same_generation_query (Term.Sym "sg_0_0"),
        G.db
          (G.same_generation ~width:12 ~height:8
          @ [ Atom.make "b1" [ Term.Sym "sg_0_0"; Term.Sym "leaf0" ] ]) );
    ]
  in
  List.iter
    (fun (name, p, q, edb) ->
      let gc = run "gc" p q edb in
      let gcsj = run "gc-sj" p q edb in
      assert (gc.C.Rewrite.answers = gcsj.C.Rewrite.answers);
      Fmt.pr "%-26s %10d %12d %12d %12d@." name gc.C.Rewrite.stats.Engine.Stats.facts
        gcsj.C.Rewrite.stats.Engine.Stats.facts gc.C.Rewrite.stats.Engine.Stats.probes
        gcsj.C.Rewrite.stats.Engine.Stats.probes)
    cases;
  Fmt.pr
    "@.shape: the optimization deletes tail literals and drops bound argument \
     columns, reducing joins (probes); answers are unchanged.@."

(* ------------------------------------------------------------------ *)
(* --json: machine-readable series for P1, P8 and OPT, written to      *)
(* BENCH_engine.json.  The committed baseline records the plan-compiled *)
(* engine's before/after numbers against the reference semi-naive.     *)
(* ------------------------------------------------------------------ *)

(* wall clock plus the run's allocation / collection counters *)
let time f =
  let g0 = Engine.Stats.gc_now () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t = Unix.gettimeofday () -. t0 in
  (r, t, Engine.Stats.gc_delta ~before:g0 ~after:(Engine.Stats.gc_now ()))

(* wall clocks are noisy: report the fastest of two runs, but re-run
   only while the measurement is fast — noise is relative, and
   repeating multi-second runs would make the smoke invocation crawl;
   --full buys one more repetition of every fast row *)
let timed f =
  let repeat = if !full then 3 else 2 in
  let result, t0, g0 = time f in
  let best = ref t0 in
  let gc = ref g0 in
  let n = ref 1 in
  while !n < repeat && !best < 0.5 do
    incr n;
    let _, t, g = time f in
    if t < !best then begin
      best := t;
      gc := g
    end
  done;
  (result, !best, !gc)

(* one row schema for bench and CLI --json alike: Engine.Json_out *)
module J = Engine.Json_out

let jresult ~workload ~meth (r : C.Rewrite.result) t gc =
  J.result_row ~workload ~meth
    ~status:(C.Rewrite.status_name r.C.Rewrite.status)
    ~gc r.C.Rewrite.stats ~time_s:t
    ~answers:(List.length r.C.Rewrite.answers)

let sorted_tuples = List.sort compare

(* Ground truth for a workload's answer set: the uncompiled reference
   engine on the GMS rewrite.  Defined for every bench workload,
   including those where bottom-up evaluation of the original program is
   unsafe (reverse-20), and independent of the interned plan engine the
   other rows exercise. *)
let reference_answers p q edb =
  let rw = C.Magic_sets.rewrite (C.Adorn.adorn p q) in
  let out = C.Rewritten.run ~engine:`Seminaive_reference rw ~edb in
  sorted_tuples (C.Rewritten.answers rw out)

(* a completed method whose answers differ from the reference engine is
   a correctness bug in the interned engine: refuse to emit JSON *)
let check_against_reference ~workload ~meth ~ref_ans (r : C.Rewrite.result) =
  if r.C.Rewrite.status = C.Rewrite.Ok
     && sorted_tuples r.C.Rewrite.answers <> ref_ans then begin
    Fmt.epr "%s / %s: answers diverge from the reference engine@." workload meth;
    exit 1
  end

(* the P1 fact/probe series: the workloads of table P1, timed *)
let json_p1 () =
  J.arr
    (List.concat_map
       (fun (workload, p, q, edb, slow_naive) ->
         let ref_ans = reference_answers p q edb in
         let methods =
           if slow_naive && not !full then begin
             Fmt.pr "p1: skipping naive on %s (enable with --full)@." workload;
             [ "seminaive"; "gms" ]
           end
           else [ "naive"; "seminaive"; "gms" ]
         in
         List.map
           (fun meth ->
             let r, t, gc = timed (fun () -> run meth p q edb) in
             check_against_reference ~workload ~meth ~ref_ans r;
             jresult ~workload ~meth r t gc)
           methods)
       (p1_workloads ()))

(* ------------------------------------------------------------------ *)
(* P8: wall-clock sweep                                                *)
(* ------------------------------------------------------------------ *)

let p8_workloads () =
  [
    ( "ancestor-chain-120-mid",
      P.ancestor,
      P.ancestor_query (G.node "n" 60),
      G.db (G.chain ~pred:"p" 120),
      [ "naive"; "seminaive"; "sld"; "tabled"; "gms"; "gsms"; "gc"; "gc-sj" ] );
    ( "samegen-grid-8x6",
      P.nonlinear_same_generation,
      P.same_generation_query (Term.Sym "sg_0_0"),
      G.db (G.same_generation ~width:8 ~height:6),
      [ "naive"; "seminaive"; "tabled"; "gms"; "gsms" ] );
    ( "reverse-20",
      P.list_reverse,
      P.reverse_query (G.list_of_ints 20),
      Engine.Database.create (),
      [ "sld"; "gms"; "gsms"; "gc"; "gsc" ] );
  ]

(* every P8 method on every P8 workload, timed and checked against the
   reference engine: (workload, [(method, result, seconds, gc)]) *)
let p8_rows () =
  List.map
    (fun (wname, p, q, edb, methods) ->
      let ref_ans = reference_answers p q edb in
      ( wname,
        List.map
          (fun m ->
            let r, t, gc = timed (fun () -> run ~max_facts:2_000_000 m p q edb) in
            check_against_reference ~workload:wname ~meth:m ~ref_ans r;
            (m, r, t, gc))
          methods ))
    (p8_workloads ())

let table_p8 () =
  header "Table P8 — wall-clock comparison (seconds, fastest of the timed runs)";
  List.iter
    (fun (wname, rows) ->
      Fmt.pr "@.%s:@." wname;
      List.iter (fun (m, _, t, _) -> Fmt.pr "  %-12s %10.6f s@." m t) rows)
    (p8_rows ());
  Fmt.pr
    "@.shape: on bound queries the rewritten programs beat whole-relation \
     bottom-up evaluation (naive/seminaive) as soon as the query's cone is a \
     fraction of the database; the semijoin optimization roughly halves \
     counting's time on acyclic chains; SLD is quick on \
     single-path problems but blows up on shared \
     subgoals, and the naive-iteration tabling baseline pays heavy \
     re-evaluation costs.  Plain bottom-up is not applicable (unsafe) to \
     reverse-20.@."

(* the P8 time series: the rows of table P8 *)
let json_p8 () =
  J.arr
    (List.concat_map
       (fun (workload, rows) ->
         List.map (fun (meth, r, t, gc) -> jresult ~workload ~meth r t gc) rows)
       (p8_rows ()))

(* before/after: the uncompiled reference semi-naive engine vs the
   plan-compiled one, on the GMS-rewritten ancestor query over a chain
   of 2000 — the acceptance workload of the plan layer.

   Each side is measured in isolation: the heap is compacted before its
   runs, and only the extracted statistics, GC counters and answer list
   survive a run — retaining one side's multi-hundred-thousand-fact
   database while timing the other inflates that side's GC costs by
   2-3x and was exactly the bias the old in-process numbers showed. *)
let json_engine_speedup () =
  let n = 2000 in
  let edb = G.db (G.chain ~pred:"p" n) in
  let q = P.ancestor_query (G.node "n" (n / 2)) in
  let rw = C.Magic_sets.rewrite (C.Adorn.adorn P.ancestor q) in
  let side engine =
    let runs = if !full then 2 else 1 in
    let best = ref infinity in
    let best_stats = ref (Engine.Stats.create ()) in
    let best_gc = ref (Engine.Stats.gc_now ()) in
    let answers = ref [] in
    Gc.compact ();
    for _ = 1 to runs do
      let (s, a), t, g =
        time (fun () ->
            let out = C.Rewritten.run ~engine rw ~edb in
            (out.Engine.Eval.stats, C.Rewritten.answers rw out))
      in
      if t < !best then begin
        best := t;
        best_stats := s;
        best_gc := g;
        answers := a
      end
    done;
    (* nothing retains the outcome database past this point *)
    (!best_stats, !best_gc, sorted_tuples !answers, !best)
  in
  let ref_stats, ref_gc, ref_ans, ref_t = side `Seminaive_reference in
  let plan_stats, plan_gc, plan_ans, plan_t = side `Seminaive in
  if ref_ans <> plan_ans then begin
    Fmt.epr
      "engine_speedup: plan-compiled answers diverge from the reference engine@.";
    exit 1
  end;
  let engine_obj stats gc t = J.obj (J.stats_fields stats ~time_s:t @ J.gc_fields gc) in
  J.obj
    [
      J.field "workload" (J.str (Fmt.str "chain n=%d, query mid, gms rewrite" n));
      J.field "answers" (string_of_int (List.length plan_ans));
      J.field "reference_seminaive" (engine_obj ref_stats ref_gc ref_t);
      J.field "plan_seminaive" (engine_obj plan_stats plan_gc plan_t);
      J.field "speedup" (Fmt.str "%.2f" (ref_t /. plan_t));
    ]

(* ------------------------------------------------------------------ *)
(* OPT: cost-based strategy selection vs every hand-picked strategy.   *)
(* For each workload family the selector of lib/analysis picks a plan  *)
(* from the extensional statistics; the bench then times every viable  *)
(* candidate, answer-checks each against the reference engine, and     *)
(* fails (exit 1) unless auto — selection time included — lands within *)
(* 1.2x of the best hand-picked strategy's wall clock.                 *)
(* ------------------------------------------------------------------ *)

module A = Analysis.Pass_cost

type opt_case = {
  okey : string;  (* short slug for the per-case summary JSON fields *)
  olabel : string;
  ochoice : A.t;
  osel_t : float;  (* wall clock of Analysis.choose_strategy *)
  (* every timed candidate: (method, result, best time, gc counters) *)
  orows : (string * C.Rewrite.result * float * Engine.Stats.gc_counters) list;
  (* viable candidates not timed: (method, estimated score ratio) *)
  oskipped : (string * float) list;
  oauto_t : float;  (* selection time + the winner's row time *)
  obest_name : string;
  obest_t : float;
}

(* one workload per generator family; sizes chosen so the families
   exercise different selector verdicts: acyclic chains keep counting
   viable, cyclic and path-saturated data exclude it outright *)
let opt_workloads () =
  let cn_root = if !smoke then 30 else 50 in
  let cn_mid = if !smoke then 300 else 2000 in
  let tb, td = if !smoke then (3, 5) else (3, 8) in
  let nodes, edges = if !smoke then (120, 180) else (400, 600) in
  let gfacts = G.random_graph ~pred:"edge" ~nodes ~edges ~seed:11 () in
  let dn, dd = if !smoke then (60, 4) else (150, 5) in
  let gw, gh = if !smoke then (12, 12) else (20, 20) in
  let bb, bd = if !smoke then (3, 4) else (3, 5) in
  let hn = if !smoke then 100 else 200 in
  (* spokes point deep into the chain: the full sip passes the spoke
     targets into tc (a cone of n/4 nodes) while the bound-only sip
     drops the intermediate binding and recomputes the whole closure —
     the families where the sip collection choice decides the row *)
  let hub_edb =
    let hs = 3 * hn / 4 in
    G.db
      (G.chain hn
      @ List.init 3 (fun i ->
            Atom.make "spoke" [ G.node "h" 0; G.node "n" (hs + i) ]))
  in
  [
    ( "chain_root",
      Fmt.str "chain n=%d, query root" cn_root,
      P.ancestor,
      P.ancestor_query (G.node "n" 0),
      G.db (G.chain ~pred:"p" cn_root) );
    ( "chain_mid",
      Fmt.str "chain n=%d, query mid" cn_mid,
      P.ancestor,
      P.ancestor_query (G.node "n" (cn_mid / 2)),
      G.db (G.chain ~pred:"p" cn_mid) );
    ( "tree",
      Fmt.str "tree b=%d d=%d tc root" tb td,
      P.transitive_closure,
      P.tc_query (G.node "n" 0),
      G.db (G.tree ~pred:"edge" ~branching:tb ~depth:td ()) );
    ( "random",
      Fmt.str "random %d nodes %d edges tc" nodes edges,
      P.transitive_closure,
      P.tc_query (List.hd (List.hd gfacts).Atom.args),
      G.db gfacts );
    ( "dense",
      Fmt.str "dense %d nodes deg %d tc" dn dd,
      P.transitive_closure,
      P.tc_query (G.node "n" 0),
      G.db (G.dense_graph ~pred:"edge" ~nodes:dn ~degree:dd ~seed:11 ()) );
    ( "grid",
      Fmt.str "grid %dx%d tc" gw gh,
      P.transitive_closure,
      P.tc_query (Term.Sym (Fmt.str "g_%d_%d" 0 0)),
      G.db (G.grid ~width:gw ~height:gh ()) );
    ( "bushy",
      Fmt.str "bushy sg b=%d d=%d" bb bd,
      P.same_generation_linear,
      P.same_generation_query (G.node "bsg" 1),
      G.db (G.bushy_same_generation ~branching:bb ~depth:bd ()) );
    ( "hub",
      Fmt.str "hub over chain n=%d, spokes at 3n/4" hn,
      P.hub,
      P.hub_query (G.node "h" 0),
      hub_edb );
  ]

let opt_case (okey, olabel, p, q, edb) =
  let ref_ans = reference_answers p q edb in
  (* warm-up: global symbol interning and major-heap growth must not be
     charged to whichever candidate happens to run first; gms stays
     within the query's cone on every family *)
  ignore (run "gms" p q edb);
  let ochoice, osel_t, _ = timed (fun () -> Analysis.choose_strategy ~db:edb p q) in
  (* timing every viable candidate is the point of the table, but a
     candidate whose estimate sits orders of magnitude past the
     winner's would dominate the bench's wall clock just to confirm it
     loses (the bound-only sip on a long chain recomputes the entire
     closure) — such candidates are reported as skipped, never timed.
     The margin is wide enough that a genuine contender (estimates are
     routinely off by 2-5x) is never silenced. *)
  let skip_ratio e =
    e.A.score /. Float.max 1. ochoice.A.winner.A.score
  in
  let oskipped =
    List.filter_map
      (fun (e : A.estimate) ->
        if
          e.A.verdict = A.Viable
          && e.A.name <> ochoice.A.winner.A.name
          && skip_ratio e > 300.
        then Some (e.A.name, skip_ratio e)
        else None)
      ochoice.A.ranked
  in
  let orows =
    List.filter_map
      (fun (e : A.estimate) ->
        if e.A.verdict <> A.Viable || List.mem_assoc e.A.name oskipped then None
        else begin
          (* like json_engine_speedup: a candidate must not inherit the
             major-heap growth of whichever row ran before it *)
          Gc.compact ();
          let r, t, gc = timed (fun () -> run e.A.name p q edb) in
          check_against_reference ~workload:olabel ~meth:e.A.name ~ref_ans r;
          Some (e.A.name, r, t, gc)
        end)
      ochoice.A.ranked
  in
  let winner = ochoice.A.winner.A.name in
  let _, (wr : C.Rewrite.result), wt, _ =
    List.find (fun (n, _, _, _) -> n = winner) orows
  in
  if wr.C.Rewrite.status <> C.Rewrite.Ok then begin
    Fmt.epr "OPT %s: auto-selected %s did not complete (%s)@." olabel winner
      (C.Rewrite.status_name wr.C.Rewrite.status);
    exit 1
  end;
  let obest_name, obest_t =
    List.fold_left
      (fun (bn, bt) (n, (r : C.Rewrite.result), t, _) ->
        if r.C.Rewrite.status = C.Rewrite.Ok && t < bt then (n, t) else (bn, bt))
      ("", infinity) orows
  in
  (* the acceptance bar: the auto-selected strategy's evaluation within
     1.2x of the best hand strategy.  Selection is a fixed cost paid
     once per query shape, reported separately — charging its 1-9ms to
     a sub-millisecond smoke row would measure the harness, not the
     pick.  The 2ms slack keeps micro rows out of scheduler-noise
     territory.  A first-pass breach is re-measured at a higher repeat
     count before the run fails: the bar takes the minimum over many
     candidate timings, so one lucky sample for any candidate (or one
     unlucky one for the winner) sits well within scheduler noise. *)
  let bar_ok wt bt = wt <= (1.2 *. bt) +. 0.002 in
  let wt, obest_t =
    if bar_ok wt obest_t || winner = obest_name then (wt, obest_t)
    else begin
      (* interleaved samples: two consecutive per-candidate windows
         would pick up container-level drift that alternation cancels *)
      let wt' = ref wt and bt' = ref obest_t in
      for _ = 1 to 4 do
        Gc.compact ();
        let _, t1, _ = time (fun () -> run winner p q edb) in
        Gc.compact ();
        let _, t2, _ = time (fun () -> run obest_name p q edb) in
        if t1 < !wt' then wt' := t1;
        if t2 < !bt' then bt' := t2
      done;
      (!wt', !bt')
    end
  in
  let oauto_t = osel_t +. wt in
  if not (bar_ok wt obest_t) then begin
    Fmt.epr
      "OPT %s: auto-selected %s (%.6fs) exceeds 1.2x the best hand-picked \
       strategy (%s, %.6fs)@.%a@."
      olabel winner wt obest_name obest_t A.pp_report ochoice;
    exit 1
  end;
  { okey; olabel; ochoice; osel_t; orows; oskipped; oauto_t; obest_name; obest_t }

let opt_cases () = List.map opt_case (opt_workloads ())

let table_opt () =
  header
    (Fmt.str "Table OPT — cost-based strategy selection vs hand-picked%s"
       (if !smoke then " (smoke sizes)" else ""));
  List.iter
    (fun c ->
      Fmt.pr "@.%s (selection %.6fs, %s statistics):@." c.olabel c.osel_t
        (if c.ochoice.A.measured then "measured" else "symbolic");
      List.iter
        (fun (name, (r : C.Rewrite.result), t, _) ->
          Fmt.pr "  %-12s %10.6fs %9d facts %9d probes %7d answers%s@." name t
            r.C.Rewrite.stats.Engine.Stats.facts r.C.Rewrite.stats.Engine.Stats.probes
            (List.length r.C.Rewrite.answers)
            (if name = c.ochoice.A.winner.A.name then "  <- auto" else ""))
        c.orows;
      List.iter
        (fun (name, ratio) ->
          Fmt.pr "  %-12s skipped: estimated %.0fx the selected strategy@."
            name ratio)
        c.oskipped;
      List.iter
        (fun (e : A.estimate) ->
          match e.A.verdict with
          | A.Excluded reason | A.Inapplicable reason ->
            Fmt.pr "  %-12s not run: %s@." e.A.name reason
          | A.Viable -> ())
        c.ochoice.A.ranked;
      Fmt.pr "  auto=%s run %.6fs (+%.6fs selection)  best=%s %.6fs  ratio %.2fx@."
        c.ochoice.A.winner.A.name
        (c.oauto_t -. c.osel_t)
        c.osel_t c.obest_name c.obest_t
        ((c.oauto_t -. c.osel_t) /. c.obest_t))
    (opt_cases ());
  Fmt.pr
    "@.shape: on every family the auto-selected strategy evaluates within 1.2x \
     of the best hand-picked one (the run exits 1 otherwise); selection is a \
     fixed per-query-shape cost reported separately; candidates the analysis \
     excludes (cyclic or path-saturated data under counting) are never run, \
     and viable candidates estimated \
     300x past the selected strategy (the bound-only sip recomputing a \
     long chain's closure) are skipped rather than timed.@."

let json_opt () =
  let cases = opt_cases () in
  let rows =
    List.concat_map
      (fun c ->
        let hand =
          List.map
            (fun (name, r, t, gc) -> jresult ~workload:c.olabel ~meth:name r t gc)
            c.orows
        in
        let w = c.ochoice.A.winner in
        let _, wr, _, wgc = List.find (fun (n, _, _, _) -> n = w.A.name) c.orows in
        (* the auto row re-reports the winner's run under the full
           auto cost (selection included) and carries the estimator's
           predictions so the calibration ratios land in the baseline *)
        let auto =
          J.result_row ~workload:c.olabel
            ~meth:("auto:" ^ w.A.name)
            ~status:(C.Rewrite.status_name wr.C.Rewrite.status)
            ~gc:wgc
            ~cost:(w.A.est_facts, w.A.est_probes)
            wr.C.Rewrite.stats ~time_s:c.oauto_t
            ~answers:(List.length wr.C.Rewrite.answers)
        in
        hand @ [ auto ])
      cases
  in
  let summary =
    List.concat_map
      (fun c ->
        [
          J.field (c.okey ^ "_auto") (J.str c.ochoice.A.winner.A.name);
          J.field (c.okey ^ "_best") (J.str c.obest_name);
          J.field (c.okey ^ "_ratio")
            (Fmt.str "%.2f" ((c.oauto_t -. c.osel_t) /. c.obest_t));
          J.field (c.okey ^ "_select_s") (Fmt.str "%.6f" c.osel_t);
          J.field (c.okey ^ "_skipped")
            (J.str (String.concat "," (List.map fst c.oskipped)));
        ])
      cases
  in
  J.obj (J.field "rows" (J.arr rows) :: summary)

let emit_json only =
  let sections =
    match only with
    | None ->
      [
        ("p1", json_p1 ());
        ("p8", json_p8 ());
        ("opt", json_opt ());
        ("engine_speedup", json_engine_speedup ());
      ]
    | Some "P1" -> [ ("p1", json_p1 ()) ]
    | Some "P8" -> [ ("p8", json_p8 ()) ]
    | Some "OPT" -> [ ("opt", json_opt ()) ]
    | Some id ->
      Fmt.epr "--json supports tables P1, P8 and OPT, not %s@." id;
      exit 1
  in
  let doc =
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> Fmt.str "  %S: %s" k v) sections)
    ^ "\n}\n"
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc doc;
  close_out oc;
  Fmt.pr "wrote BENCH_engine.json (%s)@."
    (String.concat ", " (List.map fst sections))

(* ------------------------------------------------------------------ *)

let tables =
  [
    ("A2", table_a2);
    ("A3", table_a3);
    ("A4", table_a4);
    ("A5", table_a5);
    ("A6", table_a6);
    ("P1", table_p1);
    ("P2", table_p2);
    ("P3", table_p3);
    ("P4", table_p4);
    ("P5", table_p5);
    ("P6", table_p6);
    ("P7", table_p7);
    ("P8", table_p8);
    ("OPT", table_opt);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  smoke := List.mem "--smoke" args;
  full := List.mem "--full" args;
  let rec table_of = function
    | "--table" :: id :: _ -> Some (String.uppercase_ascii id)
    | _ :: rest -> table_of rest
    | [] -> None
  in
  match (json, table_of args) with
  | true, only -> emit_json only
  | false, Some id -> begin
    match List.assoc_opt id tables with
    | Some f -> f ()
    | None ->
      Fmt.epr "unknown table %s (available: %s)@." id
        (String.concat ", " (List.map fst tables));
      exit 1
  end
  | false, None -> List.iter (fun (_, f) -> f ()) tables
