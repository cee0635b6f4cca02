(* Bench harness: regenerates every appendix table (A2-A6) and measured
   experiment (P1-P8) of DESIGN.md.  Run all tables with
   `dune exec bench/main.exe`, or one with `-- --table P4`.
   With `--json`, writes machine-readable P1/P8 series and the
   reference-vs-plan engine comparison to BENCH_engine.json instead
   (`-- --table P1 --json` restricts to one series).

   Multi-second rows (naive evaluation of the larger workloads, repeat
   timing of the engine comparison) only run under `--full`; the default
   invocation stays around ten seconds and `--smoke` (CI) under a few.
   Every --json row's answer set is checked against the uncompiled
   reference engine before the file is written; divergence exits 1. *)

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

let status_string = function
  | C.Rewrite.Ok -> "ok"
  | C.Rewrite.Diverged -> "diverged"
  | C.Rewrite.Unsafe _ -> "unsafe"

(* --smoke shrinks the INCR workloads (CI); --full adds the multi-second
   rows the default invocation skips *)
let smoke = ref false
let full = ref false

(* naive evaluation of the larger P1 workloads takes several seconds per
   row and shows nothing the smaller sizes don't; keep the default (and
   CI) invocations fast *)
let slow_naive ~chain_n = chain_n >= 400

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
  rewrite_table "Table A5 — generalized counting (Appendix A.5)"
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
  rewrite_table "Table A6 — generalized supplementary counting (Appendix A.6)"
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

let table_p1 () =
  header "Table P1 — bottom-up vs magic: facts computed (Section 1 claim)";
  Fmt.pr "%-28s %10s %10s %10s %10s@." "workload" "naive" "seminaive" "gms" "answers";
  List.iter
    (fun n ->
      let edb = G.db (G.chain ~pred:"p" n) in
      let q = P.ancestor_query (G.node "n" (n / 2)) in
      let naive =
        if slow_naive ~chain_n:n && not !full then "(--full)"
        else
          string_of_int
            (run "naive" P.ancestor q edb).C.Rewrite.stats.Engine.Stats.facts
      in
      let semi = run "seminaive" P.ancestor q edb in
      let gms = run "gms" P.ancestor q edb in
      Fmt.pr "%-28s %10s %10d %10d %10d@."
        (Fmt.str "chain n=%d, query mid" n)
        naive semi.C.Rewrite.stats.Engine.Stats.facts
        gms.C.Rewrite.stats.Engine.Stats.facts
        (List.length gms.C.Rewrite.answers))
    [ 100; 200; 400 ];
  List.iter
    (fun (nodes, edges) ->
      let facts = G.random_graph ~pred:"edge" ~nodes ~edges ~seed:11 () in
      let edb = G.db facts in
      (* query a node that actually has outgoing edges *)
      let q = P.tc_query (List.hd (List.hd facts).Atom.args) in
      let naive = run "naive" P.transitive_closure q edb in
      let semi = run "seminaive" P.transitive_closure q edb in
      let gms = run "gms" P.transitive_closure q edb in
      Fmt.pr "%-28s %10d %10d %10d %10d@."
        (Fmt.str "random %d nodes %d edges" nodes edges)
        naive.C.Rewrite.stats.Engine.Stats.facts semi.C.Rewrite.stats.Engine.Stats.facts
        gms.C.Rewrite.stats.Engine.Stats.facts
        (List.length gms.C.Rewrite.answers))
    [ (200, 300); (400, 600) ];
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
        (status_string gc.C.Rewrite.status);
      Fmt.pr "%-24s %10d %10d %10d@."
        (Fmt.str "chain n=%d (probes)" n)
        gms.C.Rewrite.stats.Engine.Stats.probes gc.C.Rewrite.stats.Engine.Stats.probes
        gcsj.C.Rewrite.stats.Engine.Stats.probes)
    [ 25; 50 ];
  (* counting indices grow exponentially with depth; beyond depth ~62
     they overflow and the engine honestly reports divergence *)
  let deep = G.db (G.chain ~pred:"p" 100) in
  let qd = P.ancestor_query (G.node "n" 0) in
  let gc_deep = run "gc" P.ancestor qd deep in
  Fmt.pr "%-24s %10s %10s %10s %10s@." "chain n=100 (depth>62)" "-" "-" "-"
    (status_string gc_deep.C.Rewrite.status);
  let edb = G.db (G.cycle ~pred:"p" 20) in
  let q = P.ancestor_query (G.node "n" 0) in
  let gms = run "gms" P.ancestor q edb in
  let gc = run ~max_facts:50_000 "gc" P.ancestor q edb in
  Fmt.pr "%-24s %10s %10s@." "cycle n=20" (status_string gms.C.Rewrite.status)
    (status_string gc.C.Rewrite.status);
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
(* P8: wall-clock sweep (bechamel)                                     *)
(* ------------------------------------------------------------------ *)

let p8_workloads () =
  [
    ( "ancestor-chain-120-mid",
      P.ancestor,
      P.ancestor_query (G.node "n" 60),
      (* the query's cone has depth 60, within the numeric index range;
         gc-path measures the price of structured index terms *)
      G.db (G.chain ~pred:"p" 120),
      [
        "naive"; "seminaive"; "sld"; "tabled"; "gms"; "gsms"; "gc"; "gc-sj"; "gc-path";
      ] );
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

let table_p8 () =
  header "Table P8 — wall-clock comparison (bechamel, ns/run)";
  let open Bechamel in
  let workloads = p8_workloads () in
  List.iter
    (fun (wname, p, q, edb, methods) ->
      let tests =
        List.map
          (fun m ->
            Test.make ~name:m
              (Staged.stage (fun () -> ignore (run ~max_facts:2_000_000 m p q edb))))
          methods
      in
      let grouped = Test.make_grouped ~name:wname tests in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~stabilize:false () in
      let raw = Benchmark.all cfg [ instance ] grouped in
      let results = Analyze.all ols instance raw in
      Fmt.pr "@.%s:@." wname;
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Fmt.pr "  %-28s %14.0f ns/run@." name est
          | Some [] | None -> Fmt.pr "  %-28s %14s@." name "n/a")
        (List.sort compare rows))
    workloads;
  Fmt.pr
    "@.shape: on bound queries the rewritten programs beat whole-relation \
     bottom-up evaluation (naive/seminaive) as soon as the query's cone is a \
     fraction of the database; the counting variants with the semijoin \
     optimization are the fastest bottom-up methods on acyclic chains; the \
     path-encoded indices avoid overflow but pay term-size costs on deep \
     derivations; SLD is quick on single-path problems but blows up on shared \
     subgoals, and the naive-iteration tabling baseline pays heavy \
     re-evaluation costs.  Plain bottom-up is not applicable (unsafe) to \
     reverse-20.@."

(* ------------------------------------------------------------------ *)
(* --json: machine-readable series for P1 and P8, written to           *)
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

(* wall clocks are noisy: report the fastest of [repeat] runs, but
   re-run only while the measurement is fast — noise is relative, and
   repeating multi-second runs would make the smoke invocation crawl;
   --full buys one more repetition of every fast row *)
let timed ?repeat f =
  let repeat = match repeat with Some r -> r | None -> if !full then 3 else 2 in
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
    ~status:(status_string r.C.Rewrite.status)
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
  let rows = ref [] in
  let case workload meth p q edb ~ref_ans =
    let r, t, gc = timed (fun () -> run meth p q edb) in
    check_against_reference ~workload ~meth ~ref_ans r;
    rows := jresult ~workload ~meth r t gc :: !rows
  in
  List.iter
    (fun n ->
      let edb = G.db (G.chain ~pred:"p" n) in
      let q = P.ancestor_query (G.node "n" (n / 2)) in
      let ref_ans = reference_answers P.ancestor q edb in
      let methods =
        if slow_naive ~chain_n:n && not !full then [ "seminaive"; "gms" ]
        else [ "naive"; "seminaive"; "gms" ]
      in
      if List.length methods < 3 then
        Fmt.pr "p1: skipping naive on chain n=%d (enable with --full)@." n;
      List.iter
        (fun m -> case (Fmt.str "chain n=%d, query mid" n) m P.ancestor q edb ~ref_ans)
        methods)
    [ 100; 200; 400 ];
  List.iter
    (fun (nodes, edges) ->
      let facts = G.random_graph ~pred:"edge" ~nodes ~edges ~seed:11 () in
      let edb = G.db facts in
      let q = P.tc_query (List.hd (List.hd facts).Atom.args) in
      let ref_ans = reference_answers P.transitive_closure q edb in
      List.iter
        (fun m ->
          case
            (Fmt.str "random %d nodes %d edges" nodes edges)
            m P.transitive_closure q edb ~ref_ans)
        [ "naive"; "seminaive"; "gms" ])
    [ (200, 300); (400, 600) ];
  J.arr (List.rev !rows)

(* the P8 time series: the workloads of table P8, wall-clock timed *)
let json_p8 () =
  let rows = ref [] in
  List.iter
    (fun (wname, p, q, edb, methods) ->
      let ref_ans = reference_answers p q edb in
      List.iter
        (fun m ->
          let r, t, gc = timed (fun () -> run ~max_facts:2_000_000 m p q edb) in
          check_against_reference ~workload:wname ~meth:m ~ref_ans r;
          rows := jresult ~workload:wname ~meth:m r t gc :: !rows)
        methods)
    (p8_workloads ());
  J.arr (List.rev !rows)

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
(* INCR: incremental maintenance vs from-scratch recomputation.        *)
(* The standing materialization is free (it already exists); a small   *)
(* delta is applied by the maintenance engine and, for comparison, by  *)
(* re-evaluating the updated EDB from scratch.  Divergence between the *)
(* two is a hard failure (exit 1) — CI runs this with --smoke.         *)
(* ------------------------------------------------------------------ *)

type incr_case = {
  ikey : string;  (* short slug for the per-case speedup JSON field *)
  ilabel : string;
  (* (method, stats, gc counters, best time, answers) *)
  irows : (string * Engine.Stats.t * Engine.Stats.gc_counters * float * int) list;
  ispeedup : float;
  iconsistent : bool;
}

(* chain ancestor under a GMS session: delete the tail edge of the
   query's cone and re-add it.  The repair walks one derivation path
   (O(n) overdeletions, no rederivations) while a scratch run recomputes
   the whole cone (O(n^2) facts). *)
let incr_chain_case () =
  let n = if !smoke then 300 else 2000 in
  let edb = G.db (G.chain ~pred:"p" n) in
  let q = P.ancestor_query (G.node "n" (n / 2)) in
  let tail = Atom.make "p" [ G.node "n" (n - 1); G.node "n" n ] in
  let session = Incr.Session.create ~strategy:Incr.Session.GMS P.ancestor q ~edb in
  let del = [ Incr.Maintain.Delete tail ] and add = [ Incr.Maintain.Insert tail ] in
  let best_del = ref infinity and best_add = ref infinity in
  let sdel = ref (Engine.Stats.create ()) and sadd = ref (Engine.Stats.create ()) in
  let gdel = ref (Engine.Stats.gc_now ()) and gadd = ref (Engine.Stats.gc_now ()) in
  for _ = 1 to 3 do
    let s, t, g = time (fun () -> Incr.Session.update session del) in
    if t < !best_del then (best_del := t; sdel := s; gdel := g);
    let s, t, g = time (fun () -> Incr.Session.update session add) in
    if t < !best_add then (best_add := t; sadd := s; gadd := g)
  done;
  (* consistency at the deleted state, then at the restored state *)
  ignore (Incr.Session.update session del);
  let edb_del = Engine.Database.copy edb in
  ignore (Engine.Database.remove_fact edb_del tail);
  let scratch_del = run "gms" P.ancestor q edb_del in
  let ok_del =
    sorted_tuples (Incr.Session.answers session)
    = sorted_tuples scratch_del.C.Rewrite.answers
  in
  ignore (Incr.Session.update session add);
  let scratch, scratch_t, scratch_gc = timed (fun () -> run "gms" P.ancestor q edb) in
  let answers = Incr.Session.answers session in
  let ok_restored = sorted_tuples answers = sorted_tuples scratch.C.Rewrite.answers in
  {
    ikey = "chain";
    ilabel = Fmt.str "chain n=%d gms session, tail-edge delete/re-add" n;
    irows =
      [
        ("maintained-delete", !sdel, !gdel, !best_del, List.length answers);
        ("maintained-insert", !sadd, !gadd, !best_add, List.length answers);
        ( "scratch-gms",
          scratch.C.Rewrite.stats,
          scratch_gc,
          scratch_t,
          List.length scratch.C.Rewrite.answers );
      ];
    ispeedup = scratch_t /. Float.max !best_del !best_add;
    iconsistent = ok_del && ok_restored;
  }

(* transitive closure of a random graph, fully materialized (Original
   strategy): delete and re-add a pendant edge — a small delta whose
   affected derivations are the ancestors of one node, while scratch
   re-evaluates the whole closure.  (Deleting a core edge of a strongly
   connected graph would make DRed overdelete most of the closure; that
   regime is the known bad case of deletion maintenance, not the
   small-delta workload measured here.) *)
let incr_random_case () =
  let nodes, edges = if !smoke then (60, 90) else (300, 450) in
  let base = G.random_graph ~pred:"edge" ~nodes ~edges ~seed:17 () in
  let pendant = Atom.make "edge" [ G.node "n" 0; G.node "aux" 0 ] in
  let facts = pendant :: base in
  let m = Incr.Maintain.create P.transitive_closure ~edb:(G.db facts) in
  let del = [ Incr.Maintain.Delete pendant ] in
  let add = [ Incr.Maintain.Insert pendant ] in
  let best_del = ref infinity and best_add = ref infinity in
  let sdel = ref (Engine.Stats.create ()) and sadd = ref (Engine.Stats.create ()) in
  let gdel = ref (Engine.Stats.gc_now ()) and gadd = ref (Engine.Stats.gc_now ()) in
  for _ = 1 to 3 do
    let s, t, g = time (fun () -> Incr.Maintain.apply m del) in
    if t < !best_del then (best_del := t; sdel := s; gdel := g);
    let s, t, g = time (fun () -> Incr.Maintain.apply m add) in
    if t < !best_add then (best_add := t; sadd := s; gadd := g)
  done;
  let tc_all = Atom.make "tc" [ Term.Var "X"; Term.Var "Y" ] in
  (* consistency at the deleted state, then timing + consistency restored *)
  ignore (Incr.Maintain.apply m del);
  let out_del = Engine.Eval.seminaive P.transitive_closure ~edb:(G.db base) in
  let ok_del =
    sorted_tuples (Incr.Maintain.answers m tc_all)
    = sorted_tuples (Engine.Eval.answers out_del tc_all)
  in
  ignore (Incr.Maintain.apply m add);
  let out, scratch_t, scratch_gc =
    timed (fun () -> Engine.Eval.seminaive P.transitive_closure ~edb:(G.db facts))
  in
  let maintained = Incr.Maintain.answers m tc_all in
  let ok_restored =
    sorted_tuples maintained = sorted_tuples (Engine.Eval.answers out tc_all)
  in
  {
    ikey = "random";
    ilabel = Fmt.str "random %d nodes %d edges tc, pendant delete/re-add" nodes edges;
    irows =
      [
        ("maintained-delete", !sdel, !gdel, !best_del, List.length maintained);
        ("maintained-insert", !sadd, !gadd, !best_add, List.length maintained);
        ( "scratch-seminaive",
          out.Engine.Eval.stats,
          scratch_gc,
          scratch_t,
          List.length maintained );
      ];
    ispeedup = scratch_t /. Float.max !best_del !best_add;
    iconsistent = ok_del && ok_restored;
  }

let incr_cases () = [ incr_chain_case (); incr_random_case () ]

let check_incr_consistency cases =
  List.iter
    (fun c ->
      if not c.iconsistent then begin
        Fmt.epr
          "INCR: maintained state diverges from scratch evaluation on %s@." c.ilabel;
        exit 1
      end)
    cases

let table_incr () =
  header
    (Fmt.str "Table INCR — incremental maintenance vs scratch%s"
       (if !smoke then " (smoke sizes)" else ""));
  let cases = incr_cases () in
  Fmt.pr "%-48s %-18s %10s %11s %10s %12s@." "workload" "method" "time_s"
    "overdeleted" "rederived" "delta_firings";
  List.iter
    (fun c ->
      List.iter
        (fun (meth, (s : Engine.Stats.t), _, t, _) ->
          Fmt.pr "%-48s %-18s %10.6f %11d %10d %12d@." c.ilabel meth t
            s.Engine.Stats.overdeleted s.Engine.Stats.rederived
            s.Engine.Stats.delta_firings)
        c.irows;
      Fmt.pr "%-48s %-18s %9.1fx %11s %10s %12s@." c.ilabel "speedup" c.ispeedup
        (if c.iconsistent then "ok" else "DIVERGED") "" "")
    cases;
  check_incr_consistency cases;
  Fmt.pr
    "@.shape: a small delta repairs in time proportional to the affected \
     derivations, not to the size of the materialization; the repaired state is \
     checked extensionally equal to a from-scratch evaluation.@."

let json_incr () =
  let cases = incr_cases () in
  check_incr_consistency cases;
  let rows =
    List.concat_map
      (fun c ->
        List.map
          (fun (meth, stats, gc, t, answers) ->
            J.result_row ~workload:c.ilabel ~meth ~status:"ok" ~gc stats ~time_s:t
              ~answers)
          c.irows)
      cases
  in
  J.obj
    ([ J.field "rows" (J.arr rows) ]
    @ List.map
        (fun c -> J.field (c.ikey ^ "_speedup") (Fmt.str "%.2f" c.ispeedup))
        cases
    @ [ J.field "consistent" "true" ])

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
   exercise different selector verdicts: shallow chains keep counting
   viable, deep chains overflow its numeric indices, cyclic and
   path-saturated data exclude it outright *)
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
      (status_string wr.C.Rewrite.status);
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
     excludes (cyclic or path-saturated data under counting, chains past the \
     numeric index depth) are never run, and viable candidates estimated \
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
            ~status:(status_string wr.C.Rewrite.status)
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

(* ------------------------------------------------------------------ *)
(* SERVE: the query-serving daemon under a mixed read/write workload.  *)
(* [conns] client domains each run a deterministic stream of queries   *)
(* tc(n_k, Ans) over a warm chain session, interleaved with small edge *)
(* transactions (insert an auxiliary edge, later delete it again).     *)
(* Every transaction reply carries the epoch it committed as, and      *)
(* every answer carries the epoch it was served at — so after the run  *)
(* the exact EDB state behind each answer is reconstructible (replay   *)
(* the committed transactions in epoch order), and every single answer *)
(* set is verified against the reference engine on that state.         *)
(* ------------------------------------------------------------------ *)

type serve_result = {
  sr_conns : int;
  sr_queries : int;
  sr_txns : int;
  sr_wall_s : float;
  sr_qps : float;
  sr_p50_ms : float;
  sr_p99_ms : float;
  sr_cache_hits : int;
  sr_epoch : int;
  sr_verified : int;
}

let serve_sizes () =
  (* chain length, queries per client, a txn every [te] requests *)
  if !smoke then (100, 150, 25) else if !full then (300, 1500, 30) else (300, 600, 30)

let serve_trial ~conns =
  let n, queries_per_client, txn_every = serve_sizes () in
  let p = P.transitive_closure in
  let warm_q = P.tc_query (G.node "n" 0) in
  let base_facts = G.chain n in
  let sock = Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "magic_serve_bench_%d_%d.sock" (Unix.getpid ()) conns)
  in
  let registry =
    Server.Registry.create ~strategy:Incr.Session.GMS p warm_q
      ~edb:(G.db base_facts)
  in
  let daemon =
    Domain.spawn (fun () ->
        Server.Daemon.run ~jobs:conns (Server.Daemon.Unix_path sock) registry)
  in
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "SERVE: %s@." m; exit 1) fmt in
  (* one client's request stream; returns its measurements and the
     epoch-tagged records the verification pass consumes *)
  let client_work i =
    let c = Server.Client.unix sock in
    let rng = G.rng (0x5EED + (31 * i)) in
    let latencies = ref [] in
    let queries = ref [] (* (k, epoch, rows) *) in
    let txns = ref [] (* (epoch, op) *) in
    let hits = ref 0 in
    let pending_delete = ref None in
    for t = 1 to queries_per_client do
      if txn_every > 0 && t mod txn_every = 0 then begin
        let op =
          match !pending_delete with
          | Some a ->
            pending_delete := None;
            Incr.Maintain.Delete a
          | None ->
            let j = G.next rng ~bound:n in
            let aux = Term.Sym (Fmt.str "x_%d_%d" i t) in
            let a = Atom.make "edge" [ G.node "n" j; aux ] in
            pending_delete := Some a;
            Incr.Maintain.Insert a
        in
        match Server.Client.request c (Server.Protocol.Txn [ op ]) with
        | Server.Protocol.Committed { epoch; _ } -> txns := (epoch, op) :: !txns
        | Server.Protocol.Error { message; _ } -> fail "txn rejected: %s" message
        | _ -> fail "unexpected reply to txn"
      end
      else begin
        let k = G.next rng ~bound:n in
        let atom = P.tc_query (G.node "n" k) in
        let t0 = Unix.gettimeofday () in
        match Server.Client.request c (Server.Protocol.Query atom) with
        | Server.Protocol.Answers { epoch; cache_hit; answers; _ } ->
          latencies := (Unix.gettimeofday () -. t0) :: !latencies;
          if cache_hit then incr hits;
          queries := (k, epoch, answers) :: !queries
        | Server.Protocol.Error { message; _ } -> fail "query rejected: %s" message
        | _ -> fail "unexpected reply to query"
      end
    done;
    Server.Client.close c;
    (!latencies, !queries, !txns, !hits)
  in
  let t0 = Unix.gettimeofday () in
  let doms = List.init conns (fun i -> Domain.spawn (fun () -> client_work i)) in
  let results = List.map Domain.join doms in
  let wall = Unix.gettimeofday () -. t0 in
  let ctl = Server.Client.unix sock in
  (match Server.Client.request ctl Server.Protocol.Shutdown with
  | Server.Protocol.Shutdown_ack -> ()
  | _ -> fail "daemon did not acknowledge shutdown");
  Server.Client.close ctl;
  Domain.join daemon;
  (* ---- verification: replay the transactions in epoch order and
     check every recorded answer set against the reference engine on
     the EDB state of its epoch ---- *)
  let all_txns =
    List.sort
      (fun (e1, _) (e2, _) -> Int.compare e1 e2)
      (List.concat_map (fun (_, _, t, _) -> t) results)
  in
  let all_queries =
    List.sort
      (fun (_, e1, _) (_, e2, _) -> Int.compare e1 e2)
      (List.concat_map (fun (_, q, _, _) -> q) results)
  in
  let state = G.db base_facts in
  let memo = Hashtbl.create 64 (* (txns applied, k) -> reference rows *) in
  let applied = ref 0 in
  let ref_rows k =
    match Hashtbl.find_opt memo (!applied, k) with
    | Some rows -> rows
    | None ->
      let tuples = reference_answers p (P.tc_query (G.node "n" k)) state in
      let rows =
        List.sort
          (List.compare String.compare)
          (List.map
             (fun tu -> List.map Term.to_string (Engine.Tuple.to_list tu))
             tuples)
      in
      Hashtbl.replace memo (!applied, k) rows;
      rows
  in
  let verified = ref 0 in
  let rec verify txns queries =
    match (txns, queries) with
    | _, [] -> ()
    | (te, op) :: txns', (_, qe, _) :: _ when te <= qe ->
      (* the answer was served at or after this commit: apply it first *)
      (match op with
      | Incr.Maintain.Insert a -> ignore (Engine.Database.add_fact state a)
      | Incr.Maintain.Delete a -> ignore (Engine.Database.remove_fact state a));
      incr applied;
      verify txns' queries
    | _, (k, _, rows) :: queries' ->
      if rows <> ref_rows k then
        fail "answers for tc(n_%d, Ans) diverge from the reference engine" k;
      incr verified;
      verify txns queries'
  in
  verify all_txns all_queries;
  let latencies =
    List.sort Float.compare (List.concat_map (fun (l, _, _, _) -> l) results)
  in
  let nq = List.length latencies in
  let pct p =
    if nq = 0 then 0.
    else List.nth latencies (min (nq - 1) (int_of_float (p *. float_of_int nq)))
  in
  {
    sr_conns = conns;
    sr_queries = nq;
    sr_txns = List.length all_txns;
    sr_wall_s = wall;
    sr_qps = float_of_int nq /. wall;
    sr_p50_ms = pct 0.50 *. 1e3;
    sr_p99_ms = pct 0.99 *. 1e3;
    sr_cache_hits = List.fold_left (fun acc (_, _, _, h) -> acc + h) 0 results;
    sr_epoch = Server.Registry.epoch registry;
    sr_verified = !verified;
  }

let serve_conns = [ 1; 2; 4 ]

(* ---- partitioned workload: two independent subprograms, writes
   hammer one while queries hit both.  Run once per cache mode: the
   [Partial] registry keeps every tcb entry (disjoint footprint) and
   repairs tca entries across insert-only transactions, where the
   [Full] registry starts both sides cold after every commit. ---- *)

type part_result = {
  pt_mode : string;  (* "partial" | "full" *)
  pt_queries : int;
  pt_txns : int;
  pt_wall_s : float;
  pt_qps : float;
  pt_p50_ms : float;
  pt_p99_ms : float;
  pt_hit_rate : float;  (* the daemon's cache_hit_rate counter *)
  pt_partial_inv : int;
  pt_full_inv : int;
  pt_repairs : int;
  pt_evictions : int;
  pt_verified : int;
}

let part_sizes () =
  (* per-side chain length, requests per client, a txn every [te]
     requests, query-key pool per side *)
  if !smoke then (60, 120, 12, 6)
  else if !full then (150, 800, 12, 6)
  else (150, 350, 12, 6)

let part_conns = 4

let serve_part_trial mode =
  let n, per_client, te, pool = part_sizes () in
  let p = P.partitioned_tc in
  let base_facts =
    G.chain ~pred:"ea" ~prefix:"a" n @ G.chain ~pred:"eb" ~prefix:"b" n
  in
  let mode_name =
    match mode with Server.Registry.Partial -> "partial" | Server.Registry.Full -> "full"
  in
  let sock = Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "magic_part_bench_%d_%s.sock" (Unix.getpid ()) mode_name)
  in
  let registry =
    Server.Registry.create ~strategy:Incr.Session.Original ~cache_mode:mode p
      (P.tca_query (G.node "a" 0))
      ~edb:(G.db base_facts)
  in
  let daemon =
    Domain.spawn (fun () ->
        Server.Daemon.run ~jobs:part_conns (Server.Daemon.Unix_path sock) registry)
  in
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "SERVE part: %s@." m; exit 1) fmt in
  let client_work i =
    let c = Server.Client.unix sock in
    let rng = G.rng (0xCAFE + (37 * i)) in
    let latencies = ref [] in
    let queries = ref [] (* (on_b, k, epoch, rows) *) in
    let txns = ref [] (* (epoch, op) *) in
    let pending_delete = ref None in
    for t = 1 to per_client do
      if t mod te = 0 then begin
        (* every write lands in [ea]; [tcb] never changes *)
        let op =
          match !pending_delete with
          | Some a ->
            pending_delete := None;
            Incr.Maintain.Delete a
          | None ->
            let j = G.next rng ~bound:n in
            let aux = Term.Sym (Fmt.str "w_%d_%d" i t) in
            let a = Atom.make "ea" [ G.node "a" j; aux ] in
            pending_delete := Some a;
            Incr.Maintain.Insert a
        in
        match Server.Client.request c (Server.Protocol.Txn [ op ]) with
        | Server.Protocol.Committed { epoch; _ } -> txns := (epoch, op) :: !txns
        | Server.Protocol.Error { message; _ } -> fail "txn rejected: %s" message
        | _ -> fail "unexpected reply to txn"
      end
      else begin
        let on_b = G.next rng ~bound:2 = 1 in
        let k = G.next rng ~bound:pool in
        let atom =
          if on_b then P.tcb_query (G.node "b" k) else P.tca_query (G.node "a" k)
        in
        let t0 = Unix.gettimeofday () in
        match Server.Client.request c (Server.Protocol.Query atom) with
        | Server.Protocol.Answers { epoch; answers; _ } ->
          latencies := (Unix.gettimeofday () -. t0) :: !latencies;
          queries := (on_b, k, epoch, answers) :: !queries
        | Server.Protocol.Error { message; _ } -> fail "query rejected: %s" message
        | _ -> fail "unexpected reply to query"
      end
    done;
    Server.Client.close c;
    (!latencies, !queries, !txns)
  in
  let t0 = Unix.gettimeofday () in
  let doms = List.init part_conns (fun i -> Domain.spawn (fun () -> client_work i)) in
  let results = List.map Domain.join doms in
  let wall = Unix.gettimeofday () -. t0 in
  let ctl = Server.Client.unix sock in
  (match Server.Client.request ctl Server.Protocol.Shutdown with
  | Server.Protocol.Shutdown_ack -> ()
  | _ -> fail "daemon did not acknowledge shutdown");
  Server.Client.close ctl;
  Domain.join daemon;
  let stats = Server.Registry.stats_fields registry in
  let stat name =
    match List.assoc_opt name stats with
    | Some v -> v
    | None -> fail "stats reply lacks the %s counter" name
  in
  (* ---- verification: replay the transactions in epoch order and
     check every answer set against the reference engine on the EDB
     state of its epoch.  The b side is never written, so its
     reference rows depend on the key alone. ---- *)
  let all_txns =
    List.sort
      (fun (e1, _) (e2, _) -> Int.compare e1 e2)
      (List.concat_map (fun (_, _, t) -> t) results)
  in
  let all_queries =
    List.sort
      (fun (_, _, e1, _) (_, _, e2, _) -> Int.compare e1 e2)
      (List.concat_map (fun (_, q, _) -> q) results)
  in
  let state = G.db base_facts in
  let memo = Hashtbl.create 64 in
  let applied = ref 0 in
  let ref_rows on_b k =
    let key = if on_b then (-1, k) else (!applied, k) in
    match Hashtbl.find_opt memo key with
    | Some rows -> rows
    | None ->
      let q =
        if on_b then P.tcb_query (G.node "b" k) else P.tca_query (G.node "a" k)
      in
      let rows =
        List.sort
          (List.compare String.compare)
          (List.map
             (fun tu -> List.map Term.to_string (Engine.Tuple.to_list tu))
             (reference_answers p q state))
      in
      Hashtbl.replace memo key rows;
      rows
  in
  let verified = ref 0 in
  let rec verify txns queries =
    match (txns, queries) with
    | _, [] -> ()
    | (te', op) :: txns', (_, _, qe, _) :: _ when te' <= qe ->
      (match op with
      | Incr.Maintain.Insert a -> ignore (Engine.Database.add_fact state a)
      | Incr.Maintain.Delete a -> ignore (Engine.Database.remove_fact state a));
      incr applied;
      verify txns' queries
    | _, (on_b, k, _, rows) :: queries' ->
      if rows <> ref_rows on_b k then
        fail "%s mode: answers for %s(%s_%d, Ans) diverge from the reference"
          mode_name
          (if on_b then "tcb" else "tca")
          (if on_b then "b" else "a")
          k;
      incr verified;
      verify txns queries'
  in
  verify all_txns all_queries;
  let latencies =
    List.sort Float.compare (List.concat_map (fun (l, _, _) -> l) results)
  in
  let nq = List.length latencies in
  let pct pc =
    if nq = 0 then 0.
    else List.nth latencies (min (nq - 1) (int_of_float (pc *. float_of_int nq)))
  in
  {
    pt_mode = mode_name;
    pt_queries = nq;
    pt_txns = List.length all_txns;
    pt_wall_s = wall;
    pt_qps = float_of_int nq /. wall;
    pt_p50_ms = pct 0.50 *. 1e3;
    pt_p99_ms = pct 0.99 *. 1e3;
    pt_hit_rate = float_of_string (stat "cache_hit_rate");
    pt_partial_inv = int_of_string (stat "partial_invalidations");
    pt_full_inv = int_of_string (stat "full_invalidations");
    pt_repairs = int_of_string (stat "cache_repairs");
    pt_evictions = int_of_string (stat "cache_evictions");
    pt_verified = !verified;
  }

(* the acceptance bar for the partitioned workload: the footprint
   cache must actually hold on to the unwritten side — a hit rate at
   least 0.5 and above the wipe-everything mode's, with nonzero
   partial invalidations and nonzero repairs.  (The full-mode registry
   must conversely never report a partial invalidation or a repair.) *)
let check_partitioned (pp : part_result) (pf : part_result) =
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "SERVE part: %s@." m; exit 1) fmt in
  if pp.pt_partial_inv = 0 then fail "partial mode performed no partial invalidation";
  if pp.pt_repairs = 0 then fail "partial mode performed no cache repair";
  if pp.pt_full_inv > 0 then fail "partial mode fell back to a full wipe";
  if pf.pt_partial_inv > 0 || pf.pt_repairs > 0 then
    fail "full mode reported partial-invalidation work";
  if pp.pt_hit_rate < 0.5 then
    fail "partial-mode hit rate %.4f below the 0.5 bar" pp.pt_hit_rate;
  if pp.pt_hit_rate <= pf.pt_hit_rate then
    fail "partial-mode hit rate %.4f does not beat full mode's %.4f"
      pp.pt_hit_rate pf.pt_hit_rate

let part_results () =
  let pp = serve_part_trial Server.Registry.Partial in
  let pf = serve_part_trial Server.Registry.Full in
  check_partitioned pp pf;
  [ pp; pf ]

let table_serve () =
  header
    (Fmt.str "Table SERVE — concurrent serving over a warm magic session%s"
       (if !smoke then " (smoke sizes)" else ""));
  let n, qpc, te = serve_sizes () in
  Fmt.pr "chain n=%d, %d requests/client, a 1-op txn every %d requests@.@." n
    qpc te;
  Fmt.pr "%5s %8s %6s %10s %9s %9s %7s %7s %9s@." "conns" "queries" "txns"
    "qps" "p50_ms" "p99_ms" "hits" "epoch" "verified";
  List.iter
    (fun conns ->
      let r = serve_trial ~conns in
      Fmt.pr "%5d %8d %6d %10.0f %9.3f %9.3f %7d %7d %9d@." r.sr_conns
        r.sr_queries r.sr_txns r.sr_qps r.sr_p50_ms r.sr_p99_ms r.sr_cache_hits
        r.sr_epoch r.sr_verified)
    serve_conns;
  let n, qpc, te, pool = part_sizes () in
  Fmt.pr
    "@.partitioned workload: two independent closures (tca over ea, tcb over \
     eb), chains n=%d, %d requests/client over %d clients, every write \
     hits ea, a txn every %d requests, %d query keys per side@.@." n qpc
    part_conns te pool;
  Fmt.pr "%8s %8s %6s %10s %9s %9s %9s %8s %8s %8s %9s@." "mode" "queries"
    "txns" "qps" "p50_ms" "p99_ms" "hit_rate" "part_inv" "full_inv" "repairs"
    "verified";
  List.iter
    (fun r ->
      Fmt.pr "%8s %8d %6d %10.0f %9.3f %9.3f %9.4f %8d %8d %8d %9d@." r.pt_mode
        r.pt_queries r.pt_txns r.pt_qps r.pt_p50_ms r.pt_p99_ms r.pt_hit_rate
        r.pt_partial_inv r.pt_full_inv r.pt_repairs r.pt_verified)
    (part_results ());
  Fmt.pr
    "@.shape: every answer set is verified against the reference engine on \
     the exact EDB state of the epoch it was served at (the run exits 1 \
     otherwise).  Reads share epoch-stamped snapshots while transactions \
     serialize through the write lock; under partial invalidation a commit \
     evicts only the cache entries whose dependency footprint intersects \
     the touched relations (repairing insert-only ones in place), so the \
     partitioned run keeps the unwritten side's entries hot — the run \
     exits 1 unless its hit rate clears 0.5 and beats the wipe-everything \
     mode.  Scaling with connections is only visible on a multi-core \
     container.@."

let json_serve () =
  let rows =
    List.map
      (fun conns ->
        let r = serve_trial ~conns in
        J.obj
          [
            J.field "conns" (string_of_int r.sr_conns);
            J.field "queries" (string_of_int r.sr_queries);
            J.field "txns" (string_of_int r.sr_txns);
            J.field "wall_s" (Fmt.str "%.6f" r.sr_wall_s);
            J.field "qps" (Fmt.str "%.1f" r.sr_qps);
            J.field "p50_ms" (Fmt.str "%.4f" r.sr_p50_ms);
            J.field "p99_ms" (Fmt.str "%.4f" r.sr_p99_ms);
            J.field "cache_hits" (string_of_int r.sr_cache_hits);
            J.field "epoch" (string_of_int r.sr_epoch);
            J.field "verified" (string_of_int r.sr_verified);
          ])
      serve_conns
  in
  let parts = part_results () in
  let part_rows =
    List.map
      (fun r ->
        J.obj
          [
            J.field "mode" (J.str r.pt_mode);
            J.field "conns" (string_of_int part_conns);
            J.field "queries" (string_of_int r.pt_queries);
            J.field "txns" (string_of_int r.pt_txns);
            J.field "wall_s" (Fmt.str "%.6f" r.pt_wall_s);
            J.field "qps" (Fmt.str "%.1f" r.pt_qps);
            J.field "p50_ms" (Fmt.str "%.4f" r.pt_p50_ms);
            J.field "p99_ms" (Fmt.str "%.4f" r.pt_p99_ms);
            J.field "cache_hit_rate" (Fmt.str "%.4f" r.pt_hit_rate);
            J.field "partial_invalidations" (string_of_int r.pt_partial_inv);
            J.field "full_invalidations" (string_of_int r.pt_full_inv);
            J.field "cache_repairs" (string_of_int r.pt_repairs);
            J.field "cache_evictions" (string_of_int r.pt_evictions);
            J.field "verified" (string_of_int r.pt_verified);
          ])
      parts
  in
  let rate mode =
    match List.find_opt (fun r -> r.pt_mode = mode) parts with
    | Some r -> Fmt.str "%.4f" r.pt_hit_rate
    | None -> "0"
  in
  J.obj
    [
      J.field "rows" (J.arr rows);
      J.field "partitioned_rows" (J.arr part_rows);
      J.field "part_partial_hit_rate" (rate "partial");
      J.field "part_full_hit_rate" (rate "full");
    ]

(* ------------------------------------------------------------------ *)
(* PERSIST: durable sessions.  One GMS chain session is built from     *)
(* scratch (the price a restart pays without persistence), snapshotted,*)
(* driven through journaled transactions, and reopened from disk       *)
(* (snapshot load + WAL replay).  Every row's session answers are      *)
(* checked against the never-persisted scratch session; at full size   *)
(* the run fails (exit 1) unless reopening beats scratch warm-up by    *)
(* at least 10x — the point of the subsystem is that a restart costs   *)
(* O(file size), not O(evaluation).                                    *)
(* ------------------------------------------------------------------ *)

type persist_row = { pname : string; ptime : float; panswers : int; pok : bool }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type persist_case = {
  plabel : string;
  prows : persist_row list;
  pspeedup : float;  (* scratch warm-up time / reopen time *)
  psnapshot_bytes : int;
}

let persist_case () =
  (* non-linear ancestor: evaluation does O(cone^3) join work for
     O(cone^2) retained facts, so a restart that re-evaluates pays far
     more than one that re-reads the materialization — the regime
     persistence is for.  (Linear chains re-derive about as fast as
     they re-load; there a snapshot only buys the WAL's durability.) *)
  let n = if !smoke then 120 else 600 in
  let program = P.nonlinear_ancestor in
  let edb = G.db (G.chain ~pred:"p" n) in
  let q = P.ancestor_query (G.node "n" (n / 2)) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "magic-persist-bench-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  (* the reference: a never-persisted warm session, answer-checked
     against the one-shot engine *)
  let scratch, scratch_t, _ =
    timed (fun () -> Incr.Session.create ~strategy:Incr.Session.GMS program q ~edb)
  in
  let reference = sorted_tuples (Incr.Session.answers scratch) in
  let nref = List.length reference in
  let ok_scratch =
    reference = sorted_tuples (run "gms" program q edb).C.Rewrite.answers
  in
  (* the same warm-up, kept durable; checkpoint_every=0 so the WAL is
     rotated only by the explicit checkpoints below *)
  let st =
    Persist.Store.open_or_create ~strategy:Incr.Session.GMS ~checkpoint_every:0
      ~dir program q ~edb
  in
  let check st =
    sorted_tuples (Incr.Session.answers (Persist.Store.session st)) = reference
  in
  let _, ckpt_t, _ = timed (fun () -> Persist.Store.checkpoint st) in
  let ok_ckpt = check st in
  (* journaled transactions: delete/re-add the tail edge of the cone —
     each pair is two maintained updates, each fsynced to the WAL *)
  let tail = Atom.make "p" [ G.node "n" (n - 1); G.node "n" n ] in
  let best_txn = ref infinity in
  for _ = 1 to 3 do
    let _, t, _ =
      time (fun () ->
          ignore (Persist.Store.update st [ Incr.Maintain.Delete tail ]);
          ignore (Persist.Store.update st [ Incr.Maintain.Insert tail ]))
    in
    if t < !best_txn then best_txn := t
  done;
  let ok_txn = check st in
  (* fold the expensive history into the snapshot — the steady state a
     periodic checkpoint maintains — then journal a handful of small
     transactions as the WAL suffix the reopen must replay *)
  Persist.Store.checkpoint st;
  for i = 1 to 4 do
    ignore
      (Persist.Store.update st
         [
           Incr.Maintain.Insert
             (Atom.make "p" [ G.node "aux" i; G.node "aux" (i + 100) ]);
         ])
  done;
  let journaled = 4 in
  (* reopen from disk — a fresh handle; the live one plays the role of
     a process that crashed without closing (every record is fsynced) *)
  let st2, reopen_t, _ =
    timed (fun () ->
        Persist.Store.open_or_create ~strategy:Incr.Session.GMS
          ~checkpoint_every:0 ~dir program q ~edb)
  in
  let ok_reopen =
    check st2 && Persist.Store.restored st2
    && Persist.Store.replayed st2 = journaled
  in
  let snapshot_bytes =
    try (Unix.stat (Persist.Store.snapshot_path dir)).Unix.st_size with _ -> 0
  in
  rm_rf dir;
  {
    plabel =
      Fmt.str "chain n=%d gms session, %d wal records on reopen" n journaled;
    prows =
      [
        { pname = "scratch-create"; ptime = scratch_t; panswers = nref; pok = ok_scratch };
        { pname = "checkpoint-save"; ptime = ckpt_t; panswers = nref; pok = ok_ckpt };
        { pname = "wal-append-txn"; ptime = !best_txn /. 2.0; panswers = nref; pok = ok_txn };
        { pname = "reopen-replay"; ptime = reopen_t; panswers = nref; pok = ok_reopen };
      ];
    pspeedup = scratch_t /. reopen_t;
    psnapshot_bytes = snapshot_bytes;
  }

let check_persist_case c =
  List.iter
    (fun r ->
      if not r.pok then begin
        Fmt.epr "PERSIST: %s state diverges from the scratch session on %s@."
          r.pname c.plabel;
        exit 1
      end)
    c.prows;
  if (not !smoke) && c.pspeedup < 10.0 then begin
    Fmt.epr
      "PERSIST: reopen is only %.1fx faster than scratch warm-up (bar: 10x)@."
      c.pspeedup;
    exit 1
  end

let table_persist () =
  header
    (Fmt.str "Table PERSIST — durable sessions: snapshot + WAL%s"
       (if !smoke then " (smoke sizes)" else ""));
  let c = persist_case () in
  Fmt.pr "%-48s %-18s %10s %8s %6s@." "workload" "step" "time_s" "answers" "state";
  List.iter
    (fun r ->
      Fmt.pr "%-48s %-18s %10.6f %8d %6s@." c.plabel r.pname r.ptime r.panswers
        (if r.pok then "ok" else "DIVERGED"))
    c.prows;
  Fmt.pr "%-48s %-18s %9.1fx %8d %6s@." c.plabel "reopen speedup" c.pspeedup
    c.psnapshot_bytes "bytes";
  check_persist_case c;
  Fmt.pr
    "@.shape: reopening costs O(snapshot bytes) plus a replay of the WAL \
     suffix — no re-evaluation; the restored answers are checked extensionally \
     equal to the never-persisted session.@."

let json_persist () =
  let c = persist_case () in
  check_persist_case c;
  let rows =
    List.map
      (fun r ->
        J.result_row ~workload:c.plabel ~meth:r.pname ~status:"ok"
          (Engine.Stats.create ()) ~time_s:r.ptime ~answers:r.panswers)
      c.prows
  in
  J.obj
    [
      J.field "rows" (J.arr rows);
      J.field "reopen_speedup" (Fmt.str "%.2f" c.pspeedup);
      J.field "snapshot_bytes" (string_of_int c.psnapshot_bytes);
      J.field "consistent" "true";
    ]

let emit_json only =
  let sections =
    match only with
    | None ->
      [
        ("p1", json_p1 ());
        ("p8", json_p8 ());
        ("incr", json_incr ());
        ("opt", json_opt ());
        ("serve", json_serve ());
        ("persist", json_persist ());
        ("engine_speedup", json_engine_speedup ());
      ]
    | Some "P1" -> [ ("p1", json_p1 ()) ]
    | Some "P8" -> [ ("p8", json_p8 ()) ]
    | Some "INCR" -> [ ("incr", json_incr ()) ]
    | Some "OPT" -> [ ("opt", json_opt ()) ]
    | Some "SERVE" -> [ ("serve", json_serve ()) ]
    | Some "PERSIST" -> [ ("persist", json_persist ()) ]
    | Some id ->
      Fmt.epr
        "--json supports tables P1, P8, INCR, OPT, SERVE and PERSIST, not %s@."
        id;
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
    ("INCR", table_incr);
    ("OPT", table_opt);
    ("SERVE", table_serve);
    ("PERSIST", table_persist);
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
