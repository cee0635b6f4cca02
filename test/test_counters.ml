(* Pinned work counters.  Engine refactors must leave the amount of work
   unchanged, not only the answers: every bottom-up method of
   [Rewrite.methods] on every case of [Cost_cases], and every step of
   a few update scripts run through an in-memory store, print their
   counters next to the expected text in [test/counter_reports/].
   A fixed fact budget makes divergent runs (counting over cyclic data)
   pin their cutoff counters too. *)

open Datalog
module C = Magic_core

let dir = Helpers.repo_file "test/counter_reports"

let check_pinned name actual =
  let path = Filename.concat dir (name ^ ".txt") in
  if not (Sys.file_exists path) then Alcotest.failf "%s: no pinned counters %s" name path;
  Alcotest.(check string) name (Cost_cases.read path) actual

(* ------------------------------------------------------------------ *)
(* evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let max_facts = 1000

let bottom_up =
  List.filter
    (fun (_, m) -> match m with C.Rewrite.Top_down _ -> false | _ -> true)
    C.Rewrite.methods

let status_name (r : C.Rewrite.result) = C.Rewrite.status_name r.C.Rewrite.status

let eval_report (case : Cost_cases.case) =
  let program, query, edb = case.input () in
  String.concat ""
    (List.map
       (fun (name, m) ->
         match C.Rewrite.run ~max_facts m program query ~edb with
         | exception Invalid_argument msg -> Fmt.str "%s refused: %s\n" name msg
         | r ->
           let s = r.C.Rewrite.stats in
           Fmt.str "%s iterations=%d firings=%d facts=%d rederivations=%d probes=%d status=%s\n"
             name s.Engine.Stats.iterations s.Engine.Stats.firings s.Engine.Stats.facts
             s.Engine.Stats.rederivations s.Engine.Stats.probes (status_name r))
       bottom_up)

let test_eval () =
  List.iter
    (fun (case : Cost_cases.case) -> check_pinned ("eval_" ^ case.name) (eval_report case))
    (Cost_cases.all ())

(* The paper's numeric counting indices grow as 2^depth and would
   overflow on an ancestor chain longer than 62; the path indices the
   counting methods evaluate with have no depth limit, so every method
   returns all 70 answers.  The pinned counters and answer counts fix
   that. *)
let overflow_name = "eval_counting_overflow"

let overflow_report () =
  let module G = Workload.Generate in
  let program = Workload.Programs.ancestor
  and query = Workload.Programs.ancestor_query (G.node "n" 0)
  and edb = G.db (G.chain ~pred:"p" 70) in
  String.concat ""
    (List.map
       (fun name ->
         let m = List.assoc name C.Rewrite.methods in
         let r = C.Rewrite.run ~max_facts:100_000 m program query ~edb in
         let s = r.C.Rewrite.stats in
         Fmt.str "%s answers=%d iterations=%d firings=%d facts=%d probes=%d status=%s\n" name
           (List.length r.C.Rewrite.answers) s.Engine.Stats.iterations s.Engine.Stats.firings
           s.Engine.Stats.facts s.Engine.Stats.probes (status_name r))
       [ "gc"; "gsc"; "gc-sj"; "gsc-sj" ])

let test_overflow () = check_pinned overflow_name (overflow_report ())

(* ------------------------------------------------------------------ *)
(* maintenance                                                         *)
(* ------------------------------------------------------------------ *)

(* non-recursive negation (a non-recursive unit with a negated literal) over
   a recursive one, and a recursive unit whose rules negate a base
   predicate (DRed with negated literals in every phase) *)
let negation_src =
  {|
node(a). node(b). node(c). node(d). node(e).
edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(d, e).
blocked(e).
safe(X, Y) :- edge(X, Y), not blocked(Y).
safe(X, Y) :- safe(X, Z), edge(Z, Y), not blocked(Y).
cut(X, Y) :- node(Y), safe(X, Z), not safe(X, Y).
?- cut(a, Y).
|}

let negation_script =
  {|
? cut(a, Y).
- blocked(e).
+ blocked(d).
? cut(a, Y).
- edge(c, a).
? cut(a, Y).
+ edge(c, a).
+ edge(b, e).
? cut(a, Y).
- blocked(d).
- edge(c, d).
? cut(b, Y).
|}

let maint_line (s : Incr.Maintain.stats) =
  Fmt.str "probes=%d overdeleted=%d rederived=%d delta_firings=%d" s.Incr.Maintain.probes
    s.Incr.Maintain.overdeleted s.Incr.Maintain.rederived s.Incr.Maintain.delta_firings

(* one line per transaction and per query, as [magic session] batches
   them: consecutive updates up to the next query form one transaction *)
let maint_report ~strategy program_src script_src =
  let program, query, edb = Helpers.load program_src in
  let store = Persist.Store.open_or_create ~strategy program query ~edb:(lazy edb) in
  let out = Buffer.create 256 in
  let pending = ref [] in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | ops ->
      pending := [];
      let stats = Persist.Store.update store ops in
      Printf.bprintf out "txn %d ops: %s\n" (List.length ops) (maint_line stats)
  in
  List.iter
    (function
      | Incr.Script.Assert a -> pending := Incr.Maintain.Insert a :: !pending
      | Incr.Script.Retract a -> pending := Incr.Maintain.Delete a :: !pending
      | Incr.Script.Query q ->
        flush ();
        let answers, stats = Persist.Store.query store q in
        Printf.bprintf out "query %s: %d answers %s\n" (Fmt.str "%a" Atom.pp q)
          (List.length answers) (maint_line stats))
    (Incr.Script.parse script_src);
  flush ();
  Buffer.contents out

let maint_cases =
  let strategies =
    [ ("original", Incr.Session.Original); ("gms", Incr.Session.GMS); ("gsms", Incr.Session.GSMS) ]
  in
  let paths () =
    ( Cost_cases.read (Helpers.repo_file "examples/paths.dl"),
      Cost_cases.read (Helpers.repo_file "examples/updates_paths.dl") )
  in
  List.concat_map
    (fun (case, srcs) ->
      List.map
        (fun (sname, strategy) -> (Fmt.str "maint_%s_%s" case sname, strategy, srcs))
        strategies)
    [ ("paths", paths); ("negation", fun () -> (negation_src, negation_script)) ]

let test_maint () =
  List.iter
    (fun (name, strategy, srcs) ->
      let program_src, script_src = srcs () in
      check_pinned name (maint_report ~strategy program_src script_src))
    maint_cases

(* every pinned file belongs to a case *)
let test_no_stray () =
  let names =
    overflow_name
    :: List.map (fun (c : Cost_cases.case) -> "eval_" ^ c.name) (Cost_cases.all ())
    @ List.map (fun (n, _, _) -> n) maint_cases
  in
  Array.iter
    (fun f ->
      if not (List.mem (Filename.remove_extension f) names) then
        Alcotest.failf "%s/%s pins no case" dir f)
    (Sys.readdir dir)

let suite =
  [
    Alcotest.test_case "counters: eval unchanged" `Quick test_eval;
    Alcotest.test_case "counters: counting overflow unchanged" `Quick test_overflow;
    Alcotest.test_case "counters: maintenance unchanged" `Quick test_maint;
    Alcotest.test_case "counters: no stray pins" `Quick test_no_stray;
  ]
