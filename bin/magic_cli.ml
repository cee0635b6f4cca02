(* magic — command-line driver for the magic-sets library.

   A source file contains rules, ground facts and one ?- query; the
   subcommands adorn it, rewrite it with one of the paper's strategies,
   analyze safety, evaluate it with any method, or compare all methods. *)

open Cmdliner
open Datalog
module C = Magic_core
module T = Cmdliner.Term

(* read to end of file rather than sizing the input, so pipes and
   process substitutions work as well as regular files *)
let read_source path = In_channel.with_open_bin path In_channel.input_all

let render_diagnostics ~src ~file ds =
  List.iter (fun d -> Fmt.epr "%a@." (Analysis.Diagnostic.render ~src ~file) d) ds

(* the program, its query, and its EDB built on first use: a store
   reopened from disk never reads the source file's facts *)
let load_lazy path =
  let src = read_source path in
  match Parser.parse_program_spanned src with
  | Stdlib.Error { Parser.message; span } ->
    render_diagnostics ~src ~file:path
      [ Analysis.Diagnostic.error ~code:"E100" ~span ("syntax error: " ^ message) ];
    exit 1
  | Stdlib.Ok (program, query, srcmap) -> (
    (* pre-flight: refuse to evaluate a program the engine would choke on,
       with located diagnostics instead of a raw exception *)
    let errors = Analysis.preflight ~srcmap ?query program in
    if errors <> [] then begin
      render_diagnostics ~src ~file:path errors;
      exit 1
    end;
    let program, facts = Parser.split_facts program in
    match query with
    | None -> Fmt.failwith "%s: no ?- query found" path
    | Some q -> (program, q, lazy (Engine.Database.of_facts facts)))

let load path =
  let program, q, edb = load_lazy path in
  (program, q, Lazy.force edb)

(* parse an update script with located diagnostics: malformed or
   truncated lines point into the script source instead of aborting
   with a bare exception *)
let load_script path =
  let src = read_source path in
  match Incr.Script.parse_spanned src with
  | Ok items -> items
  | Stdlib.Error { Incr.Script.message; span } ->
    render_diagnostics ~src ~file:path
      [ Analysis.Diagnostic.error ~code:"E110" ~span ("script error: " ^ message) ];
    exit 1

let sip_conv =
  let parse s =
    match C.Sip.strategy_of_string s with
    | Some st -> Stdlib.Ok (s, st)
    | None -> Stdlib.Error (`Msg (Fmt.str "unknown sip strategy %S" s))
  in
  Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Datalog source file.")

let sip_arg =
  Arg.(
    value
    & opt sip_conv ("full", C.Sip.full_left_to_right)
    & info [ "sip" ] ~docv:"SIP" ~doc:"Sip strategy: full, chain, head-only or none.")

let max_facts_arg =
  Arg.(
    value
    & opt int 5_000_000
    & info [ "max-facts" ] ~docv:"N" ~doc:"Fact budget before reporting divergence.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit result rows as JSON: eval and compare in the row schema of \
              BENCH_engine.json, session with the maintenance counters of each \
              transaction and query.")

(* rewrite, or exit 1 with a one-line error when the counting rewrite
   cannot index the program *)
let rewrite_or_exit cmd ~options rewriting program query =
  match C.Rewrite.rewrite ~options rewriting program query with
  | rw -> rw
  | exception C.Counting.Inapplicable msg ->
    Fmt.epr "magic %s: %s@." cmd msg;
    exit 1

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)

let adorn_cmd =
  let run file (_, sip) =
    let program, query, _ = load file in
    let ad = C.Adorn.adorn ~strategy:sip program query in
    Fmt.pr "%a@." C.Adorn.pp ad;
    List.iter
      (fun (ar : C.Adorn.adorned_rule) ->
        Fmt.pr "%% sip for %s_%s rule %d: %a@." ar.C.Adorn.head_pred
          (C.Adornment.to_string ar.C.Adorn.head_adornment)
          ar.C.Adorn.source_index
          (C.Sip.pp ~rule:ar.C.Adorn.rule)
          ar.C.Adorn.sip)
      ad.C.Adorn.rules
  in
  Cmd.v
    (Cmd.info "adorn" ~doc:"Print the adorned rule set and the sips used (Section 3).")
    (T.app (T.app (T.const run) file_arg) sip_arg)

let strategy_arg =
  let rewriting_conv =
    let parse s =
      match C.Rewrite.rewriting_of_string s with
      | Some r -> Stdlib.Ok r
      | None -> Stdlib.Error (`Msg (Fmt.str "unknown strategy %S" s))
    in
    Arg.conv (parse, fun ppf r -> Fmt.string ppf (C.Rewrite.rewriting_to_string r))
  in
  Arg.(
    value & opt rewriting_conv C.Rewrite.GMS
    & info [ "strategy"; "s" ] ~docv:"S" ~doc:"Rewriting: gms, gsms, gc or gsc.")

let semijoin_arg =
  Arg.(value & flag & info [ "semijoin" ] ~doc:"Apply the Section 8 semijoin optimization.")

let no_simplify_arg =
  Arg.(value & flag & info [ "no-simplify" ] ~doc:"Emit the unsimplified construction.")

let rewrite_cmd =
  let run file (_, sip) strategy semijoin no_simplify =
    let program, query, _ = load file in
    let options = { C.Rewrite.sip; simplify = not no_simplify; semijoin } in
    let rw = rewrite_or_exit "rewrite" ~options strategy program query in
    Fmt.pr "%a@." C.Rewritten.pp rw
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Rewrite the program for its query (Sections 4-8) and print the result.")
    (T.app
       (T.app
          (T.app (T.app (T.app (T.const run) file_arg) sip_arg) strategy_arg)
          semijoin_arg)
       no_simplify_arg)

let safety_cmd =
  let run file (_, sip) =
    let program, query, _ = load file in
    let ad = C.Adorn.adorn ~strategy:sip program query in
    let report = C.Safety.analyze ad in
    Fmt.pr "%a@." C.Safety.pp_report report;
    List.iter
      (fun (arc : C.Safety.binding_arc) ->
        Fmt.pr "binding arc %s_%s -> %s_%s [rule %d, literal %d]: length %a@."
          (fst arc.C.Safety.src)
          (C.Adornment.to_string (snd arc.C.Safety.src))
          (fst arc.C.Safety.dst)
          (C.Adornment.to_string (snd arc.C.Safety.dst))
          arc.C.Safety.rule_index arc.C.Safety.body_position C.Safety.Len.pp
          arc.C.Safety.length)
      (C.Safety.binding_graph ad)
  in
  Cmd.v
    (Cmd.info "safety" ~doc:"Binding-graph safety analysis (Section 10).")
    (T.app (T.app (T.const run) file_arg) sip_arg)

let check_cmd =
  let run file (_, sip) strategy list_codes cost =
    if list_codes then begin
      (* grouped by pass of origin, in pipeline order *)
      let origins =
        List.fold_left
          (fun acc (_, _, _, origin) ->
            if List.mem origin acc then acc else acc @ [ origin ])
          [] Analysis.codes
      in
      List.iter
        (fun origin ->
          Fmt.pr "%s:@." origin;
          List.iter
            (fun (code, sev, doc, o) ->
              if o = origin then
                Fmt.pr "  %s  %-7s  %s@." code
                  (Analysis.Diagnostic.severity_string sev)
                  doc)
            Analysis.codes)
        origins
    end
    else begin
      let file =
        match file with
        | Some f -> f
        | None ->
          Fmt.epr "magic check: a FILE argument is required (or use --codes)@.";
          exit 2
      in
      let src = read_source file in
      let rewritings =
        match strategy with None -> Analysis.all_rewritings | Some s -> [ s ]
      in
      let ds = Analysis.check_text ~sip ~rewritings src in
      render_diagnostics ~src ~file ds;
      Fmt.pr "%s: %a@." file Analysis.Diagnostic.summary ds;
      if Analysis.Diagnostic.has_errors ds then exit 1;
      if cost then begin
        (* clean program: estimate and rank the evaluation strategies *)
        let program, query, db = load file in
        let choice = Analysis.choose_strategy ~db program query in
        Fmt.pr "%a@." Analysis.Pass_cost.pp_report choice
      end
    end
  in
  let strategy_opt =
    let rewriting_conv =
      let parse s =
        match C.Rewrite.rewriting_of_string s with
        | Some r -> Stdlib.Ok r
        | None -> Stdlib.Error (`Msg (Fmt.str "unknown strategy %S" s))
      in
      Arg.conv (parse, fun ppf r -> Fmt.string ppf (C.Rewrite.rewriting_to_string r))
    in
    Arg.(
      value
      & opt (some rewriting_conv) None
      & info [ "strategy"; "s" ] ~docv:"S"
          ~doc:"Lint the rewritten program of this strategy only (gms, gsms, \
                gc or gsc); default is all four.")
  in
  let list_codes_arg =
    Arg.(
      value & flag
      & info [ "codes" ] ~doc:"List the diagnostic codes grouped by pass and exit.")
  in
  let cost_arg =
    Arg.(
      value & flag
      & info [ "cost" ]
          ~doc:"After a clean check, print the cost analysis: estimated \
                cardinalities, probes and rounds for every candidate \
                evaluation strategy, ranked.")
  in
  let opt_file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Datalog source file.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically analyze a source file: safety, stratification, sips, \
             lints and rewrite invariants; exit 1 when any error is found.")
    (T.app
       (T.app (T.app (T.app (T.app (T.const run) opt_file_arg) sip_arg) strategy_opt)
          list_codes_arg)
       cost_arg)

let method_names = String.concat ", " (List.map fst C.Rewrite.methods)

let method_conv =
  let parse s =
    match List.assoc_opt s C.Rewrite.methods with
    | Some m -> Stdlib.Ok (s, m)
    | None ->
      Stdlib.Error
        (`Msg
           (Fmt.str "unknown method %S (expected one of %s)" s
              method_names))
  in
  Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)

(* after the rows are printed: name each method whose status is not ok
   on stderr, and exit 1 if there is one *)
let exit_unless_ok cmd results =
  let failed = List.filter (fun (_, r) -> r.C.Rewrite.status <> C.Rewrite.Ok) results in
  List.iter
    (fun (name, r) ->
      Fmt.epr "magic %s: %s ended in status %s@." cmd name
        (C.Rewrite.status_name r.C.Rewrite.status))
    failed;
  if failed <> [] then exit 1

let eval_cmd =
  let run file (name, method_) max_facts json =
    let program, query, edb = load file in
    (* "auto": cost-based selection over the measured EDB *)
    let name, method_, cost =
      match method_ with
      | Some m -> (name, m, None)
      | None ->
        let choice = Analysis.choose_strategy ~db:edb program query in
        let w = choice.Analysis.Pass_cost.winner in
        if not json then
          Fmt.pr "%% auto selected %s (score %.3g, est_facts %.3g, est_probes %.3g)@."
            w.Analysis.Pass_cost.name w.Analysis.Pass_cost.score
            w.Analysis.Pass_cost.est_facts w.Analysis.Pass_cost.est_probes;
        ( "auto:" ^ w.Analysis.Pass_cost.name,
          w.Analysis.Pass_cost.method_,
          Some (w.Analysis.Pass_cost.est_facts, w.Analysis.Pass_cost.est_probes) )
    in
    let r, time_s =
      timed (fun () -> C.Rewrite.run ~max_facts method_ program query ~edb)
    in
    if json then
      Fmt.pr "%s@."
        (Engine.Json_out.result_row
           ~workload:(Filename.basename file)
           ~meth:name
           ~status:(C.Rewrite.status_name r.C.Rewrite.status)
           ?cost r.C.Rewrite.stats ~time_s
           ~answers:(List.length r.C.Rewrite.answers))
    else begin
      List.iter (fun t -> Fmt.pr "%a@." Engine.Tuple.pp t) r.C.Rewrite.answers;
      Fmt.pr "%% method=%s status=%s %a@." name
        (C.Rewrite.status_name r.C.Rewrite.status
        ^
        match r.C.Rewrite.status with
        | C.Rewrite.Unsafe m | C.Rewrite.Inapplicable m -> ": " ^ m
        | C.Rewrite.Ok | C.Rewrite.Diverged -> "")
        Engine.Stats.pp r.C.Rewrite.stats
    end;
    exit_unless_ok "eval" [ (name, r) ]
  in
  let eval_method_conv =
    let parse s =
      if s = "auto" then Stdlib.Ok ("auto", None)
      else
        match List.assoc_opt s C.Rewrite.methods with
        | Some m -> Stdlib.Ok (s, Some m)
        | None ->
          Stdlib.Error
            (`Msg
               (Fmt.str "unknown method %S (expected auto or one of %s)" s
                  method_names))
    in
    Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)
  in
  let method_arg =
    Arg.(
      value
      & opt eval_method_conv ("gms", Some (List.assoc "gms" C.Rewrite.methods))
      & info [ "method"; "m"; "strategy" ] ~docv:"M"
          ~doc:
            ("Evaluation method: " ^ method_names
           ^ " — or auto to let the cost analysis pick from the EDB statistics."))
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate the query with one method and print the answers; exit 1 unless the \
          status is ok.")
    (T.app
       (T.app (T.app (T.app (T.const run) file_arg) method_arg) max_facts_arg)
       json_arg)

(* A rewritten program derives the original query predicate's facts
   under the rewritten query's predicate: [path(a, b)] is [path_bf(a, b)]
   under gms.  A counting rewrite adds index fields (and its semijoin form
   may drop bound arguments), so no fact maps over: name the predicate
   to ask for instead, and exit 1. *)
let as_rewritten ~meth query (rw : C.Rewritten.t) (fact : Atom.t) =
  let target = rw.C.Rewritten.query in
  if not (Symbol.equal (Atom.symbol fact) (Atom.symbol query)) then fact
  else if rw.C.Rewritten.index_fields = 0 && rw.C.Rewritten.restore = [] then
    Atom.make target.Atom.pred fact.Atom.args
  else begin
    Fmt.epr
      "magic explain: under -m %s, %a is derived as %a, with %d counting-index \
       arguments%s; explain a fact of %s instead@."
      meth Atom.pp fact Symbol.pp (Atom.symbol target) rw.C.Rewritten.index_fields
      (if rw.C.Rewritten.restore = [] then "" else " and without its bound arguments")
      target.Atom.pred;
    exit 1
  end

let explain_cmd =
  let run file (name, method_) max_facts fact_str =
    let program, query, edb = load file in
    let fact = Parser.parse_atom fact_str in
    (* a diverged evaluation has no fixpoint to explain, and replaying it
       would diverge again: counting over cyclic data and other unbounded
       programs exhaust the fact budget, arithmetic may overflow *)
    let diverged () =
      Fmt.epr "magic explain: the %s evaluation diverged; no derivation to explain@." name;
      exit 1
    in
    (* evaluate with the chosen method, then reconstruct a derivation over
       the program that actually ran (original or rewritten + seeds) *)
    let explain_program, out, fact =
      match method_ with
      | C.Rewrite.Original _ | C.Rewrite.Top_down _ ->
        (program, Engine.Eval.seminaive ~max_facts program ~edb, fact)
      | C.Rewrite.Rewritten_bottom_up (rewriting, options) ->
        let rw = rewrite_or_exit "explain" ~options rewriting program query in
        let fact = as_rewritten ~meth:name query rw fact in
        ( Program.make
            (Program.rules rw.C.Rewritten.program
            @ List.map Rule.fact rw.C.Rewritten.seeds),
          C.Rewritten.run ~max_facts rw ~edb,
          fact )
    in
    if out.Engine.Eval.diverged then diverged ();
    match Engine.Explain.derive explain_program out.Engine.Eval.db fact with
    | exception Term.Arithmetic_overflow -> diverged ()
    | Some tree -> Fmt.pr "%a@." Engine.Explain.pp tree
    | None ->
      Fmt.epr "%a has no derivation@." Atom.pp fact;
      exit 1
  in
  let method_arg =
    Arg.(
      value
      & opt method_conv ("seminaive", List.assoc "seminaive" C.Rewrite.methods)
      & info [ "method"; "m" ] ~docv:"M" ~doc:"Program to explain over.")
  in
  let fact_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FACT" ~doc:"Ground fact.")
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Print a derivation tree for a ground fact.")
    (T.app (T.app (T.app (T.app (T.const run) file_arg) method_arg) max_facts_arg) fact_arg)

let compare_cmd =
  let run file max_facts strategy json =
    let program, query, edb = load file in
    (* the row set: every method by default, one named method, or the
       full set plus a cost-selected "auto:" row for side-by-side *)
    let rows_spec =
      match strategy with
      | None -> C.Rewrite.methods
      | Some "auto" ->
        let choice = Analysis.choose_strategy ~db:edb program query in
        let w = choice.Analysis.Pass_cost.winner in
        C.Rewrite.methods
        @ [ ("auto:" ^ w.Analysis.Pass_cost.name, w.Analysis.Pass_cost.method_) ]
      | Some name -> (
        match List.assoc_opt name C.Rewrite.methods with
        | Some m -> [ (name, m) ]
        | None ->
          Fmt.epr "magic compare: unknown strategy %S (expected auto or one of %s)@."
            name
            method_names;
          exit 2)
    in
    if not json then
      Fmt.pr "%-14s %-12s %8s %10s %10s %10s %8s@." "method" "status" "answers" "facts"
        "firings" "probes" "iters";
    let results =
      List.map
        (fun (name, method_) ->
          let r, time_s =
            timed (fun () -> C.Rewrite.run ~max_facts method_ program query ~edb)
          in
          if not json then
            Fmt.pr "%-14s %-12s %8d %10d %10d %10d %8d@." name
              (C.Rewrite.status_name r.C.Rewrite.status)
              (List.length r.C.Rewrite.answers)
              r.C.Rewrite.stats.Engine.Stats.facts r.C.Rewrite.stats.Engine.Stats.firings
              r.C.Rewrite.stats.Engine.Stats.probes r.C.Rewrite.stats.Engine.Stats.iterations;
          (name, r, time_s))
        rows_spec
    in
    if json then
      Fmt.pr "%s@."
        (Engine.Json_out.arr
           (List.map
              (fun (name, r, time_s) ->
                Engine.Json_out.result_row
                  ~workload:(Filename.basename file)
                  ~meth:name
                  ~status:(C.Rewrite.status_name r.C.Rewrite.status)
                  r.C.Rewrite.stats ~time_s
                  ~answers:(List.length r.C.Rewrite.answers))
              results));
    exit_unless_ok "compare" (List.map (fun (name, r, _) -> (name, r)) results)
  in
  let strategy_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy"; "s" ] ~docv:"S"
          ~doc:"Restrict to one method, or 'auto' to add a cost-selected row \
                next to the hand-picked ones.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run every method on the query and tabulate statistics; exit 1 unless every \
          status is ok.")
    (T.app (T.app (T.app (T.app (T.const run) file_arg) max_facts_arg) strategy_arg)
       json_arg)

let session_strategy_conv =
  let parse s =
    match Incr.Session.strategy_of_string s with
    | Some st -> Stdlib.Ok (s, st)
    | None ->
      Stdlib.Error
        (`Msg
           (Fmt.str
              "unknown session strategy %S (expected original, gms, gsms or auto)" s))
  in
  Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)

let db_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:"Durable session: open (or create) a binary snapshot + \
              write-ahead log store in DIR.  Reopening loads the snapshot \
              and replays the log suffix instead of re-evaluating; every \
              committed transaction is journaled (fsync) before it is \
              acknowledged.")

(* [f ()], with a store's located corruption diagnostic, or a fact
   budget the initial fixpoint exceeds, turned into an error message
   and exit 1 *)
let open_db cmd db f =
  match f () with
  | v -> v
  | exception Incr.Maintain.Budget_exhausted ->
    Fmt.epr "magic %s: fact budget exhausted (see --max-facts)@." cmd;
    exit 1
  | exception e -> (
    match Persist.Codec.explain e with
    | Some msg ->
      Fmt.epr "magic %s: cannot open db %s: %s@." cmd (Option.value db ~default:"") msg;
      exit 1
    | None -> raise e)

(* a session's JSON row: what a transaction or a seed install cost *)
let maint_row ~workload ~meth (s : Incr.Maintain.stats) ~time_s ~answers =
  let open Engine.Json_out in
  let int k v = field k (string_of_int v) in
  obj
    [
      field "workload" (str workload);
      field "method" (str meth);
      field "status" (str "ok");
      int "probes" s.Incr.Maintain.probes;
      int "overdeleted" s.Incr.Maintain.overdeleted;
      int "rederived" s.Incr.Maintain.rederived;
      int "delta_firings" s.Incr.Maintain.delta_firings;
      field "time_s" (Fmt.str "%.6f" time_s);
      int "answers" answers;
    ]

let session_cmd =
  let run file script_path (strategy_name, strategy) max_facts json db =
    let program, query, edb = load_lazy file in
    let items = load_script script_path in
    let store =
      open_db "session" db (fun () ->
          Persist.Store.open_or_create ~strategy ~max_facts ?dir:db program query ~edb)
    in
    let workload = Filename.basename script_path in
    let rows = ref [] in
    (match db with
    | Some dir when not json ->
      if Persist.Store.restored store then
        Fmt.pr "%% db %s reopened: %d wal records replayed@." dir
          (Persist.Store.replayed store)
      else Fmt.pr "%% db %s created@." dir
    | _ -> ());
    if (not json) && strategy = Incr.Session.Auto then
      Fmt.pr "%% session strategy=%s (auto)@."
        (Incr.Session.strategy_to_string
           (Incr.Session.strategy (Persist.Store.session store)));
    let pending = ref [] in
    let flush () =
      match List.rev !pending with
      | [] -> ()
      | ops ->
        pending := [];
        let stats, time_s = timed (fun () -> Persist.Store.update store ops) in
        if json then
          rows :=
            maint_row ~workload ~meth:("txn:" ^ strategy_name) stats ~time_s
              ~answers:(List.length ops)
            :: !rows
        else Fmt.pr "%% txn %d ops: %a@." (List.length ops) Incr.Maintain.pp_stats stats
    in
    let run_query q =
      flush ();
      let (answers, stats), time_s =
        timed (fun () ->
            try Persist.Store.query store q
            with Incr.Session.Incompatible_query _ ->
              (* the adornment differs: rebuild the session for the new
                 binding pattern over the current EDB state *)
              (Incr.Session.answers (Persist.Store.reset store q), Incr.Maintain.no_stats))
      in
      if json then
        rows :=
          maint_row ~workload ~meth:("query:" ^ strategy_name) stats ~time_s
            ~answers:(List.length answers)
          :: !rows
      else begin
        List.iter (fun t -> Fmt.pr "%a@." Engine.Tuple.pp t) answers;
        Fmt.pr "%% query %a: %d answers %a@." Atom.pp q (List.length answers)
          Incr.Maintain.pp_stats stats
      end
    in
    (try
       List.iter
         (function
           | Incr.Script.Assert a -> pending := Incr.Maintain.Insert a :: !pending
           | Incr.Script.Retract a -> pending := Incr.Maintain.Delete a :: !pending
           | Incr.Script.Query q -> run_query q)
         items;
       flush ();
       (* final checkpoint; on the error path below the disk already
          holds every acknowledged commit (journal-after-apply) *)
       Persist.Store.close store
     with Incr.Maintain.Budget_exhausted ->
       Fmt.epr "magic session: fact budget exhausted (see --max-facts)@.";
       exit 1);
    if json then Fmt.pr "%s@." (Engine.Json_out.arr (List.rev !rows))
  in
  let script_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "script" ] ~docv:"UPDATES"
          ~doc:"Update script: lines of '+fact.', '-fact.' and '? query.'.")
  in
  let strategy_arg =
    Arg.(
      value
      & opt session_strategy_conv ("gms", Incr.Session.GMS)
      & info [ "strategy"; "s" ] ~docv:"S"
          ~doc:"Session strategy: original, gms, gsms — or auto to pick \
                between gms and gsms from the EDB statistics (counting \
                strategies have query-specific indices and cannot be \
                maintained).")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Keep one materialized (optionally magic-rewritten) program and run an \
             update script against it: transactions repair the derived relations \
             incrementally, and compatible new queries only install new seed facts.")
    (T.app
       (T.app
          (T.app
             (T.app (T.app (T.app (T.const run) file_arg) script_arg) strategy_arg)
             max_facts_arg)
          json_arg)
       db_arg)

(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on (or connect to) a Unix-domain socket.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:"Listen on (or connect to) TCP port N on 127.0.0.1; 0 picks an \
              ephemeral port when serving.")

let serve_cmd =
  let run file (_, strategy) max_facts socket port jobs db =
    let listen =
      match (socket, port) with
      | Some path, None -> Server.Daemon.Unix_path path
      | None, Some p -> Server.Daemon.Tcp p
      | Some _, Some _ ->
        Fmt.epr "magic serve: --socket and --port are mutually exclusive@.";
        exit 2
      | None, None ->
        Fmt.epr "magic serve: one of --socket PATH or --port N is required@.";
        exit 2
    in
    let program, query, edb = load_lazy file in
    let registry =
      open_db "serve" db (fun () ->
          Server.Registry.create ~strategy ~max_facts ?db program query ~edb)
    in
    Fmt.pr "%% serve strategy=%s jobs=%d%s@."
      (Incr.Session.strategy_to_string (Server.Registry.session_strategy registry))
      jobs
      (match db with Some d -> " db=" ^ d | None -> "");
    Server.Daemon.run ~jobs
      ~on_ready:(fun addr ->
        match addr with
        | Unix.ADDR_UNIX p -> Fmt.pr "%% listening on %s@." p
        | Unix.ADDR_INET (_, p) -> Fmt.pr "%% listening on 127.0.0.1:%d@." p)
      listen registry;
    (* the accept loop has exited (protocol shutdown): flush the store *)
    Server.Registry.close registry
  in
  let strategy_arg =
    Arg.(
      value
      & opt session_strategy_conv ("auto", Incr.Session.Auto)
      & info [ "strategy"; "s" ] ~docv:"S"
          ~doc:"Session strategy for the warm materialization: original, gms, \
                gsms or auto (the default: cost-selected from the EDB \
                statistics).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Reader pool width: how many client connections are served \
                concurrently (0 = serve one connection at a time).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Warm a magic session for the file's query and serve the \
             line-oriented JSON protocol over a socket: concurrent reads \
             against epoch-stamped snapshots, serialized transactions, an \
             adornment-keyed answer cache (see DESIGN.md).")
    (T.app
       (T.app
          (T.app
             (T.app
                (T.app (T.app (T.app (T.const run) file_arg) strategy_arg)
                   max_facts_arg)
                socket_arg)
             port_arg)
          jobs_arg)
       db_arg)

let client_cmd =
  let run socket port script_path stats shutdown =
    let client =
      match (socket, port) with
      | Some path, None -> Server.Client.unix path
      | None, Some p -> Server.Client.tcp p
      | _ ->
        Fmt.epr "magic client: exactly one of --socket PATH or --port N is required@.";
        exit 2
    in
    let items =
      match script_path with
      | Some path -> load_script path
      | None -> (
        let src = In_channel.input_all stdin in
        match Incr.Script.parse_spanned src with
        | Stdlib.Ok items -> items
        | Stdlib.Error { Incr.Script.message; span } ->
          render_diagnostics ~src ~file:"<stdin>"
            [
              Analysis.Diagnostic.error ~code:"E110" ~span
                ("script error: " ^ message);
            ];
          exit 1)
    in
    let failed = ref false in
    let handle = function
      | Server.Protocol.Error { code; message } ->
        failed := true;
        Fmt.epr "%% error %s: %s@." (Server.Protocol.code_string code) message
      | Server.Protocol.Answers { epoch; cache_hit; answers; time_s } ->
        List.iter
          (fun row -> Fmt.pr "(%s)@." (String.concat ", " row))
          answers;
        Fmt.pr "%% %d answers epoch=%d cache=%s %.3fms@." (List.length answers)
          epoch
          (if cache_hit then "hit" else "miss")
          (time_s *. 1e3)
      | Server.Protocol.Committed { epoch; ops; time_s } ->
        Fmt.pr "%% committed %d ops epoch=%d %.3fms@." ops epoch (time_s *. 1e3)
      | Server.Protocol.Stats_reply fields ->
        List.iter (fun (k, v) -> Fmt.pr "%% %s = %s@." k v) fields
      | Server.Protocol.Shutdown_ack -> Fmt.pr "%% server shut down@."
    in
    let pending = ref [] in
    let flush () =
      match List.rev !pending with
      | [] -> ()
      | ops ->
        pending := [];
        handle (Server.Client.request client (Server.Protocol.Txn ops))
    in
    List.iter
      (function
        | Incr.Script.Assert a -> pending := Incr.Maintain.Insert a :: !pending
        | Incr.Script.Retract a -> pending := Incr.Maintain.Delete a :: !pending
        | Incr.Script.Query q ->
          flush ();
          handle (Server.Client.request client (Server.Protocol.Query q)))
      items;
    flush ();
    if stats then handle (Server.Client.request client Server.Protocol.Stats);
    if shutdown then
      handle (Server.Client.request client Server.Protocol.Shutdown);
    Server.Client.close client;
    if !failed then exit 1
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"UPDATES"
          ~doc:"Update script of '+fact.', '-fact.' and '? query.' lines; \
                read from stdin when omitted.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Request daemon statistics after the script.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to shut down at the end.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Run an update script against a magic serve daemon: consecutive \
             +/- lines form one transaction, queries are served from the \
             daemon's snapshots.  Exits nonzero if any request was answered \
             with a protocol error.")
    (T.app
       (T.app (T.app (T.app (T.app (T.const run) socket_arg) port_arg) script_arg)
          stats_arg)
       shutdown_arg)

let () =
  let doc = "magic-sets rewriting of recursive Datalog queries (Beeri & Ramakrishnan)" in
  let info = Cmd.info "magic" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd;
            adorn_cmd;
            rewrite_cmd;
            safety_cmd;
            eval_cmd;
            explain_cmd;
            compare_cmd;
            session_cmd;
            serve_cmd;
            client_cmd;
          ]))
