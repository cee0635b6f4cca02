(* Static analysis of Datalog programs: a multi-pass pipeline producing
   source-located diagnostics.

   Program-level passes (arity consistency, range restriction,
   stratification, reachability, singleton lints) always run.  When a
   query is present the adorned-level passes run on top: sip validity and
   per-adornment head bindability, the Section 10 safety report, and the
   rewrite-invariant linter over each requested strategy.  Adorned passes
   are skipped as soon as a program-level error is found — adornment of a
   broken program would only raise. *)

open Datalog
module C = Magic_core
module Diagnostic = Diagnostic
module Ctx = Ctx
module Pass_safety = Pass_safety
module Pass_deps = Pass_deps
module Pass_lints = Pass_lints
module Pass_sip = Pass_sip
module Pass_card = Pass_card
module Pass_cost = Pass_cost
module Rewrite_lint = Rewrite_lint
module Footprint = Footprint

let all_rewritings = [ C.Rewrite.GMS; C.Rewrite.GSMS; C.Rewrite.GC; C.Rewrite.GSC ]

(* [Parser.split_facts], but returning a map from the fact-free program's
   rule indices back to the parsed program's clause indices, so adorned
   diagnostics can find their source spans *)
let split_with_indices program =
  let rules = Program.rules program in
  let extensional = Parser.is_extensional (Parser.rule_heads rules) in
  let proper = ref [] in
  List.iteri (fun i r -> if not (extensional r) then proper := (i, r) :: !proper) rules;
  let proper = List.rev !proper in
  let orig = Array.of_list (List.map fst proper) in
  ( Program.make (List.map snd proper),
    fun i -> if i >= 0 && i < Array.length orig then orig.(i) else i )

let section10 ctx (report : C.Safety.report) =
  let span = Ctx.query_span ctx in
  let w050 =
    if report.C.Safety.magic_safe then []
    else
      [
        Diagnostic.warning ~code:"W050" ~span
          "the binding graph has a cycle of non-positive length: the magic \
           rewritings of this non-Datalog program may not terminate \
           (Section 10)";
      ]
  in
  let w051 =
    if not report.C.Safety.counting_statically_diverges then []
    else
      [
        Diagnostic.warning ~code:"W051" ~span
          "the bound-argument graph is cyclic: counting indices can grow \
           without bound on cyclic data, so the counting rewritings may \
           diverge (Section 10)";
      ]
  in
  w050 @ w051

let query_checks ctx ~sip ~rewritings =
  match ctx.Ctx.query with
  | None -> []
  | Some q ->
    let idb, orig_of = split_with_indices ctx.Ctx.program in
    if not (Program.is_derived idb (Atom.symbol q)) then []
    else begin
      match C.Adorn.adorn ~strategy:sip idb q with
      | exception Invalid_argument msg ->
        [ Diagnostic.error ~code:"E030" ~span:(Ctx.query_span ctx) msg ]
      | ad ->
        let sip_diags = Pass_sip.run ctx ~orig_of ad in
        let safety_diags = section10 ctx (C.Safety.analyze ad) in
        let rewrite_diags =
          if Diagnostic.has_errors sip_diags then []
          else
            List.concat_map
              (fun strategy ->
                let tag = C.Rewrite.rewriting_to_string strategy in
                let options =
                  { C.Rewrite.default_options with C.Rewrite.sip }
                in
                match C.Rewrite.rewrite ~options strategy idb q with
                | exception C.Counting.Inapplicable msg ->
                  (* the strategy rejects the program (e.g. counting needs
                     indices to flow from the query): inapplicable, not broken *)
                  [
                    Diagnostic.warning ~code:"W030" ~span:(Ctx.query_span ctx)
                      (Fmt.str "%s rewriting is inapplicable: %s" tag msg);
                  ]
                | exception exn ->
                  [
                    Diagnostic.error ~code:"E049" ~span:(Ctx.query_span ctx)
                      (Fmt.str "%s rewriting failed: %s" tag
                         (Printexc.to_string exn));
                  ]
                | rw ->
                  List.map
                    (fun (d : Diagnostic.t) ->
                      { d with Diagnostic.message = tag ^ ": " ^ d.Diagnostic.message })
                    (Rewrite_lint.check rw))
              rewritings
        in
        sip_diags @ safety_diags @ rewrite_diags
    end

let check ?srcmap ?(sip = C.Sip.full_left_to_right) ?(rewritings = all_rewritings)
    ?query program =
  let ctx = Ctx.make ?srcmap ?query program in
  let program_diags =
    Pass_lints.arities ctx @ Pass_safety.run ctx @ Pass_deps.run ctx
    @ Pass_lints.singletons ctx
  in
  let adorned_diags =
    if Diagnostic.has_errors program_diags then []
    else query_checks ctx ~sip ~rewritings
  in
  Diagnostic.sort (program_diags @ adorned_diags)

let check_text ?(sip = C.Sip.full_left_to_right) ?(rewritings = all_rewritings)
    text =
  match Parser.parse_program_spanned text with
  | Error { Parser.message; span } ->
    [ Diagnostic.error ~code:"E100" ~span ("syntax error: " ^ message) ]
  | Ok (program, query, srcmap) -> check ~srcmap ~sip ~rewritings ?query program

let preflight ?srcmap ?query program =
  Diagnostic.errors (check ?srcmap ~rewritings:[] ?query program)

(* strategy selection (Pass_cost over Pass_card) *)

type choice = Pass_cost.t

let choose_strategy = Pass_cost.choose

let choose_session_strategy ?db program query =
  let c = Pass_cost.choose ?db ~only:[ "gms"; "gsms" ] program query in
  match c.Pass_cost.winner.Pass_cost.name with
  | "gsms" -> (`GSMS, c)
  | _ -> (`GMS, c)

(* the registry: (code, severity, one-line summary, pass of origin) *)
let codes : (string * Diagnostic.severity * string * string) list =
  [
    ("E100", Diagnostic.Error, "syntax error", "parser");
    ("E020", Diagnostic.Error, "predicate used with inconsistent arities", "pass_lints");
    ("W020", Diagnostic.Warning, "singleton variable", "pass_lints");
    ("W021", Diagnostic.Warning, "'_'-prefixed variable occurs more than once", "pass_lints");
    ("E001", Diagnostic.Error, "variable of a negated literal is not range-restricted", "pass_safety");
    ("E002", Diagnostic.Error, "comparison or equality over a variable that is never bound", "pass_safety");
    ("W001", Diagnostic.Warning, "head variable not bound by the positive body", "pass_safety");
    ("E010", Diagnostic.Error, "negation through recursion (not stratifiable)", "pass_deps");
    ("W010", Diagnostic.Warning, "dead rule: unreachable from the query", "pass_deps");
    ("W011", Diagnostic.Warning, "predicate defined but never used", "pass_deps");
    ("E003", Diagnostic.Error, "head variable unbindable under the query's binding pattern", "pass_sip");
    ("E030", Diagnostic.Error, "invalid sideways information passing graph", "pass_sip");
    ("E031", Diagnostic.Error, "sip arc draws bindings from a later literal", "pass_sip");
    ("W050", Diagnostic.Warning, "magic rewriting may not terminate (Section 10)", "section10");
    ("W051", Diagnostic.Warning, "counting indices may diverge (Section 10)", "section10");
    ("E040", Diagnostic.Error, "rewritten program: inconsistent predicate arity", "rewrite_lint");
    ("E041", Diagnostic.Error, "rewritten program: generated predicate never defined or seeded", "rewrite_lint");
    ("E042", Diagnostic.Error, "rewritten program: generated predicate arity contradicts its role", "rewrite_lint");
    ("E043", Diagnostic.Error, "rewritten program: malformed counting index term", "rewrite_lint");
    ("E044", Diagnostic.Error, "rewritten program: missing or ill-formed magic seed", "rewrite_lint");
    ("E045", Diagnostic.Error, "rewritten program: negated literal lost range restriction", "rewrite_lint");
    ("E046", Diagnostic.Error, "rewritten program: not stratifiable", "rewrite_lint");
    ("E047", Diagnostic.Error, "rewritten program: modified rule lacks its magic guard", "rewrite_lint");
    ("E049", Diagnostic.Error, "rewriting aborted with an internal error", "driver");
    ("W030", Diagnostic.Warning, "rewriting strategy inapplicable to this program", "driver");
    ("W060", Diagnostic.Warning, "recursive cardinality estimate widened (coarse ranking)", "pass_card");
    ("W061", Diagnostic.Warning, "no extensional statistics: symbolic cost estimates", "pass_card");
    ("W062", Diagnostic.Warning, "query bindings unrestrictive: direct evaluation selected", "pass_cost");
  ]
