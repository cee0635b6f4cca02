(* Same generation: the paper's running example (Example 1).

   The nonlinear same-generation program cannot be handled by the
   original magic-sets or counting algorithms; the generalized versions
   rewrite it.  We generate up/flat/down grid data, compare all
   evaluation methods, and contrast the full sip (IV) with the partial
   sip (V) — the full sip computes a subset of the facts (Lemma 9.3). *)

open Datalog
module C = Magic_core

let () =
  let program = Workload.Programs.nonlinear_same_generation in
  let facts = Workload.Generate.same_generation ~width:12 ~height:8 in
  let edb = Engine.Database.of_facts facts in
  let query = Workload.Programs.same_generation_query (Term.Sym "sg_0_0") in

  Fmt.pr "program:@.%a@.query: ?- %a.@.data: %d facts@.@." Program.pp program Atom.pp
    query (List.length facts);

  (* all methods, side by side *)
  Fmt.pr "%-10s %-9s %8s %8s %9s@." "method" "status" "answers" "facts" "probes";
  List.iter
    (fun (name, method_) ->
      let r = C.Rewrite.run ~max_facts:2_000_000 method_ program query ~edb in
      Fmt.pr "%-10s %-9s %8d %8d %9d@." name
        (C.Rewrite.status_name r.C.Rewrite.status)
        (List.length r.C.Rewrite.answers)
        r.C.Rewrite.stats.Engine.Stats.facts r.C.Rewrite.stats.Engine.Stats.probes)
    C.Rewrite.methods;

  (* full sip (IV) vs partial chain sip (V): Lemma 9.3 *)
  let run_with sip =
    let options = { C.Rewrite.default_options with C.Rewrite.sip } in
    C.Rewrite.run (C.Rewrite.Rewritten_bottom_up (C.Rewrite.GMS, options)) program query
      ~edb
  in
  let full = run_with C.Sip.full_left_to_right in
  let partial = run_with C.Sip.chain_left_to_right in
  Fmt.pr "@.full sip (IV):    %d facts@.partial sip (V): %d facts@."
    full.C.Rewrite.stats.Engine.Stats.facts partial.C.Rewrite.stats.Engine.Stats.facts;
  assert (full.C.Rewrite.answers = partial.C.Rewrite.answers);
  assert (
    full.C.Rewrite.stats.Engine.Stats.facts <= partial.C.Rewrite.stats.Engine.Stats.facts)
