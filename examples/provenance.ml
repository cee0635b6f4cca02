(* Provenance: derivation trees.

   The paper grounds everything in derivation trees (Section 1.1).  This
   example evaluates the rewritten ancestor program and explains an
   answer and a magic fact — the latter shows the sip passes that
   produced a subquery. *)

open Datalog
module C = Magic_core

let () =
  let program = Workload.Programs.ancestor in
  let query = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 6) in

  let adorned = C.Adorn.adorn program query in
  let rw = C.Magic_sets.rewrite adorned in
  let out = C.Rewritten.run rw ~edb in

  (* explain over the rewritten program (seeds become unit rules) *)
  let seeded =
    Program.make
      (Program.rules rw.C.Rewritten.program
      @ List.map Rule.fact rw.C.Rewritten.seeds)
  in
  let explain what =
    let fact = Parser.parse_atom what in
    match Engine.Explain.derive seeded out.Engine.Eval.db fact with
    | Some tree ->
      assert (Engine.Explain.check seeded out.Engine.Eval.db tree);
      Fmt.pr "--- derivation of %s (depth %d, %d nodes) ---@.%a@.@." what
        (Engine.Explain.depth tree) (Engine.Explain.size tree) Engine.Explain.pp tree
    | None -> Fmt.pr "%s has no derivation@." what
  in
  explain "a_bf(n_0, n_3)";
  (* the magic fact's derivation is the chain of sideways passes that
     generated the subquery "ancestors of n_2?" *)
  explain "magic_a_bf(n_2)"
