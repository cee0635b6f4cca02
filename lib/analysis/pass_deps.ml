(* Dependency-graph pass: stratification and reachability diagnostics. *)

open Datalog

let pred_name (s : Symbol.t) = s.Symbol.name

let stratification ctx g =
  match Depgraph.negative_cycle g with
  | None -> []
  | Some { Depgraph.cycle; through } ->
    let span = Ctx.lit_span ctx through.Depgraph.rule_index through.Depgraph.body_position in
    let cycle_str = String.concat " -> " (List.map pred_name cycle) in
    [
      Diagnostic.error ~code:"E010" ~span
        (Fmt.str
           "negation through recursion: '%s' depends negatively on '%s', \
            which depends back on '%s'; the program is not stratifiable"
           (pred_name through.Depgraph.src)
           (pred_name through.Depgraph.dst)
           (pred_name through.Depgraph.src))
      |> Diagnostic.add_note (Fmt.str "cycle: %s" cycle_str);
    ]

let reachability ctx g =
  match ctx.Ctx.query with
  | None -> []
  | Some q ->
    let qsym = Atom.symbol q in
    let reach = Depgraph.reachable g [ qsym ] in
    let rules = Program.rules ctx.Ctx.program in
    let dead =
      Ctx.concat_rules ctx (fun i (r : Rule.t) ->
          let h = Atom.symbol r.Rule.head in
          if Rule.is_fact r || Symbol.Set.mem h reach then []
          else
            [
              Diagnostic.warning ~code:"W010" ~span:(Ctx.rule_span ctx i)
                (Fmt.str
                   "dead rule: predicate '%s' is not reachable from the \
                    query '%a'"
                   (pred_name h) Atom.pp q);
            ])
    in
    (* derived predicates referenced by no body and distinct from the query *)
    let used_in_bodies =
      List.fold_left
        (fun s (e : Depgraph.edge) -> Symbol.Set.add e.Depgraph.dst s)
        Symbol.Set.empty (Depgraph.edges g)
    in
    let first_def sym =
      let rec go i = function
        | [] -> Loc.dummy
        | (r : Rule.t) :: rest ->
          if Symbol.equal (Atom.symbol r.Rule.head) sym then Ctx.head_span ctx i
          else go (i + 1) rest
      in
      go 0 rules
    in
    let unused =
      Symbol.Set.fold
        (fun sym acc ->
          if Symbol.equal sym qsym || Symbol.Set.mem sym used_in_bodies then acc
          else
            Diagnostic.warning ~code:"W011" ~span:(first_def sym)
              (Fmt.str
                 "predicate '%s' is defined but never used and is not the query"
                 (pred_name sym))
            :: acc)
        (Depgraph.derived g) []
    in
    dead @ List.rev unused

let run (ctx : Ctx.t) =
  let g = Program.depgraph ctx.Ctx.program in
  stratification ctx g @ reachability ctx g
