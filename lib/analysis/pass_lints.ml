(* Structural lints: arity consistency and singleton variables. *)

open Datalog

(* E020 — every occurrence of a predicate name must agree on arity.
   Occurrences are visited in source order (head, then body literals, then
   the query) so the diagnostic lands on the later, conflicting use and
   the note points back at the first one. *)
let arities (ctx : Ctx.t) =
  let first : (string, int * Loc.t) Hashtbl.t = Hashtbl.create 16 in
  let diags = ref [] in
  let visit what (a : Atom.t) span =
    if not (Atom.is_builtin a) then
      let arity = Atom.arity a in
      match Hashtbl.find_opt first a.Atom.pred with
      | None -> Hashtbl.replace first a.Atom.pred (arity, span)
      | Some (arity0, span0) when arity0 <> arity ->
        diags :=
          (Diagnostic.error ~code:"E020" ~span
             (Fmt.str "%s '%s' has arity %d here but arity %d elsewhere" what
                a.Atom.pred arity arity0)
          |> Diagnostic.add_note ~span:span0
               (Fmt.str "first used with arity %d" arity0))
          :: !diags
      | Some _ -> ()
  in
  List.iteri
    (fun i (r : Rule.t) ->
      visit "predicate" r.Rule.head (Ctx.head_span ctx i);
      List.iteri
        (fun j lit -> visit "predicate" (Rule.atom_of_literal lit) (Ctx.lit_span ctx i j))
        r.Rule.body)
    (Program.rules ctx.Ctx.program);
  Option.iter (fun q -> visit "query predicate" q (Ctx.query_span ctx)) ctx.Ctx.query;
  List.rev !diags

(* W020 — a variable used exactly once in a rule is usually a typo; name
   it with a leading underscore (the parser generates such names for [_]
   and [?]) to silence the lint.  W021 is the converse: an
   underscore-prefixed name that the rule does join on. *)
let singletons (ctx : Ctx.t) =
  let check_rule i (r : Rule.t) =
    let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let rec count (t : Term.t) =
      match t with
      | Term.Var v ->
        Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
      | Term.Int _ | Term.Sym _ -> ()
      | Term.App (_, ts) -> List.iter count ts
      | Term.Add (a, b) | Term.Mul (a, b) | Term.Div (a, b) ->
        count a;
        count b
    in
    let atoms = r.Rule.head :: Rule.body_atoms r in
    List.iter (fun (a : Atom.t) -> List.iter count a.Atom.args) atoms;
    let span_of v =
      (* first atom mentioning the variable: head, else a body literal *)
      if List.mem v (Atom.vars r.Rule.head) then Ctx.head_span ctx i
      else
        let rec go j = function
          | [] -> Ctx.rule_span ctx i
          | lit :: rest ->
            if List.mem v (Atom.vars (Rule.atom_of_literal lit)) then
              Ctx.lit_span ctx i j
            else go (j + 1) rest
        in
        go 0 r.Rule.body
    in
    (* report in first-occurrence order for stable output *)
    List.filter_map
      (fun v ->
        match Hashtbl.find_opt counts v with
        | Some 1 when String.length v > 0 && v.[0] <> '_' ->
          Some
            (Diagnostic.warning ~code:"W020" ~span:(span_of v)
               (Fmt.str
                  "variable '%s' occurs only once in the rule; prefix it with \
                   '_' if that is intended"
                  v))
        | Some n when n > 1 && String.length v > 1 && v.[0] = '_' ->
          Some
            (Diagnostic.warning ~code:"W021" ~span:(span_of v)
               (Fmt.str
                  "variable '%s' is spelled as unused ('_' prefix) but occurs \
                   %d times in the rule; drop the prefix if the join is \
                   intended"
                  v n))
        | _ -> None)
      (Rule.vars r)
  in
  Ctx.concat_rules ctx check_rule

let run (ctx : Ctx.t) = arities ctx @ singletons ctx
