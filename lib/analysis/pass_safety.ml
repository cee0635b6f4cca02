(* Range-restriction (safety) pass.

   The binding model matches the evaluation engine: positive non-builtin
   literals bind their variables; an equality binds one side once the
   other side is fully bound (unification), iterated to a fixpoint;
   comparisons bind nothing and require all their variables bound, and
   so does an equality neither side of which ever becomes bound. *)

open Datalog
module S = Set.Make (String)

let bindable_vars (r : Rule.t) =
  let positive = Rule.positive_body r in
  let base =
    List.concat_map Atom.vars
      (List.filter (fun a -> not (Atom.is_builtin a)) positive)
  in
  let bound = ref (S.of_list base) in
  let all_bound t = List.for_all (fun v -> S.mem v !bound) (Term.vars t) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a : Atom.t) ->
        match (a.pred, a.args) with
        | "=", [ l; rt ] ->
          let flow src dst =
            if all_bound src && not (all_bound dst) then begin
              bound := List.fold_left (fun s v -> S.add v s) !bound (Term.vars dst);
              changed := true
            end
          in
          flow l rt;
          flow rt l
        | _ -> ())
      positive
  done;
  !bound

let quote_vars vs = String.concat ", " (List.map (fun v -> "'" ^ v ^ "'") vs)

let plural = function [ _ ] -> "" | _ -> "s"

let check_rule ctx i (r : Rule.t) =
  let bound = bindable_vars r in
  let unrestricted vs = List.filter (fun v -> not (S.mem v bound)) vs in
  let negated =
    List.concat
      (List.mapi
         (fun j lit ->
           match lit with
           | Rule.Pos _ -> []
           | Rule.Neg a -> (
             match unrestricted (Atom.vars a) with
             | [] -> []
             | vs ->
               [
                 Diagnostic.error ~code:"E001"
                   ~span:(Ctx.lit_span ctx i j)
                   (Fmt.str
                      "variable%s %s of negated literal '%a' occur%s in no \
                       positive body literal"
                      (plural vs) (quote_vars vs) Atom.pp a
                      (match vs with [ _ ] -> "s" | _ -> ""));
               ]))
         r.Rule.body)
  in
  let comparisons =
    List.concat
      (List.mapi
         (fun j lit ->
           match lit with
           | Rule.Pos a when Atom.is_builtin a -> (
             (* an equality binds one side from the other, so its
                variables are unbound only if neither side ever is *)
             match unrestricted (Atom.vars a) with
             | [] -> []
             | vs ->
               [
                 Diagnostic.error ~code:"E002"
                   ~span:(Ctx.lit_span ctx i j)
                   (Fmt.str
                      "%s '%a' cannot be evaluated: variable%s %s %s never \
                       bound"
                      (if a.Atom.pred = "=" then "equality" else "comparison")
                      Atom.pp a (plural vs) (quote_vars vs)
                      (match vs with [ _ ] -> "is" | _ -> "are"));
               ])
           | _ -> [])
         r.Rule.body)
  in
  let head =
    match unrestricted (Atom.vars r.Rule.head) with
    | [] -> []
    | vs ->
      let msg =
        if Rule.is_fact r then
          Fmt.str "non-ground fact: variable%s %s %s not bound by anything"
            (plural vs) (quote_vars vs)
            (match vs with [ _ ] -> "is" | _ -> "are")
        else
          Fmt.str
            "head variable%s %s occur%s in no positive body literal; the rule \
             is unsafe for bottom-up evaluation unless a binding rewriting \
             supplies the value%s"
            (plural vs) (quote_vars vs)
            (match vs with [ _ ] -> "s" | _ -> "")
            (plural vs)
      in
      [ Diagnostic.warning ~code:"W001" ~span:(Ctx.head_span ctx i) msg ]
  in
  negated @ comparisons @ head

let run (ctx : Ctx.t) = Ctx.concat_rules ctx (check_rule ctx)
