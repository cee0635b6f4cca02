open Datalog

(* Magic literal for a sip node within the context of an adorned rule:
   [Head] yields magic_p^a(chi^b), [Body j] yields magic_q^{aj}(theta_j^b)
   for a derived occurrence with at least one bound argument.  Returns
   [None] when there is no magic predicate to build. *)
let magic_literal ~naming (ar : Adorn.adorned_rule) node =
  match node with
  | Sip.Head ->
    if Adornment.has_bound ar.Adorn.head_adornment then
      Some
        (Atom.make
           (Naming.magic naming ar.Adorn.head_pred ar.Adorn.head_adornment)
           (Rew_util.head_bound_args ar))
    else None
  | Sip.Body j -> begin
    match Rew_util.classify ~naming ar j with
    | Rew_util.Derived { orig_pred; adornment; atom } when Adornment.has_bound adornment
      ->
      Some
        (Atom.make (Naming.magic naming orig_pred adornment)
           (Rew_util.bound_args adornment atom))
    | Rew_util.Derived _ | Rew_util.Base _ | Rew_util.Builtin _ | Rew_util.Negated _ ->
      None
  end

(* The literal copy of a sip tail node: [Body j] is the adorned body
   literal itself; [Head] contributes nothing beyond its magic literal. *)
let tail_copy (ar : Adorn.adorned_rule) node =
  match node with
  | Sip.Head -> None
  | Sip.Body j -> Some (List.nth ar.Adorn.rule.Rule.body j)

(* Body of a magic (or label) rule for one arc: the tail's magic literals
   and literal copies, in tail order. *)
let arc_body ~naming ~simplify (ar : Adorn.adorned_rule) (arc : Sip.arc) =
  let lits =
    List.concat_map
      (fun node ->
        let magic =
          match magic_literal ~naming ar node with
          | Some m ->
            let origin =
              match node with
              | Sip.Head -> Rewritten.Guard
              | Sip.Body _ -> Rewritten.Tail_magic node
            in
            [ (origin, Rule.Pos m) ]
          | None -> []
        in
        let copy =
          match tail_copy ar node with
          | Some lit -> [ (Rewritten.Tail_copy node, lit) ]
          | None -> []
        in
        magic @ copy)
      arc.Sip.tail
  in
  if simplify then Rew_util.prune_redundant ~sip:ar.Adorn.sip lits else lits

(* Magic rules for the arcs into body literal [i] of adorned rule [ar]
   (index [adorned_index]).  Single arc: one magic rule.  Several arcs:
   one label rule per arc plus a joining magic rule. *)
let magic_rules_for ~naming ~simplify ~adorned_index (ar : Adorn.adorned_rule) i =
  match Rew_util.classify ~naming ar i with
  | Rew_util.Derived { orig_pred; adornment; atom } when Adornment.has_bound adornment
    -> begin
    let arcs = Sip.arcs_into ar.Adorn.sip i in
    let magic_head =
      Atom.make (Naming.magic naming orig_pred adornment)
        (Rew_util.bound_args adornment atom)
    in
    match arcs with
    | [] -> []
    | [ arc ] ->
      let body = arc_body ~naming ~simplify ar arc in
      [
        ( Rule.make magic_head (List.map snd body),
          {
            Rewritten.kind = Rewritten.Magic_def { adorned_index; target = i };
            origins = List.map fst body;
          } );
      ]
    | arcs ->
      let label_rules =
        List.mapi
          (fun j arc ->
            let body = arc_body ~naming ~simplify ar arc in
            let head =
              Atom.make
                (Naming.label naming orig_pred adornment j)
                (List.map (fun v -> Term.Var v) arc.Sip.label)
            in
            ( Rule.make head (List.map snd body),
              {
                Rewritten.kind =
                  Rewritten.Label_def { adorned_index; target = i; arc = j };
                origins = List.map fst body;
              } ))
          arcs
      in
      let join_body =
        List.map (fun (r, _) -> Rule.Pos r.Rule.head) label_rules
      in
      label_rules
      @ [
          ( Rule.make magic_head join_body,
            {
              Rewritten.kind = Rewritten.Magic_def { adorned_index; target = i };
              origins = List.mapi (fun j _ -> Rewritten.Sup_lit j) join_body;
            } );
        ]
  end
  | Rew_util.Derived _ | Rew_util.Base _ | Rew_util.Builtin _ | Rew_util.Negated _ -> []

(* The modified rule: guard + (optionally) per-occurrence magic literals +
   the adorned body, with Proposition 4.2 pruning. *)
let modified_rule ~naming ~simplify ~adorned_index (ar : Adorn.adorned_rule) =
  let guard =
    match magic_literal ~naming ar Sip.Head with
    | Some m -> [ (Rewritten.Guard, Rule.Pos m) ]
    | None -> []
  in
  let body =
    List.concat
      (List.mapi
         (fun i lit ->
           let magic =
             if simplify then []
             else
               match magic_literal ~naming ar (Sip.Body i) with
               | Some m -> [ (Rewritten.Tail_magic (Sip.Body i), Rule.Pos m) ]
               | None -> []
           in
           magic @ [ (Rewritten.Body_copy i, lit) ])
         ar.Adorn.rule.Rule.body)
  in
  let lits = guard @ body in
  let lits = if simplify then Rew_util.prune_redundant ~sip:ar.Adorn.sip lits else lits in
  ( Rule.make ar.Adorn.rule.Rule.head (List.map snd lits),
    { Rewritten.kind = Rewritten.Modified adorned_index; origins = List.map fst lits } )

let rewrite ?(simplify = true) (adorned : Adorn.t) =
  let naming = adorned.Adorn.naming in
  let rules_with_meta =
    List.concat
      (List.mapi
         (fun adorned_index ar ->
           let n = List.length ar.Adorn.rule.Rule.body in
           let magic_rules =
             List.concat_map
               (fun i -> magic_rules_for ~naming ~simplify ~adorned_index ar i)
               (List.init n Fun.id)
           in
           magic_rules @ [ modified_rule ~naming ~simplify ~adorned_index ar ])
         adorned.Adorn.rules)
  in
  let seeds = Option.to_list (Rew_util.seed_atom naming adorned) in
  {
    Rewritten.program = Program.make (List.map fst rules_with_meta);
    meta = List.map snd rules_with_meta;
    seeds;
    query = adorned.Adorn.query;
    naming;
    adorned;
    index_fields = 0;
    restore = [];
  }
