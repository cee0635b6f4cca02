open Datalog

type lit_class =
  | Derived of { orig_pred : string; adornment : Adornment.t; atom : Atom.t }
  | Base of Atom.t
  | Builtin of Atom.t
  | Negated of Atom.t

let orig_pred naming name =
  match Naming.role naming name with
  | Some (Naming.Adorned (p, _)) -> p
  | Some _ | None -> name

let classify ~naming (ar : Adorn.adorned_rule) i =
  let lit = List.nth ar.Adorn.rule.Rule.body i in
  match lit, ar.Adorn.body_adornments.(i) with
  | Rule.Pos a, _ when Atom.is_builtin a -> Builtin a
  | Rule.Pos a, Some adornment ->
    Derived { orig_pred = orig_pred naming a.Atom.pred; adornment; atom = a }
  | Rule.Pos a, None -> Base a
  | Rule.Neg a, _ -> Negated a

let bound_args adornment atom = Adornment.select_bound adornment atom.Atom.args

let head_bound_args (ar : Adorn.adorned_rule) =
  Adornment.select_bound ar.Adorn.head_adornment ar.Adorn.rule.Rule.head.Atom.args

let implies sip p q =
  (* reachability over: t => target for every arc and tail member t *)
  let step n =
    List.concat_map
      (fun arc ->
        if List.exists (Sip.node_equal n) arc.Sip.tail then [ Sip.Body arc.Sip.target ]
        else [])
      sip.Sip.arcs
  in
  let rec search visited frontier =
    match frontier with
    | [] -> false
    | n :: rest ->
      if Sip.node_equal n q then true
      else if List.exists (Sip.node_equal n) visited then search visited rest
      else search (n :: visited) (step n @ rest)
  in
  search [] (step p)

(* Proposition 4.2, and its counting analogue: drop the magic (or cnt)
   literal of a tail member [n] when the same body carries one for a
   node [m] with [m => n]. *)
let prune_redundant ~sip lits =
  let guarded =
    List.filter_map
      (fun (origin, _) ->
        match origin with
        | Rewritten.Guard -> Some Sip.Head
        | Rewritten.Tail_magic n -> Some n
        | Rewritten.Tail_copy _ | Rewritten.Body_copy _ | Rewritten.Sup_lit _ -> None)
      lits
  in
  List.filter
    (fun (origin, _) ->
      match origin with
      | Rewritten.Tail_magic n ->
        not
          (List.exists
             (fun m -> (not (Sip.node_equal m n)) && implies sip m n)
             guarded)
      | Rewritten.Guard | Rewritten.Tail_copy _ | Rewritten.Body_copy _
      | Rewritten.Sup_lit _ ->
        true)
    lits

let last_arc_target (ar : Adorn.adorned_rule) =
  let n = List.length ar.Adorn.rule.Rule.body in
  let rec go i = if i < 0 then None else if Sip.arcs_into ar.Adorn.sip i <> [] then Some i else go (i - 1) in
  go (n - 1)

let seed_atom naming (adorned : Adorn.t) =
  let _, qa = adorned.Adorn.query_pred in
  if not (Adornment.has_bound qa) then None
  else
    let pred, _ = adorned.Adorn.query_pred in
    let args = Adornment.select_bound qa adorned.Adorn.query.Atom.args in
    Some (Atom.make (Naming.magic naming pred qa) args)

let vars_of_terms terms =
  List.rev (List.fold_left (fun acc t -> Term.add_vars t acc) [] terms)

let literal_terms lit =
  let a = Rule.atom_of_literal lit in
  a.Atom.args

let sup_vars ~simplify (ar : Adorn.adorned_rule) i =
  let body = Array.of_list ar.Adorn.rule.Rule.body in
  let available =
    vars_of_terms
      (head_bound_args ar
      @ List.concat_map (fun j -> literal_terms body.(j)) (List.init (i - 1) Fun.id))
  in
  if not simplify then available
  else begin
    let needed =
      vars_of_terms
        (ar.Adorn.rule.Rule.head.Atom.args
        @ List.concat_map
            (fun j -> literal_terms body.(j))
            (List.filter (fun k -> k >= i - 1) (List.init (Array.length body) Fun.id)))
    in
    List.filter (fun v -> List.mem v needed) available
  end
