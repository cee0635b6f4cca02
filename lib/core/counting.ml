open Datalog

exception Inapplicable of string

(* Is the i-th body literal an occurrence that carries index fields
   (derived with at least one bound argument)? *)
let indexed_occurrence ~naming (ar : Adorn.adorned_rule) i =
  match Rew_util.classify ~naming ar i with
  | Rew_util.Derived { orig_pred; adornment; atom } when Adornment.has_bound adornment ->
    Some (orig_pred, adornment, atom)
  | Rew_util.Derived _ | Rew_util.Base _ | Rew_util.Builtin _ | Rew_util.Negated _ ->
    None

let cnt_guard ~naming ix (ar : Adorn.adorned_rule) =
  if Adornment.has_bound ar.Adorn.head_adornment then
    Some
      (Atom.make
         (Naming.cnt naming ar.Adorn.head_pred ar.Adorn.head_adornment)
         (Indexing.guard_indices ix @ Rew_util.head_bound_args ar))
  else None

(* q_ind^{a}(I+1, K*m+i, H*t+j, theta): the indexed copy of an occurrence. *)
let indexed_atom ~naming ix ~rule_number ~position (orig_pred, adornment, atom) =
  Atom.make
    (Naming.indexed naming orig_pred adornment)
    (Indexing.body_indices ix ~rule_number ~position @ atom.Atom.args)

let cnt_atom ~naming ix ~rule_number ~position (orig_pred, adornment, atom) =
  Atom.make
    (Naming.cnt naming orig_pred adornment)
    (Indexing.body_indices ix ~rule_number ~position
    @ Rew_util.bound_args adornment atom)

let check_supported ~naming (ar : Adorn.adorned_rule) =
  let n = List.length ar.Adorn.rule.Rule.body in
  let has_indexed_body =
    List.exists (fun i -> indexed_occurrence ~naming ar i <> None) (List.init n Fun.id)
  in
  if has_indexed_body && not (Adornment.has_bound ar.Adorn.head_adornment) then
    raise
      (Inapplicable
         (Fmt.str
            "Counting: rule for %s has bound derived body occurrences but an unbound \
             head; counting indices must flow from the query"
            ar.Adorn.head_pred));
  List.iter
    (fun i ->
      if List.length (Sip.arcs_into ar.Adorn.sip i) > 1 then
        raise
          (Inapplicable
             "Counting: multiple sip arcs into one occurrence are not supported"))
    (List.init n Fun.id)

(* Counting rule for the sip arc into body position [j0] (0-based). *)
let cnt_rule ~naming ~simplify ~adorned_index ~rule_number ix (ar : Adorn.adorned_rule) j0
    target_info =
  let arc =
    match Sip.arcs_into ar.Adorn.sip j0 with [ a ] -> a | _ -> assert false
  in
  let head = cnt_atom ~naming ix ~rule_number ~position:(j0 + 1) target_info in
  let lits =
    List.concat_map
      (fun node ->
        match node with
        | Sip.Head -> begin
          match cnt_guard ~naming ix ar with
          | Some g -> [ (Rewritten.Guard, Rule.Pos g) ]
          | None -> []
        end
        | Sip.Body k -> begin
          match indexed_occurrence ~naming ar k with
          | Some info ->
            let cnt =
              if simplify then []
              else
                [
                  ( Rewritten.Tail_magic (Sip.Body k),
                    Rule.Pos (cnt_atom ~naming ix ~rule_number ~position:(k + 1) info)
                  );
                ]
            in
            cnt
            @ [
                ( Rewritten.Tail_copy (Sip.Body k),
                  Rule.Pos (indexed_atom ~naming ix ~rule_number ~position:(k + 1) info)
                );
              ]
          | None ->
            [ (Rewritten.Tail_copy (Sip.Body k), List.nth ar.Adorn.rule.Rule.body k) ]
        end)
      arc.Sip.tail
  in
  let lits = if simplify then Rew_util.prune_redundant ~sip:ar.Adorn.sip lits else lits in
  ( Rule.make head (List.map snd lits),
    {
      Rewritten.kind = Rewritten.Magic_def { adorned_index; target = j0 };
      origins = List.map fst lits;
    } )

let modified_rule ~naming ~adorned_index ~rule_number ix (ar : Adorn.adorned_rule) =
  let head_indexed = Adornment.has_bound ar.Adorn.head_adornment in
  let head =
    if head_indexed then
      Atom.make
        (Naming.indexed naming ar.Adorn.head_pred ar.Adorn.head_adornment)
        (Indexing.guard_indices ix @ ar.Adorn.rule.Rule.head.Atom.args)
    else ar.Adorn.rule.Rule.head
  in
  let guard =
    match cnt_guard ~naming ix ar with
    | Some g -> [ (Rewritten.Guard, Rule.Pos g) ]
    | None -> []
  in
  let body =
    List.mapi
      (fun j0 lit ->
        match indexed_occurrence ~naming ar j0 with
        | Some info ->
          ( Rewritten.Body_copy j0,
            Rule.Pos (indexed_atom ~naming ix ~rule_number ~position:(j0 + 1) info) )
        | None -> (Rewritten.Body_copy j0, lit))
      ar.Adorn.rule.Rule.body
  in
  let lits = guard @ body in
  ( Rule.make head (List.map snd lits),
    { Rewritten.kind = Rewritten.Modified adorned_index; origins = List.map fst lits } )

let seed ~naming ?encoding (adorned : Adorn.t) =
  let pred, qa = adorned.Adorn.query_pred in
  if not (Adornment.has_bound qa) then None
  else begin
    match adorned.Adorn.rules with
    | [] -> None
    | ar :: _ ->
      let ix = Indexing.create ?encoding adorned ar in
      Some
        (Atom.make (Naming.cnt naming pred qa)
           (Indexing.seed_indices ix
           @ Adornment.select_bound qa adorned.Adorn.query.Atom.args))
  end

(* a query over a base predicate keeps its name, as {!Adorn} leaves it:
   no rule indexes it *)
let indexed_query ~naming (adorned : Adorn.t) =
  let pred, qa = adorned.Adorn.query_pred in
  let derived =
    Symbol.Set.mem (Symbol.make pred (Adornment.arity qa)) adorned.Adorn.source_derived
  in
  if not (derived && Adornment.has_bound qa) then (adorned.Adorn.query, 0)
  else
    let q = adorned.Adorn.query in
    let fresh =
      let used = Atom.vars q in
      let rec go base = if List.mem base used then go (base ^ "0") else base in
      [ Term.Var (go "I"); Term.Var (go "KK"); Term.Var (go "HH") ]
    in
    (Atom.make (Naming.indexed naming pred qa) (fresh @ q.Atom.args), Indexing.fields)

let rewrite ?(simplify = true) ?encoding (adorned : Adorn.t) =
  let naming = adorned.Adorn.naming in
  let rules_with_meta =
    List.concat
      (List.mapi
         (fun adorned_index ar ->
           check_supported ~naming ar;
           let rule_number = adorned_index + 1 in
           let ix = Indexing.create ?encoding adorned ar in
           let n = List.length ar.Adorn.rule.Rule.body in
           let cnt_rules =
             List.filter_map
               (fun j0 ->
                 match indexed_occurrence ~naming ar j0 with
                 | Some info when Sip.arcs_into ar.Adorn.sip j0 <> [] ->
                   Some
                     (cnt_rule ~naming ~simplify ~adorned_index ~rule_number ix ar j0
                        info)
                 | Some _ | None -> None)
               (List.init n Fun.id)
           in
           cnt_rules @ [ modified_rule ~naming ~adorned_index ~rule_number ix ar ])
         adorned.Adorn.rules)
  in
  let seeds = Option.to_list (seed ~naming ?encoding adorned) in
  let query, index_fields = indexed_query ~naming adorned in
  {
    Rewritten.program = Program.make (List.map fst rules_with_meta);
    meta = List.map snd rules_with_meta;
    seeds;
    query;
    naming;
    adorned;
    index_fields;
    restore = [];
  }
