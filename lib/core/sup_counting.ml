open Datalog

let supcnt_atom ~naming ~simplify ~adorned_index ix (ar : Adorn.adorned_rule) j =
  let vars = Rew_util.sup_vars ~simplify ar j in
  let name =
    Naming.supcnt naming ~rule_index:adorned_index ~position:j
      ~head:ar.Adorn.head_pred ~adornment:ar.Adorn.head_adornment
  in
  Atom.make name (Indexing.guard_indices ix @ List.map (fun v -> Term.Var v) vars)

(* The literal standing for supcnt_r_j in a rule body: with [simplify],
   supcnt_r_1 is replaced by the head's counting guard. *)
let supcnt_reference ~naming ~simplify ~adorned_index ix (ar : Adorn.adorned_rule) j =
  let guard () =
    match Counting.cnt_guard ~naming ix ar with
    | Some g -> [ (Rewritten.Guard, Rule.Pos g) ]
    | None -> []
  in
  if j = 1 && simplify then guard ()
  else
    [
      ( Rewritten.Sup_lit j,
        Rule.Pos (supcnt_atom ~naming ~simplify ~adorned_index ix ar j) );
    ]

(* The j-th body literal (0-based), indexed when it is a bound derived
   occurrence. *)
let body_literal ~naming ~rule_number ix (ar : Adorn.adorned_rule) j0 =
  match Counting.indexed_occurrence ~naming ar j0 with
  | Some info ->
    Rule.Pos (Counting.indexed_atom ~naming ix ~rule_number ~position:(j0 + 1) info)
  | None -> List.nth ar.Adorn.rule.Rule.body j0

let rewrite_rule ~naming ~simplify ~adorned_index ~rule_number ix
    (ar : Adorn.adorned_rule) =
  Counting.check_supported ~naming ar;
  let n = List.length ar.Adorn.rule.Rule.body in
  let head_indexed = Adornment.has_bound ar.Adorn.head_adornment in
  let modified_head =
    if head_indexed then
      Atom.make
        (Naming.indexed naming ar.Adorn.head_pred ar.Adorn.head_adornment)
        (Indexing.guard_indices ix @ ar.Adorn.rule.Rule.head.Atom.args)
    else ar.Adorn.rule.Rule.head
  in
  match Rew_util.last_arc_target ar with
  | None ->
    (* no sip arcs: modified rule is the guard plus the plain body *)
    let guard = supcnt_reference ~naming ~simplify:true ~adorned_index ix ar 1 in
    let lits =
      guard
      @ List.mapi (fun i lit -> (Rewritten.Body_copy i, lit)) ar.Adorn.rule.Rule.body
    in
    [
      ( Rule.make modified_head (List.map snd lits),
        { Rewritten.kind = Rewritten.Modified adorned_index; origins = List.map fst lits }
      );
    ]
  | Some last ->
    let m = last + 1 in
    let supcnt_def j =
      if j = 1 then
        let lits = supcnt_reference ~naming ~simplify:true ~adorned_index ix ar 1 in
        ( Rule.make
            (supcnt_atom ~naming ~simplify ~adorned_index ix ar 1)
            (List.map snd lits),
          {
            Rewritten.kind = Rewritten.Sup_def { adorned_index; position = 1 };
            origins = List.map fst lits;
          } )
      else
        let prev = supcnt_reference ~naming ~simplify ~adorned_index ix ar (j - 1) in
        let lit = body_literal ~naming ~rule_number ix ar (j - 2) in
        let lits = prev @ [ (Rewritten.Body_copy (j - 2), lit) ] in
        ( Rule.make
            (supcnt_atom ~naming ~simplify ~adorned_index ix ar j)
            (List.map snd lits),
          {
            Rewritten.kind = Rewritten.Sup_def { adorned_index; position = j };
            origins = List.map fst lits;
          } )
    in
    let supcnt_rules =
      let first = if simplify then 2 else 1 in
      List.filter_map
        (fun j -> if j >= first && j <= m then Some (supcnt_def j) else None)
        (List.init (m + 1) Fun.id)
    in
    let cnt_rules =
      List.concat_map
        (fun j0 ->
          if Sip.arcs_into ar.Adorn.sip j0 = [] then []
          else
            match Counting.indexed_occurrence ~naming ar j0 with
            | Some info ->
              let head =
                Counting.cnt_atom ~naming ix ~rule_number ~position:(j0 + 1) info
              in
              let lits =
                supcnt_reference ~naming ~simplify ~adorned_index ix ar (j0 + 1)
              in
              [
                ( Rule.make head (List.map snd lits),
                  {
                    Rewritten.kind = Rewritten.Magic_def { adorned_index; target = j0 };
                    origins = List.map fst lits;
                  } );
              ]
            | None -> [])
        (List.init n Fun.id)
    in
    let tail_lits =
      List.filter_map
        (fun j0 ->
          if j0 >= m - 1 then
            Some (Rewritten.Body_copy j0, body_literal ~naming ~rule_number ix ar j0)
          else None)
        (List.init n Fun.id)
    in
    let lits = supcnt_reference ~naming ~simplify ~adorned_index ix ar m @ tail_lits in
    supcnt_rules @ cnt_rules
    @ [
        ( Rule.make modified_head (List.map snd lits),
          {
            Rewritten.kind = Rewritten.Modified adorned_index;
            origins = List.map fst lits;
          } );
      ]

let rewrite ?(simplify = true) ?encoding (adorned : Adorn.t) =
  let naming = adorned.Adorn.naming in
  let rules_with_meta =
    List.concat
      (List.mapi
         (fun adorned_index ar ->
           let rule_number = adorned_index + 1 in
           let ix = Indexing.create ?encoding adorned ar in
           rewrite_rule ~naming ~simplify ~adorned_index ~rule_number ix ar)
         adorned.Adorn.rules)
  in
  let seeds = Option.to_list (Counting.seed ~naming ?encoding adorned) in
  let query, index_fields = Counting.indexed_query ~naming adorned in
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
