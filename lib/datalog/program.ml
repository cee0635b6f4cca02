type t = { rules : Rule.t list }

let make rules = { rules }
let rules p = p.rules
let is_empty p = p.rules = []
let size p = List.length p.rules

let derived p =
  List.fold_left (fun s r -> Symbol.Set.add (Atom.symbol r.Rule.head) s) Symbol.Set.empty
    p.rules

let body_symbols p =
  List.fold_left
    (fun s r ->
      List.fold_left
        (fun s a -> if Atom.is_builtin a then s else Symbol.Set.add (Atom.symbol a) s)
        s (Rule.body_atoms r))
    Symbol.Set.empty p.rules

let base p = Symbol.Set.diff (body_symbols p) (derived p)
let predicates p = Symbol.Set.union (derived p) (body_symbols p)
let is_derived p sym = Symbol.Set.mem sym (derived p)

let rules_for p sym =
  List.mapi (fun i r -> (i, r)) p.rules
  |> List.filter (fun (_, r) -> Symbol.equal (Atom.symbol r.Rule.head) sym)

let has_function_symbols p =
  let term_has = function
    | Term.Var _ | Term.Int _ | Term.Sym _ -> false
    | Term.App _ | Term.Add _ | Term.Mul _ | Term.Div _ -> true
  in
  let atom_has a = List.exists term_has a.Atom.args in
  List.exists
    (fun r -> atom_has r.Rule.head || List.exists atom_has (Rule.body_atoms r))
    p.rules

let well_formed p =
  let arities = Hashtbl.create 16 in
  let check_atom a =
    let { Symbol.name; arity } = Atom.symbol a in
    match Hashtbl.find_opt arities name with
    | None ->
      Hashtbl.add arities name arity;
      Ok ()
    | Some ar when ar = arity -> Ok ()
    | Some ar ->
      Error (Fmt.str "predicate %s used with arities %d and %d" name ar arity)
  in
  let rec check_rules = function
    | [] -> Ok ()
    | r :: rest -> begin
      match Rule.well_formed r with
      | Error _ as e -> e
      | Ok () ->
        let atoms = r.Rule.head :: Rule.body_atoms r in
        let rec check_atoms = function
          | [] -> check_rules rest
          | a :: more -> begin
            match check_atom a with Error _ as e -> e | Ok () -> check_atoms more
          end
        in
        check_atoms (List.filter (fun a -> not (Atom.is_builtin a)) atoms)
    end
  in
  check_rules p.rules

(* The dependency analyses delegate to the shared {!Depgraph} module,
   which also powers the static analyzer's stratification and
   reachability passes. *)
let depgraph p = Depgraph.of_rules p.rules


let sccs p = Depgraph.sccs (depgraph p)

let is_recursive p sym =
  let g = depgraph p in
  List.exists (fun (d, _) -> Symbol.equal d sym) (Depgraph.successors g sym)
  || List.exists
       (fun comp -> List.length comp > 1 && List.exists (Symbol.equal sym) comp)
       (Depgraph.sccs g)

let stratify p = Depgraph.stratify (depgraph p)

let rename_pred f p =
  let rename_atom a = { a with Atom.pred = f a.Atom.pred } in
  make
    (List.map
       (fun r ->
         Rule.make (rename_atom r.Rule.head)
           (List.map (Rule.map_literal rename_atom) r.Rule.body))
       p.rules)

let pp ppf p = Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@\n") Rule.pp) p.rules
let to_string p = Fmt.str "%a" pp p
