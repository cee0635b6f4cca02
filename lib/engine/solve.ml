open Datalog

type source = Symbol.t -> Relation.t option

exception Unsafe of string

let bump_probes stats = match stats with None -> () | Some s -> s.Stats.probes <- s.Stats.probes + 1

(* Instantiate the atom's arguments, split them into a lookup pattern
   (ground positions) and residual patterns, and enumerate matches.
   Probes count actual relation accesses: a literal whose predicate has
   no relation at all performs no index work and is not counted. *)
let atom_matches ?stats src atom subst k =
  match src (Atom.symbol atom) with
  | None -> ()
  | Some rel ->
    bump_probes stats;
    let args = List.map (fun t -> Term.eval (Subst.apply subst t)) atom.Atom.args in
    let pattern = Array.of_list (List.map Term.is_ground args) in
    (* a ground key component that was never interned occurs in no
       relation, so the probe is a guaranteed miss *)
    (match Tuple.find_of_list (List.filter Term.is_ground args) with
    | None -> ()
    | Some key ->
      Relation.iter_matching rel ~pattern ~key (fun tuple ->
          match Subst.match_list args (Tuple.to_list tuple) subst with
          | Some subst' -> k subst'
          | None -> ()))

let match_against ?stats src atom subst =
  let acc = ref [] in
  atom_matches ?stats src atom subst (fun s -> acc := s :: !acc);
  List.rev !acc

let term_int t =
  match t with
  | Term.Int i -> Some i
  | Term.Var _ | Term.Sym _ | Term.App _ | Term.Add _ | Term.Mul _ | Term.Div _ -> None

let eval_builtin atom subst k =
  match atom.Atom.args with
  | [ lhs; rhs ] -> begin
    let l = Term.eval (Subst.apply subst lhs) in
    let r = Term.eval (Subst.apply subst rhs) in
    match atom.Atom.pred with
    | "=" -> begin
      (* equality may bind variables on either side *)
      match Subst.unify l r subst with Some s -> k s | None -> ()
    end
    | op ->
      if not (Term.is_ground l && Term.is_ground r) then
        raise
          (Unsafe (Fmt.str "builtin %a reached with unbound arguments" Atom.pp atom))
      else begin
        let holds =
          match op, term_int l, term_int r with
          | "<>", _, _ -> not (Term.equal l r)
          | "<", Some a, Some b -> a < b
          | "<=", Some a, Some b -> a <= b
          | ">", Some a, Some b -> a > b
          | ">=", Some a, Some b -> a >= b
          | ("<" | "<=" | ">" | ">="), _, _ ->
            (* total order on ground terms for symbolic data *)
            let c = Term.compare l r in
            (match op with
             | "<" -> c < 0
             | "<=" -> c <= 0
             | ">" -> c > 0
             | _ -> c >= 0)
          | _ -> raise (Unsafe (Fmt.str "unknown builtin %s" op))
        in
        if holds then k subst
      end
  end
  | _ -> raise (Unsafe (Fmt.str "builtin %a must be binary" Atom.pp atom))

(* Filters (builtins and negated literals) run where {!Plan} runs them:
   at the first point where they are ready, never before their written
   position, so relation literals keep their written order. *)
let is_filter = function Rule.Pos a -> Atom.is_builtin a | Rule.Neg _ -> true

let ground_under subst t = Term.is_ground (Subst.apply_deep subst t)

(* [=] is ready once one side is ground (unification grounds the other),
   any other filter once all its arguments are *)
let ready subst = function
  | Rule.Pos { Atom.pred = "="; args = [ l; r ] } ->
    ground_under subst l || ground_under subst r
  | Rule.Pos a | Rule.Neg a -> List.for_all (ground_under subst) a.Atom.args

let stuck subst lit =
  let inst a = Atom.make a.Atom.pred (List.map (Subst.apply_deep subst) a.Atom.args) in
  match lit with
  | Rule.Pos a -> Unsafe (Fmt.str "builtin %a reached with unbound arguments" Atom.pp (inst a))
  | Rule.Neg a ->
    Unsafe (Fmt.str "negated literal %a reached with unbound variables" Atom.pp (inst a))

let select ~lit subst goals =
  let runnable g =
    let l = lit g in
    (not (is_filter l)) || ready subst l
  in
  match goals with
  | [] -> None
  | g :: rest when runnable g -> Some (g, rest)
  | first :: rest ->
    let rec find skipped = function
      | [] -> raise (stuck subst (lit first))
      | g :: rest when runnable g -> Some (g, List.rev_append skipped rest)
      | g :: rest -> find (g :: skipped) rest
    in
    find [ first ] rest

let solve ?stats ~source ~neg_source body subst k =
  let rec go goals subst =
    match select ~lit:snd subst goals with
    | None -> k subst
    | Some ((_, Rule.Pos atom), rest) when Atom.is_builtin atom ->
      eval_builtin atom subst (fun s -> go rest s)
    | Some ((i, Rule.Pos atom), rest) ->
      atom_matches ?stats (source i) atom subst (fun s -> go rest s)
    | Some ((_, Rule.Neg atom), rest) ->
      (* ground: [select] only returns a ready negated literal; negated
         builtins are evaluated natively and touch no relation, so only
         real relation membership tests count as probes *)
      let a = Atom.apply_eval subst atom in
      let holds =
        if Atom.is_builtin a then begin
          let found = ref false in
          eval_builtin a subst (fun _ -> found := true);
          !found
        end
        else
          match neg_source (Atom.symbol a) with
          | None -> false
          | Some rel -> (
            bump_probes stats;
            match Tuple.find_of_list a.Atom.args with
            | None -> false
            | Some t -> Relation.mem rel t)
      in
      if not holds then go rest subst
  in
  go (List.mapi (fun i lit -> (i, lit)) body) subst

let fire_rule ?stats ~source ~neg_source ~on_fact rule =
  solve ?stats ~source ~neg_source rule.Rule.body Subst.empty (fun subst ->
      let head = Atom.apply_eval subst rule.Rule.head in
      if not (Atom.is_ground head) then
        raise (Unsafe (Fmt.str "rule for %a derived non-ground head %a" Atom.pp
                         rule.Rule.head Atom.pp head));
      on_fact head)
