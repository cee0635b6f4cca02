type t = { pred : string; args : Term.t list }

let make pred args = { pred; args }
let arity a = List.length a.args
let symbol a = Symbol.make a.pred (arity a)

let equal a b =
  String.equal a.pred b.pred
  && List.length a.args = List.length b.args
  && List.for_all2 Term.equal a.args b.args

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else List.compare Term.compare a.args b.args

let add_vars a acc = List.fold_left (fun acc t -> Term.add_vars t acc) acc a.args
let vars a = List.rev (add_vars a [])
let is_ground a = List.for_all Term.is_ground a.args
let apply s a = { a with args = List.map (Subst.apply s) a.args }
let apply_eval s a = { a with args = List.map (fun t -> Term.eval (Subst.apply s t)) a.args }

let apply_deep_eval s a =
  { a with args = List.map (fun t -> Term.eval (Subst.apply_deep s t)) a.args }
let rename f a = { a with args = List.map (Term.rename f) a.args }

let same_shape a b = String.equal a.pred b.pred && List.length a.args = List.length b.args

let unify a b s = if same_shape a b then Subst.unify_list a.args b.args s else None

let builtin_preds = [ "="; "<>"; "<"; "<="; ">"; ">=" ]
let is_builtin a = arity a = 2 && List.mem a.pred builtin_preds

let pp ppf a =
  match a.args with
  | [ x; y ] when List.mem a.pred builtin_preds ->
    Fmt.pf ppf "%a %s %a" Term.pp x a.pred Term.pp y
  | [] -> Fmt.string ppf a.pred
  | args -> Fmt.pf ppf "%s(%a)" a.pred Fmt.(list ~sep:(any ", ") Term.pp) args

let to_string a = Fmt.str "%a" pp a
