module M = Map.Make (String)

type t = Term.t M.t

let empty = M.empty

let bind x t s =
  match M.find_opt x s with
  | None -> M.add x t s
  | Some t' ->
    if Term.equal t t' then s
    else invalid_arg (Fmt.str "Subst.bind: %s already bound" x)

let of_list l = List.fold_left (fun s (x, t) -> bind x t s) empty l

let apply s t =
  Term.map_vars (fun x -> match M.find_opt x s with Some u -> u | None -> Term.Var x) t

let rec apply_deep s t =
  let t' = apply s t in
  if Term.equal t t' then t' else apply_deep s t'

let rec match_term pat t s =
  let pat = Term.eval (apply s pat) in
  match pat, t with
  | Term.Var x, _ -> Some (M.add x t s)
  | Term.Int i, Term.Int j -> if i = j then Some s else None
  | Term.Sym a, Term.Sym b -> if String.equal a b then Some s else None
  | Term.App (f, xs), Term.App (g, ys)
    when String.equal f g && List.length xs = List.length ys ->
    match_list xs ys s
  (* Linear arithmetic patterns with one non-ground side are inverted:
     needed to evaluate counting rules after the semijoin optimization has
     deleted the guard literal that used to bind the index variables.
     [x + c = v] gives [x = v - c]; [x * c = v] succeeds only when [c]
     divides [v] — the divisibility check is exactly the consistency check
     of the paper's index encodings. *)
  | Term.Add (a, Term.Int c), Term.Int v | Term.Add (Term.Int c, a), Term.Int v ->
    match_term a (Term.Int (v - c)) s
  | Term.Mul (a, Term.Int c), Term.Int v | Term.Mul (Term.Int c, a), Term.Int v ->
    if c <> 0 && v mod c = 0 then match_term a (Term.Int (v / c)) s else None
  | (Term.Add _ | Term.Mul _ | Term.Div _), _ ->
    (* other arithmetic patterns (division, or two unbound sides) are not
       invertible *)
    None
  | (Term.Int _ | Term.Sym _ | Term.App _), _ -> None

and match_list xs ys s =
  match xs, ys with
  | [], [] -> Some s
  | x :: xs, y :: ys -> begin
    match match_term x y s with None -> None | Some s -> match_list xs ys s
  end
  | _, _ -> None

let rec occurs x t =
  match t with
  | Term.Var y -> String.equal x y
  | Term.Int _ | Term.Sym _ -> false
  | Term.App (_, xs) -> List.exists (occurs x) xs
  | Term.Add (a, b) | Term.Mul (a, b) | Term.Div (a, b) -> occurs x a || occurs x b

let rec unify a b s =
  let a = Term.eval (apply_deep s a) and b = Term.eval (apply_deep s b) in
  match a, b with
  | Term.Var x, Term.Var y when String.equal x y -> Some s
  | Term.Var x, t | t, Term.Var x -> if occurs x t then None else Some (M.add x t s)
  | Term.Int i, Term.Int j -> if i = j then Some s else None
  | Term.Sym p, Term.Sym q -> if String.equal p q then Some s else None
  | Term.App (f, xs), Term.App (g, ys)
    when String.equal f g && List.length xs = List.length ys ->
    unify_list xs ys s
  | Term.Add (a1, a2), Term.Add (b1, b2)
  | Term.Mul (a1, a2), Term.Mul (b1, b2)
  | Term.Div (a1, a2), Term.Div (b1, b2) ->
    unify_list [ a1; a2 ] [ b1; b2 ] s
  | (Term.Int _ | Term.Sym _ | Term.App _ | Term.Add _ | Term.Mul _ | Term.Div _), _ ->
    None

and unify_list xs ys s =
  match xs, ys with
  | [], [] -> Some s
  | x :: xs, y :: ys -> begin
    match unify x y s with None -> None | Some s -> unify_list xs ys s
  end
  | _, _ -> None
