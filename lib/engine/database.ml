open Datalog

type t = Relation.t Symbol.Tbl.t

let create () = Symbol.Tbl.create 32

let relation db sym =
  match Symbol.Tbl.find_opt db sym with
  | Some r -> r
  | None ->
    let r = Relation.create sym.Symbol.arity in
    Symbol.Tbl.replace db sym r;
    r

let find db sym = Symbol.Tbl.find_opt db sym

let install db sym r =
  if Relation.arity r <> sym.Symbol.arity then
    invalid_arg
      (Fmt.str "Database.install: relation arity %d does not match %a/%d"
         (Relation.arity r) Symbol.pp sym sym.Symbol.arity);
  Symbol.Tbl.replace db sym r

let add_tuple db sym t = Relation.add (relation db sym) t

(* a ground atom's arguments as a tuple; [Value.intern] evaluates ground
   arithmetic itself, so constants go to the pool without a [Term.eval] *)
let tuple_of_fact a =
  if not (Atom.is_ground a) then
    invalid_arg (Fmt.str "Database.add_fact: non-ground atom %a" Atom.pp a);
  match a.Atom.args with
  | [] -> [||]
  | x :: rest ->
    let t = Array.make (Atom.arity a) (Value.intern x) in
    let rec fill i = function
      | [] -> t
      | y :: ys ->
        t.(i) <- Value.intern y;
        fill (i + 1) ys
    in
    fill 1 rest

let add_fact db a = add_tuple db (Atom.symbol a) (tuple_of_fact a)

let remove_tuple db sym t =
  match find db sym with None -> false | Some r -> Relation.remove r t

let remove_fact db a =
  if not (Atom.is_ground a) then
    invalid_arg (Fmt.str "Database.remove_fact: non-ground atom %a" Atom.pp a);
  match Tuple.find_of_list (List.map Term.eval a.Atom.args) with
  | None -> false
  | Some t -> remove_tuple db (Atom.symbol a) t

let mem db a =
  match find db (Atom.symbol a) with
  | None -> false
  | Some r -> (
    match Tuple.find_of_list (List.map Term.eval a.Atom.args) with
    | None -> false
    | Some t -> Relation.mem r t)

let mem_tuple db sym t =
  match find db sym with None -> false | Some r -> Relation.mem r t

let of_facts facts =
  let db = create () in
  List.iter (fun a -> ignore (add_fact db a)) facts;
  db

let facts db sym =
  match find db sym with
  | None -> []
  | Some r ->
    Relation.fold (fun t acc -> Atom.make sym.Symbol.name (Tuple.to_list t) :: acc) r []

let symbols db =
  Symbol.Tbl.fold (fun sym _ acc -> sym :: acc) db [] |> List.sort Symbol.compare

let all_facts db = List.concat_map (facts db) (symbols db)

let cardinal db sym = match find db sym with None -> 0 | Some r -> Relation.cardinal r

let total db = Symbol.Tbl.fold (fun _ r acc -> acc + Relation.cardinal r) db 0

let copy db =
  let db' = create () in
  Symbol.Tbl.iter (fun sym r -> Symbol.Tbl.replace db' sym (Relation.copy r)) db;
  db'

let merge_into ~dst ~src =
  Symbol.Tbl.iter
    (fun sym r ->
      (* resolve the destination relation once per symbol, not per tuple *)
      let dst_rel = relation dst sym in
      Relation.iter (fun t -> ignore (Relation.add dst_rel t)) r)
    src

let pp ppf db =
  let pp_rel ppf sym =
    Fmt.pf ppf "%a: %a" Symbol.pp sym Relation.pp (relation db sym)
  in
  Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any "@\n") pp_rel) (symbols db)
