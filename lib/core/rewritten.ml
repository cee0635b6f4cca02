open Datalog

type lit_origin =
  | Guard
  | Sup_lit of int
  | Tail_copy of Sip.node
  | Tail_magic of Sip.node
  | Body_copy of int

type rule_kind =
  | Modified of int
  | Magic_def of { adorned_index : int; target : int }
  | Sup_def of { adorned_index : int; position : int }
  | Label_def of { adorned_index : int; target : int; arc : int }

type rule_meta = { kind : rule_kind; origins : lit_origin list }

type t = {
  program : Program.t;
  meta : rule_meta list;
  seeds : Atom.t list;
  query : Atom.t;
  naming : Naming.t;
  adorned : Adorn.t;
  index_fields : int;
  restore : (int * Term.t) list;
}

let run ?(engine = `Seminaive) ?max_iterations ?max_facts t ~edb =
  let run =
    match engine with
    | `Seminaive -> Engine.Eval.seminaive
    | `Naive -> Engine.Eval.naive
    | `Seminaive_reference -> Engine.Eval.seminaive_reference
  in
  run ?max_iterations ?max_facts ~seeds:t.seeds t.program ~edb

let rec drop n xs = if n = 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r

(* drop the index fields, then re-insert the dropped constants at their
   original positions *)
let project ~index_fields ~restore args =
  let rec weave pos ins rest =
    match (ins, rest) with
    | (p, c) :: ins', _ when p = pos -> c :: weave (pos + 1) ins' rest
    | _, [] -> List.map snd ins
    | _, x :: rest' -> x :: weave (pos + 1) ins rest'
  in
  let args = drop index_fields args in
  if restore = [] then args
  else weave 0 (List.sort (fun (a, _) (b, _) -> Int.compare a b) restore) args

let answers t outcome =
  match
    ( Engine.Database.find outcome.Engine.Eval.db (Atom.symbol t.query),
      Engine.Tuple.matcher t.query.Atom.args )
  with
  | None, _ | _, None -> []
  | Some rel, Some matches ->
    let row =
      if t.index_fields = 0 && t.restore = [] then Fun.id
      else
        (* the same projection, over interned ids *)
        let restore = lazy (List.map (fun (p, c) -> (p, Engine.Value.intern c)) t.restore) in
        fun tuple ->
          Array.of_list
            (project ~index_fields:t.index_fields ~restore:(Lazy.force restore)
               (Array.to_list tuple))
    in
    List.sort_uniq Engine.Tuple.compare
      (Engine.Relation.fold (fun tu acc -> if matches tu then row tu :: acc else acc) rel [])

let pp ppf t =
  Fmt.pf ppf "%a@\n%a@\n?- %a." Program.pp t.program
    (Fmt.list ~sep:(Fmt.any "@\n") (fun ppf a -> Fmt.pf ppf "%a." Atom.pp a))
    t.seeds Atom.pp t.query
