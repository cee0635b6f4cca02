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

let strip_indices t atom =
  if t.index_fields = 0 then atom
  else
    let rec drop n xs = if n = 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r in
    { atom with Atom.args = drop t.index_fields atom.Atom.args }

let run ?(engine = `Seminaive) ?max_iterations ?max_facts t ~edb =
  let edb' = Engine.Database.copy edb in
  List.iter (fun seed -> ignore (Engine.Database.add_fact edb' seed)) t.seeds;
  match engine with
  | `Seminaive -> Engine.Eval.seminaive ?max_iterations ?max_facts t.program ~edb:edb'
  | `Naive -> Engine.Eval.naive ?max_iterations ?max_facts t.program ~edb:edb'
  | `Seminaive_reference ->
    Engine.Eval.seminaive_reference ?max_iterations ?max_facts t.program ~edb:edb'

(* re-insert dropped constants at their original positions *)
let restore_tuple restore args =
  if restore = [] then args
  else begin
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) restore in
    let rec weave pos ins rest =
      match ins with
      | (p, c) :: ins' when p = pos -> c :: weave (pos + 1) ins' rest
      | _ -> begin
        match rest with
        | [] -> List.map snd ins
        | x :: rest' -> x :: weave (pos + 1) ins rest'
      end
    in
    weave 0 sorted args
  end

let answers t outcome =
  match Engine.Database.find outcome.Engine.Eval.db (Atom.symbol t.query) with
  | None -> []
  | Some rel ->
    let keep tuple =
      Option.is_some
        (Subst.match_list t.query.Atom.args (Engine.Tuple.to_list tuple) Subst.empty)
    in
    let projected =
      Engine.Relation.fold
        (fun tuple acc ->
          if keep tuple then
            let args =
              let rec drop n xs =
                if n = 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r
              in
              drop t.index_fields (Engine.Tuple.to_list tuple)
            in
            Engine.Tuple.Set.add (Engine.Tuple.of_list (restore_tuple t.restore args)) acc
          else acc)
        rel Engine.Tuple.Set.empty
    in
    Engine.Tuple.Set.elements projected

let pp ppf t =
  Fmt.pf ppf "%a@\n%a@\n?- %a." Program.pp t.program
    (Fmt.list ~sep:(Fmt.any "@\n") (fun ppf a -> Fmt.pf ppf "%a." Atom.pp a))
    t.seeds Atom.pp t.query
