(* An instantiation whose delta-position facts were derived in rounds
   r_1..r_m, max r_j = k, is enumerated exactly once: by the instance at
   the first position with r_i = k, since earlier positions read old and
   later ones new.  Reading "delta at i, full database elsewhere" would
   re-derive every instantiation joining two same-round facts once per
   such position. *)

open Datalog

type mark = { rel : Relation.t; mutable o : int; mutable d : int }

type t = { db : Database.t; marks : (Symbol.t * mark) list }

let create db syms =
  let mark sym =
    let rel = Database.relation db sym in
    (sym, { rel; o = Relation.size rel; d = Relation.size rel })
  in
  { db; marks = List.map mark (List.sort_uniq Symbol.compare syms) }

let find t sym = List.find_map (fun (s, m) -> if Symbol.equal s sym then Some m else None) t.marks
let upto t sym = Option.map (fun m -> [ { Plan.rel = m.rel; lo = 0; hi = m.d } ]) (find t sym)

(* A body position reads a grown predicate through its watermarks, or
   views fixed for the whole fixpoint (builtins read nothing). *)
type lit = Grown of mark | Fixed of Plan.view list

(* One delta instance.  The instances of a plan share [lits], [views]
   and [record]; runs never nest, so refilling [views] is safe. *)
type job = {
  dpos : int;
  dmark : mark;
  inst : Plan.instance;
  lits : lit array;
  views : Plan.view list array;
  record : Symbol.t -> Tuple.t -> unit;
}

let jobs t ~record plan =
  let record = record plan in
  let lit i l =
    match l with
    | Rule.Pos a | Rule.Neg a when Atom.is_builtin a -> Fixed []
    | Rule.Pos a | Rule.Neg a -> (
      match (l, find t (Atom.symbol a)) with
      | Rule.Pos _, Some m -> Grown m
      | _ -> Fixed (Plan.db_source t.db i (Atom.symbol a)))
  in
  let lits = Array.of_list (List.mapi lit plan.Plan.rule.Rule.body) in
  let views = Array.map (function Fixed v -> v | Grown _ -> []) lits in
  List.filter_map
    (fun (dpos, inst) ->
      match lits.(dpos) with
      | Grown dmark -> Some { dpos; dmark; inst; lits; views; record }
      | Fixed _ -> None)
    plan.Plan.delta

(* the views are fixed for the whole round: resolve them here, not on
   every probe *)
let run_job ?stats j =
  if j.dmark.o < j.dmark.d then begin
    Array.iteri
      (fun i -> function
        | Grown m ->
          let lo = if i = j.dpos then m.o else 0 and hi = if i < j.dpos then m.o else m.d in
          j.views.(i) <- [ { Plan.rel = m.rel; lo; hi } ]
        | Fixed _ -> ())
      j.lits;
    let source i _ = j.views.(i) in
    Plan.run ?stats ~source ~neg_source:source ~on_fact:j.record j.inst
  end

let rotate t = List.iter (fun (_, m) -> m.o <- m.d; m.d <- Relation.size m.rel) t.marks

let run ?stats t plans ~record ~round =
  rotate t;
  let has_delta () = List.exists (fun (_, m) -> m.o < m.d) t.marks in
  (* a seed round that derived nothing (most maintenance transactions)
     costs no job setup *)
  if has_delta () then begin
    let jobs = List.concat_map (jobs t ~record) plans in
    while has_delta () && round () do
      List.iter (run_job ?stats) jobs;
      rotate t
    done
  end
