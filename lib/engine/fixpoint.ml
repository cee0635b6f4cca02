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

(* A plan's views array, with every literal that reads a fixed relation
   resolved once for the whole fixpoint, and the positions of its
   grown predicates, refilled before each run. *)
let prepare t plan =
  let grown = ref [] in
  let views =
    Plan.views plan.Plan.rule (fun i lit sym ->
        match (lit, find t sym) with
        | Rule.Pos _, Some m ->
          grown := (i, m) :: !grown;
          []
        | _ -> Plan.stored t.db sym)
  in
  (views, !grown)

let base_round ?stats t plans ~record =
  List.iter
    (fun plan ->
      let views, grown = prepare t plan in
      List.iter (fun (i, m) -> views.(i) <- [ { Plan.rel = m.rel; lo = 0; hi = m.d } ]) grown;
      Plan.run ?stats ~views ~on_fact:(record plan) plan.Plan.base)
    plans

(* One delta instance.  The instances of a plan share [grown], [views]
   and [record]; runs never nest, so refilling [views] is safe. *)
type job = {
  dpos : int;
  dmark : mark;
  inst : Plan.instance;
  grown : (int * mark) list;
  views : Plan.view list array;
  record : Symbol.t -> Tuple.t -> unit;
}

let jobs t ~record plan =
  let record = record plan in
  let views, grown = prepare t plan in
  List.filter_map
    (fun (dpos, inst) ->
      Option.map
        (fun dmark -> { dpos; dmark; inst; grown; views; record })
        (List.assoc_opt dpos grown))
    plan.Plan.delta

(* grown predicates read old before the delta position, delta at it and
   new after it *)
let run_job ?stats j =
  if j.dmark.o < j.dmark.d then begin
    List.iter
      (fun (i, m) ->
        let lo = if i = j.dpos then m.o else 0 and hi = if i < j.dpos then m.o else m.d in
        j.views.(i) <- [ { Plan.rel = m.rel; lo; hi } ])
      j.grown;
    Plan.run ?stats ~views:j.views ~on_fact:j.record j.inst
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
