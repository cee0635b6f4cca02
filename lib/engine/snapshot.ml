(* Epoch-stamped read snapshots: per-relation stamp watermarks, read
   through the [\[0, w)] range views of Relation.  See snapshot.mli for
   the aliasing/deletion caveats the serving layer builds on. *)

open Datalog

(* [live] is the relation's live count at capture: every live tuple then
   has a stamp below [w], so it is exactly the size of the [\[0, w)]
   view, and stays so under later insertions (they land at [>= w]) *)
type mark = { rel : Relation.t; w : int; live : int }
type t = { epoch : int; marks : mark Symbol.Tbl.t }

let capture ~epoch db =
  let marks = Symbol.Tbl.create 32 in
  List.iter
    (fun sym ->
      match Database.find db sym with
      | Some rel ->
        Symbol.Tbl.replace marks sym
          { rel; w = Relation.size rel; live = Relation.cardinal rel }
      | None -> ())
    (Database.symbols db);
  { epoch; marks }

let epoch t = t.epoch

let watermark t sym =
  match Symbol.Tbl.find_opt t.marks sym with Some m -> m.w | None -> 0

let iter t sym f =
  match Symbol.Tbl.find_opt t.marks sym with
  | None -> ()
  | Some m -> Relation.iter_in m.rel ~lo:0 ~hi:m.w f

let fold t sym f init =
  let acc = ref init in
  iter t sym (fun tu -> acc := f tu !acc);
  !acc

let mem_tuple t sym tuple =
  match Symbol.Tbl.find_opt t.marks sym with
  | None -> false
  | Some m -> Relation.mem_in m.rel ~lo:0 ~hi:m.w tuple

let mem t (a : Atom.t) =
  if not (Atom.is_ground a) then invalid_arg "Snapshot.mem: non-ground atom";
  match Tuple.find_of_list a.Atom.args with
  | None -> false
  | Some tu -> mem_tuple t (Atom.symbol a) tu

let cardinal t sym =
  match Symbol.Tbl.find_opt t.marks sym with Some m -> m.live | None -> 0

let total t = Symbol.Tbl.fold (fun _ m acc -> acc + m.live) t.marks 0

(* the captured relation an atom reads, with the atom's binding pattern
   (ground arguments are bound); [None] when there is nothing to read *)
let target t (a : Atom.t) =
  match Symbol.Tbl.find_opt t.marks (Atom.symbol a) with
  | Some m when Relation.arity m.rel = List.length a.Atom.args ->
    Some (m, Array.of_list (List.map Term.is_ground a.Atom.args))
  | _ -> None

let prepare t a =
  match target t a with
  | Some (m, pattern) -> Relation.prepare_index m.rel pattern
  | None -> ()

let prepared t a =
  match target t a with
  | Some (m, pattern) -> Relation.indexed m.rel pattern
  | None -> true

(* the free arguments are pairwise distinct variables: every tuple of
   the bound bucket matches, no per-tuple check is needed *)
let linear_free (args : Term.t list) =
  let rec go seen = function
    | [] -> true
    | Term.Var v :: rest -> (not (List.mem v seen)) && go (v :: seen) rest
    | arg :: rest -> Term.is_ground arg && go seen rest
  in
  go [] args

let matching t (a : Atom.t) =
  match target t a with
  | None -> []
  | Some (m, pattern) ->
    let args = a.Atom.args in
    let acc = ref [] in
    let keep =
      if linear_free args then fun tu -> acc := tu :: !acc
      else fun tu ->
        match Subst.match_list args (Tuple.to_list tu) Subst.empty with
        | Some _ -> acc := tu :: !acc
        | None -> ()
    in
    if not (Relation.indexed m.rel pattern) then
      invalid_arg
        (Fmt.str "Snapshot.matching: no index prepared for %a" Atom.pp a);
    (match Tuple.find_of_list (List.filter Term.is_ground args) with
    | Some key -> Relation.probe_in m.rel ~pattern ~key ~lo:0 ~hi:m.w keep
    | None -> ()  (* a constant that was never interned matches nothing *));
    List.sort Tuple.compare !acc
