open Datalog

type t =
  | Leaf of Atom.t
  | Node of { fact : Atom.t; rule : Rule.t; premises : t list }

let fact = function Leaf a -> a | Node { fact; _ } -> fact

let rec depth = function
  | Leaf _ -> 1
  | Node { premises; _ } ->
    1 + List.fold_left (fun acc p -> max acc (depth p)) 0 premises

let rec size = function
  | Leaf _ -> 1
  | Node { premises; _ } -> 1 + List.fold_left (fun acc p -> acc + size p) 0 premises

(* Rank every derived fact of [db] by the round in which a (re-played)
   naive evaluation first derives it.  By construction, a fact of rank r
   has a rule instance whose derived premises all have rank < r, so
   reconstruction guided by ranks terminates without backtracking over
   cyclic support. *)
let compute_ranks program db =
  let derived = Program.derived program in
  let ranks : int Tuple.Tbl.t Symbol.Tbl.t = Symbol.Tbl.create 16 in
  let rank_tbl sym =
    match Symbol.Tbl.find_opt ranks sym with
    | Some t -> t
    | None ->
      let t = Tuple.Tbl.create 64 in
      Symbol.Tbl.replace ranks sym t;
      t
  in
  (* the replay database: base relations to start with *)
  let work = Database.create () in
  List.iter
    (fun a ->
      if not (Symbol.Set.mem (Atom.symbol a) derived) then
        ignore (Database.add_fact work a))
    (Database.all_facts db);
  let round = ref 0 in
  let continue = ref true in
  while !continue do
    incr round;
    let additions = ref [] in
    List.iter
      (fun rule ->
        try
          Solve.fire_rule
            ~source:(fun _ sym -> Database.find work sym)
            ~neg_source:(fun sym -> Database.find db sym)
            ~on_fact:(fun head ->
              if not (Database.mem work head) then additions := head :: !additions)
            rule
        with Solve.Unsafe _ -> ())
      (Program.rules program);
    let fresh =
      List.filter (fun head -> Database.add_fact work head) !additions
    in
    List.iter
      (fun head ->
        let tuple = Tuple.of_list (List.map Term.eval head.Atom.args) in
        let tbl = rank_tbl (Atom.symbol head) in
        if not (Tuple.Tbl.mem tbl tuple) then Tuple.Tbl.replace tbl tuple !round)
      fresh;
    if fresh = [] then continue := false
  done;
  fun atom ->
    let sym = Atom.symbol atom in
    if not (Symbol.Set.mem sym derived) then Some 0
    else
      match Symbol.Tbl.find_opt ranks sym with
      | None -> None
      | Some tbl -> (
        match Tuple.find_of_list (List.map Term.eval atom.Atom.args) with
        | None -> None
        | Some tuple -> Tuple.Tbl.find_opt tbl tuple)

let derive program db goal =
  let derived = Program.derived program in
  let is_derived a = Symbol.Set.mem (Atom.symbol a) derived in
  let rank = compute_ranks program db in
  let counter = ref 0 in
  let rename r =
    incr counter;
    Rule.rename_apart ~suffix:(Fmt.str "~e%d" !counter) r
  in
  let rec explain goal =
    if not (Atom.is_ground goal) then None
    else if not (is_derived goal) then
      if Database.mem db goal then Some (Leaf goal) else None
    else begin
      match rank goal with
      | None -> None
      | Some r ->
        List.find_map
          (fun (_, rule) ->
            let rule = rename rule in
            match Atom.unify rule.Rule.head goal Subst.empty with
            | None -> None
            | Some subst -> begin
              let lits = List.mapi (fun i l -> (i, l)) rule.Rule.body in
              match body ~bound:r rule subst lits [] with
              | Some (premises, subst) ->
                let inst = Atom.apply_deep_eval subst rule.Rule.head in
                if Atom.equal inst goal then begin
                  let instantiated =
                    Rule.make
                      (Atom.apply_deep_eval subst rule.Rule.head)
                      (List.map
                         (Rule.map_literal (Atom.apply_deep_eval subst))
                         rule.Rule.body)
                  in
                  (* premises in body order, as [check] reads them *)
                  let premises =
                    List.map snd (List.sort (fun (i, _) (j, _) -> Int.compare i j) premises)
                  in
                  Some (Node { fact = goal; rule = instantiated; premises })
                end
                else None
              | None -> None
            end)
          (Program.rules_for program (Atom.symbol goal))
    end
  (* solve the body in the executor's order ({!Solve.select}: filters once
     ready), collecting each premise with its body position; derived
     premises must have rank strictly below [bound], which guarantees
     termination *)
  and body ~bound rule subst lits acc =
    match Solve.select ~lit:snd subst lits with
    | exception Solve.Unsafe _ -> None
    | None -> Some (acc, subst)
    | Some ((i, Rule.Pos a), rest) when Atom.is_builtin a -> begin
      let results = ref [] in
      (try
         Solve.eval_builtin (Atom.apply_deep_eval subst a) subst (fun s ->
             results := s :: !results)
       with Solve.Unsafe _ -> ());
      List.find_map
        (fun s ->
          let inst = Atom.apply_deep_eval s a in
          body ~bound rule s rest ((i, Leaf inst) :: acc))
        !results
    end
    | Some ((i, Rule.Pos a), rest) ->
      let inst = Atom.apply_deep_eval subst a in
      let candidates =
        match Database.find db (Atom.symbol inst) with
        | None -> []
        | Some rel -> (
          let args = inst.Atom.args in
          let pattern = Array.of_list (List.map Term.is_ground args) in
          match Tuple.find_of_list (List.filter Term.is_ground args) with
          | None -> []
          | Some key -> Relation.lookup rel ~pattern ~key)
      in
      List.find_map
        (fun tuple ->
          match Subst.match_list inst.Atom.args (Tuple.to_list tuple) subst with
          | None -> None
          | Some s -> begin
            let sub_goal = Atom.make inst.Atom.pred (Tuple.to_list tuple) in
            let admissible =
              (not (is_derived sub_goal))
              || (match rank sub_goal with Some r -> r < bound | None -> false)
            in
            if not admissible then None
            else
              match explain sub_goal with
              | None -> None
              | Some premise -> body ~bound rule s rest ((i, premise) :: acc)
          end)
        candidates
    | Some ((i, Rule.Neg a), rest) ->
      let inst = Atom.apply_deep_eval subst a in
      if Atom.is_ground inst && not (Database.mem db inst) then
        body ~bound rule subst rest
          ((i, Leaf (Atom.make ("not " ^ inst.Atom.pred) inst.Atom.args)) :: acc)
      else None
  in
  let goal = Atom.apply_eval Subst.empty goal in
  explain goal

let check program db tree =
  let derived = Program.derived program in
  let rec go t =
    match t with
    | Leaf a ->
      (* base fact, negation witness, or builtin *)
      Atom.is_builtin a
      || (not (Symbol.Set.mem (Atom.symbol a) derived))
      || String.length a.Atom.pred >= 4
         && String.sub a.Atom.pred 0 4 = "not "
    | Node { fact; rule; premises } ->
      let body_ok =
        List.length rule.Rule.body = List.length premises
        && List.for_all2
             (fun lit premise ->
               match lit with
               | Rule.Pos a when Atom.is_builtin a -> begin
                 let inst = fact_of premise in
                 let holds = ref false in
                 (try Solve.eval_builtin inst Subst.empty (fun _ -> holds := true)
                  with Solve.Unsafe _ -> ());
                 !holds
               end
               | Rule.Pos a -> Atom.equal (Atom.apply_eval Subst.empty a) (fact_of premise)
               | Rule.Neg a ->
                 (not (Database.mem db a)) && Atom.is_ground a)
             rule.Rule.body premises
      in
      Atom.equal (Atom.apply_eval Subst.empty rule.Rule.head) fact
      && body_ok
      && List.for_all go premises
  and fact_of t = fact t in
  go tree

let rec pp ppf t =
  match t with
  | Leaf a -> Fmt.pf ppf "%a" Atom.pp a
  | Node { fact; rule; premises } ->
    Fmt.pf ppf "@[<v 2>%a   [by %a]%a@]" Atom.pp fact Rule.pp rule
      (fun ppf ps -> List.iter (fun p -> Fmt.pf ppf "@,%a" pp p) ps)
      premises
