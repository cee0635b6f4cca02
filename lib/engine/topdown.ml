open Datalog

type result = { answers : Tuple.t list; stats : Stats.t; complete : bool }

let fresh_counter = ref 0

let rename_rule r =
  incr fresh_counter;
  Rule.rename_apart ~suffix:(Fmt.str "~%d" !fresh_counter) r

(* ------------------------------------------------------------------ *)
(* Plain SLD resolution                                               *)
(* ------------------------------------------------------------------ *)

let sld ?(max_depth = 10_000) program ~edb query =
  let stats = Stats.create () in
  let derived = Program.derived program in
  let truncated = ref false in
  let answers = ref Tuple.Set.empty in
  let edb_source sym = Database.find edb sym in
  (* [k] receives the depth left, so a resolution step anywhere in a
     conjunction spends from one budget.  A rule body is solved as a
     frame of its own: its filters wait only for its own literals
     ({!Solve.select} raises once nothing else is left in the frame), and
     the caller's remaining goals run on each of its solutions. *)
  let rec solve goals subst depth k =
    match Solve.select ~lit:Fun.id subst goals with
    | None -> k subst depth
    | Some (Rule.Pos g, rest) when Atom.is_builtin g ->
      (* unification leaves a triangular substitution: resolve it fully *)
      Solve.eval_builtin (Atom.apply_deep_eval subst g) subst (fun s ->
          solve rest s depth k)
    | Some (Rule.Pos g, rest) ->
      if Symbol.Set.mem (Atom.symbol g) derived then begin
        if depth <= 0 then truncated := true
        else begin
          stats.Stats.subqueries <- stats.Stats.subqueries + 1;
          List.iter
            (fun (_, rule) ->
              let rule = rename_rule rule in
              stats.Stats.probes <- stats.Stats.probes + 1;
              match Atom.unify rule.Rule.head (Atom.apply subst g) subst with
              | None -> ()
              | Some subst' ->
                solve rule.Rule.body subst' (depth - 1) (fun s d -> solve rest s d k))
            (Program.rules_for program (Atom.symbol g))
        end
      end
      else
        List.iter
          (fun s -> solve rest s depth k)
          (Solve.match_against ~stats edb_source (Atom.apply_deep_eval subst g) subst)
    | Some (Rule.Neg g, rest) ->
      (* ground: [select] only returns a ready negated literal *)
      let a = Atom.apply_deep_eval subst g in
      let found = ref false in
      solve [ Rule.Pos a ] subst depth (fun _ _ -> found := true);
      if not !found then solve rest subst depth k
  in
  solve [ Rule.Pos query ] Subst.empty max_depth (fun subst _ ->
      let a = Atom.apply_deep_eval subst query in
      if Atom.is_ground a then begin
        let t = Tuple.of_list a.Atom.args in
        if not (Tuple.Set.mem t !answers) then begin
          answers := Tuple.Set.add t !answers;
          Stats.record_fact stats ~is_new:true
        end
      end);
  {
    answers = Tuple.Set.elements !answers;
    stats;
    complete = not !truncated;
  }

(* ------------------------------------------------------------------ *)
(* Extension-table (tabled) evaluation                                *)
(* ------------------------------------------------------------------ *)

(* A call key is the called atom with its variables canonically renamed,
   so that calls equal up to renaming share a table entry. *)
let call_key atom =
  let seen = Hashtbl.create 8 in
  let next = ref 0 in
  let canon t =
    Term.map_vars
      (fun x ->
        match Hashtbl.find_opt seen x with
        | Some v -> Term.Var v
        | None ->
          let v = Fmt.str "_%d" !next in
          incr next;
          Hashtbl.add seen x v;
          Term.Var v)
      t
  in
  { atom with Atom.args = List.map canon atom.Atom.args }

module CallMap = Map.Make (struct
  type t = Atom.t

  let compare = Atom.compare
end)

(* [proving]: the negated subgoals whose nested evaluations enclose this
   one; meeting one again means negation through recursion *)
let rec tabled_within ~proving ~max_passes program ~edb query =
  let stats = Stats.create () in
  let derived = Program.derived program in
  let edb_source sym = Database.find edb sym in
  let table : Tuple.Set.t ref CallMap.t ref = ref CallMap.empty in
  let changed = ref true in
  let register atom =
    let key = call_key atom in
    match CallMap.find_opt key !table with
    | Some answers -> answers
    | None ->
      stats.Stats.subqueries <- stats.Stats.subqueries + 1;
      let answers = ref Tuple.Set.empty in
      table := CallMap.add key answers !table;
      changed := true;
      answers
  in
  let add_answer call_answers tuple =
    if not (Tuple.Set.mem tuple !call_answers) then begin
      call_answers := Tuple.Set.add tuple !call_answers;
      Stats.record_fact stats ~is_new:true;
      changed := true
    end
    else Stats.record_fact stats ~is_new:false
  in
  (* A negated derived subgoal lies in a lower stratum, but its table here
     may still lack answers a later pass adds.  It is evaluated to
     completion in a table of its own (once per ground atom) before the
     test, so negation never reads an incomplete table. *)
  let complete = ref true in
  let proved = Hashtbl.create 8 in
  let is_proved a =
    match Hashtbl.find_opt proved a with
    | Some b -> b
    | None ->
      if List.exists (Atom.equal a) proving then
        raise
          (Solve.Unsafe
             (Fmt.str "negated literal %a depends on itself: the program is not stratifiable"
                Atom.pp a));
      let r = tabled_within ~proving:(a :: proving) ~max_passes program ~edb a in
      stats.Stats.probes <- stats.Stats.probes + r.stats.Stats.probes;
      stats.Stats.subqueries <- stats.Stats.subqueries + r.stats.Stats.subqueries;
      if not r.complete then complete := false;
      let b = r.answers <> [] in
      Hashtbl.add proved a b;
      b
  in
  (* evaluate the body of [rule] for call [g]; answers already in the table
     are used for derived subgoals, and new subgoals are registered so that
     the next pass evaluates them. *)
  let eval_call key answers =
    List.iter
      (fun (_, rule) ->
        let rule = rename_rule rule in
        stats.Stats.probes <- stats.Stats.probes + 1;
        match Atom.unify rule.Rule.head key Subst.empty with
        | None -> ()
        | Some subst ->
          let rec go lits subst =
            match Solve.select ~lit:Fun.id subst lits with
            | None ->
              let head = Atom.apply_deep_eval subst key in
              if Atom.is_ground head then
                add_answer answers (Tuple.of_list head.Atom.args)
            | Some (Rule.Pos g, rest) when Atom.is_builtin g ->
              Solve.eval_builtin (Atom.apply_deep_eval subst g) subst (fun s -> go rest s)
            | Some (Rule.Pos g, rest) ->
              if Symbol.Set.mem (Atom.symbol g) derived then begin
                let inst = Atom.apply_deep_eval subst g in
                let sub_answers = register inst in
                Tuple.Set.iter
                  (fun t ->
                    stats.Stats.probes <- stats.Stats.probes + 1;
                    match Subst.match_list
                            (List.map (fun u -> Term.eval (Subst.apply_deep subst u))
                               g.Atom.args)
                            (Tuple.to_list t) subst
                    with
                    | Some s -> go rest s
                    | None -> ())
                  !sub_answers
              end
              else
                List.iter
                  (fun s -> go rest s)
                  (Solve.match_against ~stats edb_source g subst)
            | Some (Rule.Neg g, rest) ->
              (* ground: [select] only returns a ready negated literal *)
              let a = Atom.apply_deep_eval subst g in
              let holds =
                if Symbol.Set.mem (Atom.symbol a) derived then is_proved a
                else
                  match edb_source (Atom.symbol a) with
                  | None -> false
                  | Some rel -> (
                    match Tuple.find_of_list a.Atom.args with
                    | None -> false
                    | Some t -> Relation.mem rel t)
              in
              if not holds then go rest subst
          in
          go rule.Rule.body subst)
      (Program.rules_for program (Atom.symbol key))
  in
  let root = register query in
  (* a query over a base predicate has no rules to table: its answers
     are the EDB's matches, as for a base subgoal *)
  if not (Symbol.Set.mem (Atom.symbol query) derived) then
    List.iter
      (fun subst ->
        let a = Atom.apply_deep_eval subst query in
        add_answer root (Tuple.of_list a.Atom.args))
      (Solve.match_against ~stats edb_source query Subst.empty);
  let passes = ref 0 in
  while !changed do
    changed := false;
    incr passes;
    stats.Stats.iterations <- stats.Stats.iterations + 1;
    if !passes > max_passes then begin
      complete := false;
      changed := false
    end
    else CallMap.iter (fun key answers -> eval_call key answers) !table
  done;
  (* project the root call's answers through the query's constants *)
  let matches t =
    Option.is_some (Subst.match_list query.Atom.args (Tuple.to_list t) Subst.empty)
  in
  {
    answers = List.filter matches (Tuple.Set.elements !root);
    stats;
    complete = !complete;
  }

let tabled ?(max_passes = 1_000_000) program ~edb query =
  tabled_within ~proving:[] ~max_passes program ~edb query
