open Datalog

type outcome = { db : Database.t; stats : Stats.t; diverged : bool }

type budget = { mutable left_iterations : int; mutable left_facts : int }

exception Budget_exhausted
(* raised from inside a round as soon as the fact budget hits zero, so that
   combinatorially exploding programs (e.g. counting over cyclic data) are
   cut off promptly rather than at the next round boundary *)

let make_budget ?max_iterations ?max_facts () =
  {
    left_iterations = Option.value ~default:max_int max_iterations;
    left_facts = Option.value ~default:max_int max_facts;
  }

let exhausted budget = budget.left_iterations <= 0 || budget.left_facts <= 0

let spend_fact budget =
  budget.left_facts <- budget.left_facts - 1;
  if budget.left_facts <= 0 then raise Budget_exhausted

let start_round ~stats ~budget =
  budget.left_iterations <- budget.left_iterations - 1;
  stats.Stats.iterations <- stats.Stats.iterations + 1

(* Group the program's rules by stratum; within a stratum both engines run
   a fixpoint.  Positive programs have a single stratum. *)
let strata program =
  match Program.stratify program with
  | Error e -> invalid_arg ("Eval: " ^ e)
  | Ok stratum_of ->
    let rules = Program.rules program in
    let levels =
      List.sort_uniq Int.compare
        (List.map (fun r -> stratum_of (Atom.symbol r.Rule.head)) rules)
    in
    List.map
      (fun level ->
        List.filter (fun r -> stratum_of (Atom.symbol r.Rule.head) = level) rules)
      levels

(* ------------------------------------------------------------------ *)
(* Plan-compiled engines                                               *)
(* ------------------------------------------------------------------ *)

(* One naive round: fire all plans against the full database.  Returns the
   number of new facts. *)
let naive_round ~stats ~budget db plans =
  let added = ref 0 in
  List.iter
    (fun plan ->
      (* resolved per plan: a relation an earlier plan created this round
         is read by the later ones *)
      let views = Plan.views plan.Plan.rule (fun _ _ -> Plan.stored db) in
      Plan.run ~stats ~views
        ~on_fact:(fun sym tuple ->
          let is_new = Relation.add_borrowed (Database.relation db sym) tuple in
          Stats.record_fact stats ~is_new;
          if is_new then begin
            incr added;
            spend_fact budget
          end)
        plan.Plan.base)
    plans;
  !added

let run_stratum_naive ~stats ~budget db rules =
  let plans = Plan.compile_stratum rules in
  let continue = ref true in
  let diverged = ref false in
  while !continue do
    if exhausted budget then begin
      diverged := true;
      continue := false
    end
    else begin
      start_round ~stats ~budget;
      let added = naive_round ~stats ~budget db plans in
      if added = 0 then continue := false
    end
  done;
  !diverged

(* Semi-naive over {!Fixpoint}: its base round, then its delta rounds. *)
let run_stratum_seminaive ~stats ~budget db rules =
  let plans = Plan.compile_stratum rules in
  let fp = Fixpoint.create db (List.map (fun r -> Atom.symbol r.Rule.head) rules) in
  (* one recorder per plan: the head predicate of every instance of a rule
     is the rule's own head predicate, so its relation can be resolved
     once per stratum *)
  let recorder plan =
    let hsym = Atom.symbol plan.Plan.rule.Rule.head in
    let hrel = Database.relation db hsym in
    fun sym tuple ->
      let is_new =
        Relation.add_borrowed
          (if Symbol.equal sym hsym then hrel else Database.relation db sym)
          tuple
      in
      Stats.record_fact stats ~is_new;
      if is_new then spend_fact budget
  in
  let diverged = ref false in
  let round () =
    diverged := exhausted budget;
    if not !diverged then start_round ~stats ~budget;
    not !diverged
  in
  (try
     if round () then begin
       Fixpoint.base_round ~stats fp plans ~record:recorder;
       Fixpoint.run ~stats fp plans ~record:recorder ~round
     end
   with Budget_exhausted | Term.Arithmetic_overflow ->
     (* every recorded fact is already in [db]; nothing to repair *)
     diverged := true);
  !diverged

(* ------------------------------------------------------------------ *)
(* Reference semi-naive (the seed engine's semantics)                  *)
(* ------------------------------------------------------------------ *)

(* Kept verbatim from the pre-plan engine (modulo the round-0 budget
   fix): [delta] holds the facts derived in the previous round; for each
   rule and each derived positive body literal position, evaluate with
   that literal reading [delta] and every other literal reading the full
   database.  This re-derives instantiations that join two previous-round
   facts once per delta position; it serves as the differential-testing
   baseline and the "before" engine of BENCH_engine.json. *)
let run_stratum_seminaive_reference ~stats ~budget ~derived db rules =
  let positions_of rule =
    List.filter_map
      (fun (i, lit) ->
        match lit with
        | Rule.Pos a when (not (Atom.is_builtin a)) && Symbol.Set.mem (Atom.symbol a) derived
          ->
          Some i
        | Rule.Pos _ | Rule.Neg _ -> None)
      (List.mapi (fun i lit -> (i, lit)) rule.Rule.body)
  in
  if exhausted budget then true
  else begin
    let round_facts = Database.create () in
    let record head =
      let is_new = (not (Database.mem db head)) && Database.add_fact round_facts head in
      Stats.record_fact stats ~is_new;
      if is_new then spend_fact budget
    in
    (* round 0: all rules fire against the database as-is (delta = EDB) *)
    start_round ~stats ~budget;
    List.iter
      (fun rule ->
        Solve.fire_rule ~stats ~source:(fun _ -> Database.find db)
          ~neg_source:(Database.find db) ~on_fact:record rule)
      rules;
    Database.merge_into ~dst:db ~src:round_facts;
    let delta = ref round_facts in
    let diverged = ref false in
    let continue = ref (Database.total !delta > 0) in
    while !continue do
      if exhausted budget then begin
        diverged := true;
        continue := false
      end
      else begin
        start_round ~stats ~budget;
        let next = Database.create () in
        let record head =
          let is_new = (not (Database.mem db head)) && Database.add_fact next head in
          Stats.record_fact stats ~is_new;
          if is_new then spend_fact budget
        in
        List.iter
          (fun rule ->
            List.iter
              (fun dpos ->
                let source i sym =
                  if i = dpos then Database.find !delta sym else Database.find db sym
                in
                Solve.fire_rule ~stats ~source ~neg_source:(Database.find db)
                  ~on_fact:record rule)
              (positions_of rule))
          rules;
        Database.merge_into ~dst:db ~src:next;
        delta := next;
        if Database.total !delta = 0 then continue := false
      end
    done;
    !diverged
  end

(* ------------------------------------------------------------------ *)

let answers outcome query =
  match (Database.find outcome.db (Atom.symbol query), Tuple.matcher query.Atom.args) with
  | None, _ | _, None -> []
  | Some rel, Some matches ->
    List.sort Tuple.compare
      (Relation.fold (fun t acc -> if matches t then t :: acc else acc) rel [])

let run ~engine ?max_iterations ?max_facts ?(seeds = []) program ~edb =
  let stats = Stats.create () in
  let budget = make_budget ?max_iterations ?max_facts () in
  let db = Database.copy edb in
  List.iter (fun seed -> ignore (Database.add_fact db seed)) seeds;
  let derived = Program.derived program in
  let diverged =
    List.fold_left
      (fun div rules ->
        let d =
          try
            match engine with
            | `Naive -> run_stratum_naive ~stats ~budget db rules
            | `Seminaive -> run_stratum_seminaive ~stats ~budget db rules
            | `Seminaive_reference ->
              run_stratum_seminaive_reference ~stats ~budget ~derived db rules
          with Budget_exhausted | Term.Arithmetic_overflow -> true
        in
        div || d)
      false (strata program)
  in
  { db; stats; diverged }

let naive ?max_iterations ?max_facts ?seeds program ~edb =
  run ~engine:`Naive ?max_iterations ?max_facts ?seeds program ~edb

let seminaive ?max_iterations ?max_facts ?seeds program ~edb =
  run ~engine:`Seminaive ?max_iterations ?max_facts ?seeds program ~edb

let seminaive_reference ?max_iterations ?max_facts ?seeds program ~edb =
  run ~engine:`Seminaive_reference ?max_iterations ?max_facts ?seeds program ~edb
