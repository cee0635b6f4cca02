(* Incremental view maintenance over the plan-compiled engine.

   A {!t} holds a materialized database (EDB plus every derived
   relation) for one program, and {!apply} repairs the derived relations
   under a batch of insertions and deletions instead of recomputing them.
   The algorithm is chosen per dependency unit — the strongly connected
   components of the predicate dependency graph, processed callees-first
   (a refinement of the stratification, so negated predicates are always
   fully repaired before their readers):

   - {e counting} for non-recursive predicates: a per-tuple support
     count (number of distinct rule-body valuations deriving the tuple,
     plus one if it is externally asserted) is maintained exactly, so a
     tuple is deleted precisely when its last derivation disappears.
     Lost and gained valuations are enumerated exactly once by a
     two-pass delta discipline over stamp-range views (see
     [run_counting_pass]);

   - {e DRed} (delete-and-rederive) for recursive units, where counts
     are not finite-maintainable: over-delete everything reachable from
     the deleted tuples, rederive what has an alternative proof in the
     remaining state, then run a semi-naive insertion fixpoint.

   Relations are updated in place using the deletion discipline of
   {!Engine.Relation}: removing a tuple tombstones its log slot, so a
   watermark [w] taken after a unit's deletions and before its
   insertions splits the stored relation into the carried-over state
   [\[0, w)] and the inserted delta [\[w, size)] — and together with the
   transaction's deleted-tuple relations this expresses the pre-update
   ("old"), shared ("mid") and post-update ("new") versions of every
   relation as unions of stamp-range views, with no copying. *)

open Datalog
module Db = Engine.Database
module Rel = Engine.Relation
module Tup = Engine.Tuple
module Plan = Engine.Plan
module Stats = Engine.Stats

type op = Insert of Atom.t | Delete of Atom.t

exception Budget_exhausted

type stats = { probes : int; delta_firings : int; overdeleted : int; rederived : int }

let no_stats = { probes = 0; delta_firings = 0; overdeleted = 0; rederived = 0 }

let pp_stats ppf s =
  Fmt.pf ppf "probes=%d overdeleted=%d rederived=%d delta_firings=%d" s.probes s.overdeleted
    s.rederived s.delta_firings

(* a transaction's running {!stats}; the plan executor counts probes
   in [eng] *)
type counters = {
  eng : Stats.t;
  mutable delta_firings : int;
  mutable overdeleted : int;
  mutable rederived : int;
}

let fired stats = stats.delta_firings <- stats.delta_firings + 1

(* Per-transaction change summary: the net effect on every touched
   relation (base and derived alike), built from the repair state the
   delta passes compute anyway.  [d_added] materializes the inserted
   tuples so callers (the serving layer's cache repair) can append them
   to derived views; it is [None] when the insertion delta exceeds
   [added_cap] — summarizing stays O(delta), and a caller that needed
   the rows falls back to recomputation. *)
type delta = {
  d_pred : Symbol.t;
  d_inserted : int;
  d_deleted : int;
  d_added : Tup.t list option;
}

type summary = delta list

let added_cap = 10_000

let touched summary =
  List.fold_left
    (fun acc d -> Symbol.Set.add d.d_pred acc)
    Symbol.Set.empty summary

let has_deletions summary = List.exists (fun d -> d.d_deleted > 0) summary

(* One rule compiled for maintenance: delta instances at every positive
   non-builtin body position (any stored predicate may change), plus,
   for each negated body position, a delta instance of the transformed
   rule where that literal is replaced by a positive scan of a fresh
   [$dneg$] predicate — bound at run time to the tuples entering
   (deletion pass) or leaving (insertion pass) the negated relation. *)
type mrule = {
  rule : Rule.t;
  body : Rule.literal array;
  plan : Plan.t;
  neg_deltas : (int * Symbol.t * Plan.instance) list;
}

(* DRed's rederivation check for one rule: does the rule derive a given
   head tuple from the current state?  [Goal] is the rule compiled with
   a [$goal$p(head args)] literal prepended to its body and taken as the
   delta instance at that position, so a scan of the one-tuple goal
   relation binds the head variables and the bound-first ordering turns
   the rest of the body into probes — a point lookup even for GMS magic
   rules, whose head variable the last body literal binds.  A head with
   arithmetic or compound arguments cannot be a scan pattern; its rule
   runs the [Enumerate]d base instance and compares every emitted tuple. *)
type check = Goal of Plan.instance | Enumerate of Plan.instance

type kind = Counting | DRed

type unit_ = {
  syms : Symbol.t list;
  kind : kind;
  rules : mrule list;
  checks : (Symbol.t * check list) list;  (* per head predicate; DRed only *)
}

(* The per-transaction repair state of one updated relation: its deleted
   tuples and the watermark separating carried-over stamps from inserted
   ones.  old = [0, w) + dminus;  mid = [0, w);  new = [0, size). *)
type change = { dminus : Rel.t; w : int }

type t = {
  db : Db.t;
  derived : Symbol.Set.t;
  units : unit_ list;
  counts : int ref Tup.Tbl.t Symbol.Tbl.t;  (* counting predicates only *)
  external_ : Rel.t Symbol.Tbl.t;
      (* externally asserted tuples of derived predicates (e.g. magic
         seeds): one unit of support not due to any rule *)
}

let db t = t.db

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let body_pred lit =
  match lit with
  | Rule.Pos a when not (Atom.is_builtin a) -> Some (Atom.symbol a)
  | Rule.Pos _ | Rule.Neg _ -> None

let compile_mrule rule =
  let body = Array.of_list rule.Rule.body in
  let delta_preds =
    Array.fold_left
      (fun acc lit ->
        match body_pred lit with Some s -> Symbol.Set.add s acc | None -> acc)
      Symbol.Set.empty body
  in
  let plan = Plan.compile ~delta_preds rule in
  let neg_deltas =
    List.concat
      (List.mapi
         (fun i lit ->
           match lit with
           | Rule.Neg a when not (Atom.is_builtin a) ->
             let dneg = Atom.make ("$dneg$" ^ a.Atom.pred) a.Atom.args in
             let body' =
               List.mapi (fun j l -> if j = i then Rule.Pos dneg else l) rule.Rule.body
             in
             let rule' = Rule.make rule.Rule.head body' in
             let plan' =
               Plan.compile ~delta_preds:(Symbol.Set.singleton (Atom.symbol dneg)) rule'
             in
             (match plan'.Plan.delta with
             | [ (j, inst) ] when j = i -> [ (i, Atom.symbol a, inst) ]
             | _ -> assert false)
           | Rule.Pos _ | Rule.Neg _ -> [])
         rule.Rule.body)
  in
  { rule; body; plan; neg_deltas }

let compile_check mr =
  let head = mr.rule.Rule.head in
  let scannable = function Term.Var _ | Term.Int _ | Term.Sym _ -> true | _ -> false in
  if List.for_all scannable head.Atom.args then begin
    let goal = Atom.make ("$goal$" ^ head.Atom.pred) head.Atom.args in
    let rule' = Rule.make head (Rule.Pos goal :: mr.rule.Rule.body) in
    match
      (Plan.compile ~delta_preds:(Symbol.Set.singleton (Atom.symbol goal)) rule')
        .Plan.delta
    with
    | [ (0, inst) ] -> Goal inst
    | _ -> assert false
  end
  else Enumerate mr.plan.Plan.base

(* ------------------------------------------------------------------ *)
(* Stamp-range views of the transaction's three relation versions      *)
(* ------------------------------------------------------------------ *)

let full_views db sym =
  match Db.find db sym with Some r -> [ Plan.full r ] | None -> []

let changed changes sym = Symbol.Tbl.find_opt changes sym

(* pre-update state: carried-over stamps plus the deleted tuples *)
let old_views t changes sym =
  match changed changes sym with
  | None -> full_views t.db sym
  | Some c ->
    let base =
      match Db.find t.db sym with
      | Some r -> [ { Plan.rel = r; lo = 0; hi = c.w } ]
      | None -> []
    in
    if Rel.cardinal c.dminus > 0 then Plan.full c.dminus :: base else base

(* tuples in both the old and the new state *)
let mid_views t changes sym =
  match changed changes sym with
  | None -> full_views t.db sym
  | Some c -> (
    match Db.find t.db sym with
    | Some r -> [ { Plan.rel = r; lo = 0; hi = c.w } ]
    | None -> [])

let new_views t sym = full_views t.db sym

(* membership union for a negated literal's "mid" version: a valuation
   passes [not q] in both old and new states iff its tuple is in
   neither, i.e. absent from old(q) ∪ new(q) = cur ∪ dminus *)
let neg_mid_views t changes sym =
  match changed changes sym with
  | None -> full_views t.db sym
  | Some c ->
    let base = full_views t.db sym in
    if Rel.cardinal c.dminus > 0 then Plan.full c.dminus :: base else base

(* the tuples entering a relation this transaction *)
let dplus_views t changes sym =
  match changed changes sym with
  | None -> []
  | Some c -> (
    match Db.find t.db sym with
    | Some r when Rel.size r > c.w -> [ { Plan.rel = r; lo = c.w; hi = max_int } ]
    | _ -> [])

let dminus_views changes sym =
  match changed changes sym with
  | Some c when Rel.cardinal c.dminus > 0 -> [ Plan.full c.dminus ]
  | _ -> []

(* Run [f i dviews inst] for every delta instance of [rules] whose delta
   position [i] reads a predicate outside [unit]: [dviews] is [pos sym]
   for a positive literal over [sym], [neg q] for a negated one over
   [q] (the tuples leaving or entering [q] flip the literal's truth). *)
let iter_deltas ?(unit = Symbol.Set.empty) rules ~pos ~neg f =
  List.iter
    (fun mr ->
      List.iter
        (fun (i, inst) ->
          match body_pred mr.body.(i) with
          | Some sym when not (Symbol.Set.mem sym unit) -> f i (pos sym) inst
          | Some _ | None -> ())
        mr.plan.Plan.delta;
      List.iter (fun (i, q, inst) -> f i (neg q) inst) mr.neg_deltas)
    rules

(* ------------------------------------------------------------------ *)
(* Counting maintenance (non-recursive predicates)                     *)
(* ------------------------------------------------------------------ *)

(* Enumerate, exactly once each, the rule-body valuations lost
   ([`Lost]: hold in the old state but not the new) or gained
   ([`Gained]: hold in the new state but not the old) under the
   transaction recorded in [changes].  The discipline is the standard
   telescoping decomposition with per-literal "mid" = old ∩ new:

     lost    position i reads Δ⁻(bᵢ), j < i read mid, j > i read old
     gained  position i reads Δ⁺(bᵢ), j < i read new, j > i read mid

   where for a positive literal Δ⁻/Δ⁺ are the relation's net deleted /
   inserted tuples, and for a negated literal [not q] they are the
   tuples {e entering} / {e leaving} q (a valuation stops passing
   [not q] when its tuple appears).  Every lost or gained valuation is
   enumerated at exactly one position — its first differing literal —
   so applying -1/+1 per enumeration maintains exact support counts. *)
let run_counting_pass t ~stats ~changes ~pass rules ~on =
  let source_for dpos dviews lit sym =
    if lit = dpos then dviews
    else
      match pass with
      | `Lost -> if lit < dpos then mid_views t changes sym else old_views t changes sym
      | `Gained -> if lit < dpos then new_views t sym else mid_views t changes sym
  in
  let neg_source_for dpos lit sym =
    if lit = dpos then assert false
    else
      match pass with
      | `Lost ->
        if lit < dpos then neg_mid_views t changes sym else old_views t changes sym
      | `Gained -> if lit < dpos then new_views t sym else neg_mid_views t changes sym
  in
  let run_with dpos dviews inst =
    if dviews <> [] then
      Plan.run ~stats:stats.eng ~source:(source_for dpos dviews)
        ~neg_source:(neg_source_for dpos)
        ~on_fact:(fun _ tuple ->
          fired stats;
          on tuple)
        inst
  in
  match pass with
  | `Lost -> iter_deltas rules ~pos:(dminus_views changes) ~neg:(dplus_views t changes) run_with
  | `Gained -> iter_deltas rules ~pos:(dplus_views t changes) ~neg:(dminus_views changes) run_with

let counts_for t p =
  match Symbol.Tbl.find_opt t.counts p with
  | Some tbl -> tbl
  | None ->
    let tbl = Tup.Tbl.create 32 in
    Symbol.Tbl.add t.counts p tbl;
    tbl

(* [p]'s relation in a per-predicate table, created empty if absent *)
let rel_in tbl p =
  match Symbol.Tbl.find_opt tbl p with
  | Some r -> r
  | None ->
    let r = Rel.create p.Symbol.arity in
    Symbol.Tbl.add tbl p r;
    r

let external_for t p = rel_in t.external_ p

let spend budget =
  match budget with
  | None -> ()
  | Some left ->
    decr left;
    if !left < 0 then raise Budget_exhausted

let process_counting t ~stats ~changes ~ext_ops ~budget u =
  let p = match u.syms with [ p ] -> p | _ -> assert false in
  let prel = Db.relation t.db p in
  (* [order] keeps first-touch order, so the tally is read back
     independently of hash order *)
  let tally = Tup.Tbl.create 16 in
  let order = ref [] in
  let bump tuple d =
    match Tup.Tbl.find_opt tally tuple with
    | Some r -> r := !r + d
    | None ->
      Tup.Tbl.add tally tuple (ref d);
      order := tuple :: !order
  in
  (* external assertions carry one unit of support each *)
  (match Symbol.Tbl.find_opt ext_ops p with
  | Some (dels, adds) ->
    let ext = external_for t p in
    List.iter (fun tu -> if Rel.remove ext tu then bump tu (-1)) dels;
    List.iter (fun tu -> if Rel.add ext tu then bump tu 1) adds
  | None -> ());
  run_counting_pass t ~stats ~changes ~pass:`Lost u.rules ~on:(fun tu -> bump tu (-1));
  run_counting_pass t ~stats ~changes ~pass:`Gained u.rules ~on:(fun tu -> bump tu 1);
  let counts = counts_for t p in
  let dminus = Rel.create (Rel.arity prel) in
  let enters = ref [] in
  List.iter
    (fun tuple ->
      let d = Tup.Tbl.find tally tuple in
      if !d <> 0 then begin
        let c0 = match Tup.Tbl.find_opt counts tuple with Some n -> !n | None -> 0 in
        let c1 = c0 + !d in
        if c1 > 0 then Tup.Tbl.replace counts tuple (ref c1)
        else Tup.Tbl.remove counts tuple;
        if c0 > 0 && c1 <= 0 then begin
          ignore (Rel.remove prel tuple);
          ignore (Rel.add dminus tuple)
        end
        else if c0 <= 0 && c1 > 0 then enters := tuple :: !enters
      end)
    (List.rev !order);
  let w = Rel.size prel in
  List.iter
    (fun tuple ->
      if Rel.add prel tuple then spend budget)
    !enters;
  if Rel.cardinal dminus > 0 || Rel.size prel > w then
    Symbol.Tbl.replace changes p { dminus; w }

(* ------------------------------------------------------------------ *)
(* DRed maintenance (recursive units)                                  *)
(* ------------------------------------------------------------------ *)

(* Does any of [checks] (the rules for [sym]) derive [tuple] in the
   database's current state?  Used by the rederivation step.  A [Goal]
   check reads the one-tuple goal relation at body position 0 and the
   current database everywhere else, negated literals included. *)
let derivable t ~stats checks sym tuple =
  (match Symbol.Tbl.find_opt t.external_ sym with
  | Some ext -> Rel.mem ext tuple
  | None -> false)
  || begin
    let exception Found in
    let on_fact _ tu = if Tup.equal tu tuple then raise Found in
    let db_views _ s = full_views t.db s in
    let goal = Rel.create (Array.length tuple) in
    ignore (Rel.add goal tuple);
    let run = function
      | Goal inst ->
        Plan.run ~stats:stats.eng
          ~source:(fun lit s -> if lit = 0 then [ Plan.full goal ] else db_views lit s)
          ~neg_source:db_views ~on_fact inst
      | Enumerate inst ->
        Plan.run ~stats:stats.eng ~source:db_views ~neg_source:db_views ~on_fact inst
    in
    List.exists
      (fun c ->
        match run c with
        | () -> false
        | exception Found -> true
        | exception Engine.Solve.Unsafe _ -> false)
      checks
  end

let process_dred t ~stats ~changes ~ext_ops ~budget u =
  let usyms = Symbol.Set.of_list u.syms in
  let in_u sym = Symbol.Set.mem sym usyms in
  let rel_of sym = Db.relation t.db sym in
  (* ---- phase 1: overdeletion (nothing is physically removed yet, so
     every non-delta literal reads the old state in place); the
     overdeleted sets are relations, so later phases read them in
     marking order, not hash order ---- *)
  let over = Symbol.Tbl.create 4 and next = Symbol.Tbl.create 4 in
  let over_rel = rel_in over in
  let mark sym tuple =
    if Rel.mem (rel_of sym) tuple && Rel.add (over_rel sym) tuple then
      ignore (Rel.add (rel_in next sym) tuple)
  in
  (* external retractions lose their unit of support; rederivation
     restores the tuple if some rule still proves it *)
  List.iter
    (fun p ->
      match Symbol.Tbl.find_opt ext_ops p with
      | Some (dels, _) ->
        let ext = external_for t p in
        List.iter (fun tu -> if Rel.remove ext tu then mark p tu) dels
      | None -> ())
    u.syms;
  let old_v _ sym = if in_u sym then full_views t.db sym else old_views t changes sym in
  let overdelete_with dpos dviews inst =
    if dviews <> [] then
      Plan.run ~stats:stats.eng
        ~source:(fun lit sym -> if lit = dpos then dviews else old_v lit sym)
        ~neg_source:(fun _ sym -> old_views t changes sym)
        ~on_fact:(fun sym tuple ->
          fired stats;
          mark sym tuple)
        inst
  in
  (* seed round: deltas of already-repaired lower units *)
  iter_deltas ~unit:usyms u.rules ~pos:(dminus_views changes) ~neg:(dplus_views t changes)
    overdelete_with;
  (* propagate through the unit's own predicates to fixpoint *)
  let continue = ref (Symbol.Tbl.length next > 0) in
  while !continue do
    let deltas = Symbol.Tbl.copy next in
    Symbol.Tbl.reset next;
    List.iter
      (fun mr ->
        List.iter
          (fun (i, inst) ->
            let sym =
              match body_pred mr.body.(i) with Some s -> s | None -> assert false
            in
            if in_u sym then
              match Symbol.Tbl.find_opt deltas sym with
              | Some drel when Rel.cardinal drel > 0 ->
                overdelete_with i [ Plan.full drel ] inst
              | _ -> ())
          mr.plan.Plan.delta)
      u.rules;
    continue := Symbol.Tbl.length next > 0
  done;
  (* ---- phase 2: apply the overdeletions ---- *)
  Symbol.Tbl.iter
    (fun sym r ->
      stats.overdeleted <- stats.overdeleted + Rel.cardinal r;
      let rel = rel_of sym in
      Rel.iter (fun tu -> ignore (Rel.remove rel tu)) r)
    over;
  (* ---- phase 3: rederivation worklist — a tuple comes back iff it is
     externally supported or some rule proves it from what remains;
     each restoration can enable further ones ---- *)
  let progress = ref true in
  while !progress do
    progress := false;
    Symbol.Tbl.iter
      (fun sym r ->
        let rel = rel_of sym in
        let checks =
          match List.find_opt (fun (p, _) -> Symbol.equal p sym) u.checks with
          | Some (_, cs) -> cs
          | None -> []
        in
        Rel.iter
          (fun tu ->
            if (not (Rel.mem rel tu)) && derivable t ~stats checks sym tu then begin
              ignore (Rel.add rel tu);
              stats.rederived <- stats.rederived + 1;
              progress := true
            end)
          r)
      over
  done;
  (* external assertions of tuples that were just overdeleted restore
     them in place (they are present in both old and new states, so
     they must land below the watermark, not in the inserted delta) *)
  List.iter
    (fun p ->
      match Symbol.Tbl.find_opt ext_ops p with
      | Some (_, adds) ->
        let ext = external_for t p in
        let over_p = over_rel p in
        List.iter
          (fun tu ->
            if Rel.mem over_p tu then begin
              ignore (Rel.add ext tu);
              ignore (Rel.add (rel_of p) tu)
            end)
          adds
      | None -> ())
    u.syms;
  (* ---- phase 4: watermarks, net deletions, external insertions ---- *)
  let fp = Engine.Fixpoint.create t.db u.syms in
  let marks =
    List.map
      (fun p ->
        let rel = rel_of p in
        let dminus = Rel.create (Rel.arity rel) in
        Rel.iter (fun tu -> if not (Rel.mem rel tu) then ignore (Rel.add dminus tu)) (over_rel p);
        (p, rel, Rel.size rel, dminus))
      u.syms
  in
  List.iter
    (fun p ->
      match Symbol.Tbl.find_opt ext_ops p with
      | Some (_, adds) ->
        let ext = external_for t p in
        let rel = rel_of p in
        List.iter
          (fun tu ->
            ignore (Rel.add ext tu);
            if Rel.add rel tu then spend budget)
          adds
      | None -> ())
    u.syms;
  List.iter (fun (p, _, w, dminus) -> Symbol.Tbl.replace changes p { dminus; w }) marks;
  (* ---- phase 5: semi-naive insertion fixpoint ---- *)
  let record sym tuple =
    fired stats;
    if Rel.add (rel_of sym) tuple then spend budget
  in
  (* seed round: insertion deltas of lower units, with the unit's own
     predicates read up to the watermark; external insertions and seed
     derivations both land beyond it and form the first delta window *)
  let seed_with dpos dviews inst =
    if dviews <> [] then
      Plan.run ~stats:stats.eng
        ~source:(fun lit sym ->
          if lit = dpos then dviews
          else
            match Engine.Fixpoint.upto fp sym with
            | Some v -> v
            | None -> if lit < dpos then new_views t sym else mid_views t changes sym)
        ~neg_source:(fun lit sym ->
          if lit < dpos then new_views t sym else neg_mid_views t changes sym)
        ~on_fact:record inst
  in
  iter_deltas ~unit:usyms u.rules ~pos:(dplus_views t changes) ~neg:(dminus_views changes)
    seed_with;
  Engine.Fixpoint.run ~stats:stats.eng fp
    (List.map (fun mr -> mr.plan) u.rules)
    ~record:(fun _ -> record)
    ~round:(fun () -> true);
  (* drop entries that turned out to be no-ops *)
  List.iter
    (fun (p, rel, w, dminus) ->
      if Rel.cardinal dminus = 0 && Rel.size rel = w then Symbol.Tbl.remove changes p)
    marks

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let tuple_of_atom a =
  if not (Atom.is_ground a) then
    invalid_arg (Fmt.str "Incr.Maintain: non-ground update %a" Atom.pp a);
  (Atom.symbol a, Tup.of_list (List.map Term.eval a.Atom.args))

(* Net effect of an ordered op list per predicate: a tuple is deleted if
   it was present before the transaction and absent after, inserted if
   the reverse; delete-then-reinsert (and vice versa) cancels out, so
   delta relations and stamp ranges never carry spurious churn.  Tuples
   come out in op order, not hash order: stamp order, and with it the
   work of every later transaction, must not depend on value ids. *)
let net_ops mem0 ops =
  let state = Tup.Tbl.create 8 in
  List.iter
    (fun (ins, tu) -> Tup.Tbl.replace state tu ins)
    ops;
  List.fold_left
    (fun (dels, adds) (_, tu) ->
      match Tup.Tbl.find_opt state tu with
      | None -> (dels, adds)
      | Some desired ->
        Tup.Tbl.remove state tu;
        let was = mem0 tu in
        if was && not desired then (tu :: dels, adds)
        else if (not was) && desired then (dels, tu :: adds)
        else (dels, adds))
    ([], []) ops

(* summarize the transaction's net effect from the repair state: the
   deleted-tuple relations are carried in [changes] and the inserted
   tuples are exactly the live stamps at or above each watermark *)
let summarize t changes =
  let deltas =
    Symbol.Tbl.fold
      (fun sym (c : change) acc ->
        let deleted = Rel.cardinal c.dminus in
        let inserted = ref 0 in
        let rows = ref [] in
        (match Db.find t.db sym with
        | None -> ()
        | Some rel ->
          Rel.iter_in rel ~lo:c.w ~hi:max_int (fun tu ->
              incr inserted;
              if !inserted <= added_cap then rows := tu :: !rows));
        if deleted = 0 && !inserted = 0 then acc
        else
          {
            d_pred = sym;
            d_inserted = !inserted;
            d_deleted = deleted;
            d_added =
              (if !inserted > added_cap then None else Some (List.rev !rows));
          }
          :: acc)
      changes []
  in
  List.sort (fun a b -> Symbol.compare a.d_pred b.d_pred) deltas

let apply_delta ?max_facts t ops =
  let stats = { eng = Stats.create (); delta_firings = 0; overdeleted = 0; rederived = 0 } in
  let budget = Option.map ref max_facts in
  let changes = Symbol.Tbl.create 8 in
  let ext_ops = Symbol.Tbl.create 4 in
  (* group per predicate, preserving op order *)
  let order = ref [] in
  let per = Symbol.Tbl.create 8 in
  List.iter
    (fun op ->
      let ins, a = match op with Insert a -> (true, a) | Delete a -> (false, a) in
      let sym, tuple = tuple_of_atom a in
      (match Symbol.Tbl.find_opt per sym with
      | Some cell -> cell := (ins, tuple) :: !cell
      | None ->
        Symbol.Tbl.add per sym (ref [ (ins, tuple) ]);
        order := sym :: !order))
    ops;
  List.iter
    (fun sym ->
      let ops = List.rev !(Symbol.Tbl.find per sym) in
      if Symbol.Set.mem sym t.derived then begin
        (* updates to derived predicates assert/retract external support;
           they take effect when the predicate's unit is repaired *)
        let ext = external_for t sym in
        let dels, adds = net_ops (Rel.mem ext) ops in
        Symbol.Tbl.replace ext_ops sym (dels, adds)
      end
      else begin
        let rel = Db.relation t.db sym in
        let dels, adds = net_ops (Rel.mem rel) ops in
        let dminus = Rel.create (Rel.arity rel) in
        List.iter
          (fun tu ->
            ignore (Rel.remove rel tu);
            ignore (Rel.add dminus tu))
          dels;
        let w = Rel.size rel in
        List.iter (fun tu -> ignore (Rel.add rel tu)) adds;
        if Rel.cardinal dminus > 0 || Rel.size rel > w then
          Symbol.Tbl.replace changes sym { dminus; w }
      end)
    (List.rev !order);
  List.iter
    (fun u ->
      match u.kind with
      | Counting -> process_counting t ~stats ~changes ~ext_ops ~budget u
      | DRed -> process_dred t ~stats ~changes ~ext_ops ~budget u)
    t.units;
  let { eng; delta_firings; overdeleted; rederived } = stats in
  ( ({ probes = eng.Stats.probes; delta_firings; overdeleted; rederived } : stats),
    summarize t changes )

let apply ?max_facts t ops = fst (apply_delta ?max_facts t ops)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Unit compilation is shared between {!create} (which materializes the
   fixpoint first) and {!of_image} (which restores a persisted one). *)
let compile_units program =
  let rules = Program.rules program in
  List.map
    (fun syms ->
      let symset = Symbol.Set.of_list syms in
      let own =
        List.filter (fun r -> Symbol.Set.mem (Atom.symbol r.Rule.head) symset) rules
      in
      let kind =
        match syms with
        | [ s ] when not (Program.is_recursive program s) -> Counting
        | _ -> DRed
      in
      let rules = List.map compile_mrule own in
      let checks =
        match kind with
        | Counting -> []
        | DRed ->
          List.map
            (fun p ->
              ( p,
                List.filter_map
                  (fun mr ->
                    if Symbol.equal (Atom.symbol mr.rule.Rule.head) p then
                      Some (compile_check mr)
                    else None)
                  rules ))
            syms
      in
      { syms; kind; rules; checks })
    (Program.sccs program)

let create ?max_facts program ~edb =
  (match Program.stratify program with
  | Error e -> invalid_arg ("Incr.Maintain.create: " ^ e)
  | Ok _ -> ());
  let out = Engine.Eval.seminaive ?max_facts program ~edb in
  if out.Engine.Eval.diverged then raise Budget_exhausted;
  let db = out.Engine.Eval.db in
  let derived = Program.derived program in
  let units = compile_units program in
  let external_ = Symbol.Tbl.create 8 in
  Symbol.Set.iter
    (fun sym ->
      match Db.find edb sym with
      | Some r when Rel.cardinal r > 0 -> Symbol.Tbl.add external_ sym (Rel.copy r)
      | _ -> ())
    derived;
  let t = { db; derived; units; counts = Symbol.Tbl.create 8; external_ } in
  (* initial support counts for the counting predicates: one per
     rule-body valuation in the fixpoint, plus one per external fact *)
  List.iter
    (fun u ->
      match (u.kind, u.syms) with
      | Counting, [ p ] ->
        let tbl = counts_for t p in
        let bump tu =
          match Tup.Tbl.find_opt tbl tu with
          | Some n -> incr n
          | None -> Tup.Tbl.add tbl tu (ref 1)
        in
        (match Symbol.Tbl.find_opt external_ p with
        | Some ext -> Rel.iter bump ext
        | None -> ());
        List.iter
          (fun mr ->
            Plan.run ~source:(Plan.db_source db) ~neg_source:(Plan.db_source db)
              ~on_fact:(fun _ tu -> bump tu)
              mr.plan.Plan.base)
          u.rules
      | _ -> ())
    units;
  t

(* ------------------------------------------------------------------ *)
(* Persistence images                                                   *)
(* ------------------------------------------------------------------ *)

type image = {
  im_db : Db.t;
  im_counts : (Symbol.t * (Tup.t * int) list) list;
  im_external : (Symbol.t * Tup.t list) list;
}

(* Deterministic ordering so the same state serializes to the same
   bytes: predicates by symbol, entries structurally. *)
let image t =
  let by_sym compare_entry l =
    List.sort
      (fun (a, _) (b, _) -> Symbol.compare a b)
      (List.map (fun (sym, entries) -> (sym, List.sort compare_entry entries)) l)
  in
  let counts =
    Symbol.Tbl.fold
      (fun sym tbl acc ->
        let entries = Tup.Tbl.fold (fun tu n acc -> (tu, !n) :: acc) tbl [] in
        if entries = [] then acc else (sym, entries) :: acc)
      t.counts []
    |> by_sym (fun (a, _) (b, _) -> Tup.compare a b)
  in
  let external_ =
    Symbol.Tbl.fold
      (fun sym r acc ->
        match Rel.to_list r with [] -> acc | tus -> (sym, tus) :: acc)
      t.external_ []
    |> by_sym Tup.compare
  in
  { im_db = t.db; im_counts = counts; im_external = external_ }

let of_image program im =
  (match Program.stratify program with
  | Error e -> invalid_arg ("Incr.Maintain.of_image: " ^ e)
  | Ok _ -> ());
  let counts = Symbol.Tbl.create 8 in
  List.iter
    (fun (sym, entries) ->
      let tbl = Tup.Tbl.create (max 16 (List.length entries)) in
      List.iter (fun (tu, n) -> Tup.Tbl.replace tbl tu (ref n)) entries;
      Symbol.Tbl.add counts sym tbl)
    im.im_counts;
  let external_ = Symbol.Tbl.create 8 in
  List.iter
    (fun (sym, tus) ->
      let r = Rel.create sym.Symbol.arity in
      List.iter (fun tu -> ignore (Rel.add r tu)) tus;
      Symbol.Tbl.add external_ sym r)
    im.im_external;
  {
    db = im.im_db;
    derived = Program.derived program;
    units = compile_units program;
    counts;
    external_;
  }

let answers t query =
  Engine.Eval.answers
    { Engine.Eval.db = t.db; stats = Stats.create (); diverged = false }
    query

let support_count t sym tuple =
  match Symbol.Tbl.find_opt t.counts sym with
  | None -> None
  | Some tbl -> (
    match Tup.Tbl.find_opt tbl tuple with Some n -> Some !n | None -> Some 0)

let kind_of t sym =
  List.find_map
    (fun u ->
      if List.exists (Symbol.equal sym) u.syms then
        Some (match u.kind with Counting -> `Counting | DRed -> `DRed)
      else None)
    t.units
