(* Incremental view maintenance over the plan-compiled engine.

   A {!t} holds a materialized database (EDB plus every derived
   relation) for one program, and {!apply} repairs the derived relations
   under a batch of insertions and deletions instead of recomputing them.
   Every dependency unit — a strongly connected component of the
   predicate dependency graph, processed callees-first (a refinement of
   the stratification, so negated predicates are always fully repaired
   before their readers), recursive or not — is repaired by DRed
   (delete-and-rederive): over-delete everything reachable from the
   deleted tuples, rederive what has an alternative proof in the
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

(* DRed's rederivation check for one rule: which of a set of head
   tuples does the rule derive from the current state?  [Goal] is the
   rule compiled with a [$goal$p(head args)] literal prepended to its
   body and taken as the delta instance at that position, so a scan of
   the goal relation (the tuples to check) binds the head variables and
   the bound-first ordering turns the rest of the body into probes — a
   point lookup per tuple even for GMS magic rules, whose head variable
   the last body literal binds.  A head with arithmetic or compound
   arguments cannot be a scan pattern; its rule runs the [Enumerate]d
   base instance and looks every emitted tuple up in the set.  Each
   carries the rule its instance belongs to, to resolve a run's views. *)
type check = Goal of Rule.t * Plan.instance | Enumerate of Rule.t * Plan.instance

type unit_ = {
  syms : Symbol.t list;
  rules : mrule list;
  checks : (Symbol.t * check list) list;  (* per head predicate *)
  recursive : bool;  (* does a rule body read a unit predicate? *)
}

(* The per-transaction repair state of one updated relation: its deleted
   tuples and the watermark separating carried-over stamps from inserted
   ones.  old = [0, w) + dminus;  mid = [0, w);  new = [0, size). *)
type change = { dminus : Rel.t; w : int }

type t = {
  db : Db.t;
  derived : Symbol.Set.t;
  units : unit_ list;
  external_ : Rel.t Symbol.Tbl.t;
      (* externally asserted tuples of derived predicates (e.g. magic
         seeds): a proof not due to any rule, until retracted *)
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
    | [ (0, inst) ] -> Goal (rule', inst)
    | _ -> assert false
  end
  else Enumerate (mr.rule, mr.plan.Plan.base)

(* ------------------------------------------------------------------ *)
(* Stamp-range views of the transaction's three relation versions      *)
(* ------------------------------------------------------------------ *)

let changed changes sym = Symbol.Tbl.find_opt changes sym

let dminus_views changes sym =
  match changed changes sym with
  | Some c when Rel.cardinal c.dminus > 0 -> [ Plan.full c.dminus ]
  | _ -> []

(* tuples in both the old and the new state *)
let mid_views t changes sym =
  match changed changes sym with
  | None -> Plan.stored t.db sym
  | Some c -> (
    match Db.find t.db sym with
    | Some r -> [ { Plan.rel = r; lo = 0; hi = c.w } ]
    | None -> [])

(* pre-update state: carried-over stamps plus the deleted tuples *)
let old_views t changes sym = dminus_views changes sym @ mid_views t changes sym

(* membership union for a negated literal's "mid" version: a valuation
   passes [not q] in both old and new states iff its tuple is in
   neither, i.e. absent from old(q) ∪ new(q) = cur ∪ dminus *)
let neg_mid_views t changes sym = dminus_views changes sym @ Plan.stored t.db sym

(* the tuples entering a relation this transaction *)
let dplus_views t changes sym =
  match changed changes sym with
  | None -> []
  | Some c -> (
    match Db.find t.db sym with
    | Some r when Rel.size r > c.w -> [ { Plan.rel = r; lo = c.w; hi = max_int } ]
    | _ -> [])

(* the tuples leaving a relation this transaction: [dminus] without the
   tuples a recursive unit overdeleted, could not rederive from what
   remained, and then derived again in its insertion fixpoint — those
   are in both the old and the new state *)
let left_views t changes sym =
  match (changed changes sym, Db.find t.db sym) with
  | Some c, Some rel when Rel.cardinal c.dminus > 0 ->
    let left = Rel.create (Rel.arity rel) in
    Rel.iter (fun tu -> if not (Rel.mem rel tu) then ignore (Rel.add left tu)) c.dminus;
    if Rel.cardinal left > 0 then [ Plan.full left ] else []
  | _ -> []

(* Run [f rule i dviews inst] for every delta instance of [rules] whose
   delta position [i] reads a predicate outside [unit]: [dviews] is [pos
   sym] for a positive literal over [sym], [neg q] for a negated one over
   [q] (the tuples leaving or entering [q] flip the literal's truth). *)
let iter_deltas ~unit rules ~pos ~neg f =
  List.iter
    (fun mr ->
      List.iter
        (fun (i, inst) ->
          match body_pred mr.body.(i) with
          | Some sym when not (Symbol.Set.mem sym unit) -> f mr.rule i (pos sym) inst
          | Some _ | None -> ())
        mr.plan.Plan.delta;
      List.iter (fun (i, q, inst) -> f mr.rule i (neg q) inst) mr.neg_deltas)
    rules

(* ------------------------------------------------------------------ *)
(* DRed maintenance                                                    *)
(* ------------------------------------------------------------------ *)

(* [p]'s externally asserted tuples, created empty if absent *)
let external_for t p =
  match Symbol.Tbl.find_opt t.external_ p with
  | Some r -> r
  | None ->
    let r = Rel.create p.Symbol.arity in
    Symbol.Tbl.add t.external_ p r;
    r

let spend budget =
  match budget with
  | None -> ()
  | Some left ->
    decr left;
    if !left < 0 then raise Budget_exhausted

(* One unit predicate's repair state for a transaction: its stored
   relation, its rederivation checks, the external assertions and
   retractions the transaction makes, and [gone] — the overdeleted
   tuples in marking order, minus those rederivation restores, so that
   after phase 3 it is the net deletion ([dminus]).  [seen] is the stamp
   of [gone] up to which overdeletion has propagated. *)
type slot = {
  p : Symbol.t;
  rel : Rel.t;
  checks : check list;
  ext_dels : Tup.t list;
  ext_adds : Tup.t list;
  gone : Rel.t;
  mutable seen : int;
}

(* Rederivation, a set at a time: restore every tuple of [s.gone] that
   is externally supported or that some rule for [s.p] derives from the
   database's current state.  A [Goal] check scans [s.gone] itself at
   body position 0, so one run probes every missing tuple's alternative
   proofs; an [Enumerate] check runs its rule once and keeps what lands
   in [s.gone].  Returns whether anything was restored. *)
let rederive t ~stats s =
  let before = Rel.cardinal s.gone in
  let restore _ tu =
    if Rel.remove s.gone tu then begin
      ignore (Rel.add_borrowed s.rel tu);
      stats.rederived <- stats.rederived + 1
    end
  in
  (match Symbol.Tbl.find_opt t.external_ s.p with
  | Some ext -> Rel.iter (fun tu -> if Rel.mem ext tu then restore s.p tu) s.gone
  | None -> ());
  List.iter
    (fun c ->
      if Rel.cardinal s.gone > 0 then
        match c with
        | Goal (rule, inst) ->
          let views =
            Plan.views rule (fun i _ sym ->
                if i = 0 then [ Plan.full s.gone ] else Plan.stored t.db sym)
          in
          Plan.run ~stats:stats.eng ~views ~on_fact:restore inst
        | Enumerate (rule, inst) ->
          let views = Plan.views rule (fun _ _ -> Plan.stored t.db) in
          Plan.run ~stats:stats.eng ~views ~on_fact:restore inst)
    s.checks;
  Rel.cardinal s.gone < before

let process_dred t ~stats ~changes ~ext_ops ~budget u =
  let usyms = Symbol.Set.of_list u.syms in
  let in_u sym = Symbol.Set.mem sym usyms in
  let slots =
    List.map
      (fun (p, checks) ->
        let ext_dels, ext_adds =
          Option.value (Symbol.Tbl.find_opt ext_ops p) ~default:([], [])
        in
        let rel = Db.relation t.db p in
        { p; rel; checks; ext_dels; ext_adds; gone = Rel.create (Rel.arity rel); seen = 0 })
      u.checks
  in
  let slot sym = List.find (fun s -> Symbol.equal s.p sym) slots in
  (* ---- phase 1: overdeletion (nothing is physically removed yet, so
     every non-delta literal reads the old state in place) ---- *)
  let mark s tuple = if Rel.mem s.rel tuple then ignore (Rel.add_borrowed s.gone tuple) in
  (* a retracted assertion loses its external support; rederivation
     restores the tuple if some rule still proves it.  A new assertion
     supports its tuple from here on: rederivation restores it in place
     if it was overdeleted (it is in both the old and the new state), and
     with it whatever it proves *)
  List.iter
    (fun s ->
      if s.ext_dels <> [] || s.ext_adds <> [] then begin
        let ext = external_for t s.p in
        List.iter (fun tu -> if Rel.remove ext tu then mark s tu) s.ext_dels;
        List.iter (fun tu -> ignore (Rel.add ext tu)) s.ext_adds
      end)
    slots;
  let overdelete_with rule dpos dviews inst =
    if dviews <> [] then
      let views =
        Plan.views rule (fun i lit sym ->
            match lit with
            | _ when i = dpos -> dviews
            | Rule.Pos _ when in_u sym -> Plan.stored t.db sym
            | Rule.Pos _ | Rule.Neg _ -> old_views t changes sym)
      in
      Plan.run ~stats:stats.eng ~views
        ~on_fact:(fun sym tuple ->
          fired stats;
          mark (slot sym) tuple)
        inst
  in
  (* seed round: deltas of already-repaired lower units *)
  iter_deltas ~unit:usyms u.rules ~pos:(dminus_views changes) ~neg:(dplus_views t changes)
    overdelete_with;
  (* propagate through the unit's own predicates to fixpoint: each round
     reads the stamps of [gone] the previous one marked *)
  let rec propagate () =
    let windows =
      List.map
        (fun s ->
          let lo = s.seen in
          s.seen <- Rel.size s.gone;
          (s, lo))
        slots
    in
    if List.exists (fun (s, lo) -> lo < s.seen) windows then begin
      List.iter
        (fun mr ->
          List.iter
            (fun (i, inst) ->
              match body_pred mr.body.(i) with
              | Some sym when in_u sym ->
                let s, lo = List.find (fun (s, _) -> Symbol.equal s.p sym) windows in
                if lo < s.seen then
                  overdelete_with mr.rule i [ { Plan.rel = s.gone; lo; hi = s.seen } ] inst
              | Some _ | None -> ())
            mr.plan.Plan.delta)
        u.rules;
      propagate ()
    end
  in
  propagate ();
  (* ---- phase 2: apply the overdeletions ---- *)
  List.iter
    (fun s ->
      stats.overdeleted <- stats.overdeleted + Rel.cardinal s.gone;
      Rel.iter (fun tu -> ignore (Rel.remove s.rel tu)) s.gone)
    slots;
  (* ---- phase 3: rederivation — a tuple comes back iff it is
     externally supported or some rule proves it from what remains; in a
     recursive unit each restoration can enable further ones ---- *)
  let rec restore_all () =
    let restored = List.fold_left (fun acc s -> rederive t ~stats s || acc) false slots in
    if restored && u.recursive then restore_all ()
  in
  restore_all ();
  (* ---- phase 4: watermarks, net deletions, external insertions ---- *)
  let fp = Engine.Fixpoint.create t.db u.syms in
  let marks = List.map (fun s -> (s, Rel.size s.rel)) slots in
  List.iter
    (fun s -> List.iter (fun tu -> if Rel.add s.rel tu then spend budget) s.ext_adds)
    slots;
  List.iter (fun (s, w) -> Symbol.Tbl.replace changes s.p { dminus = s.gone; w }) marks;
  (* ---- phase 5: semi-naive insertion fixpoint ---- *)
  let record sym tuple =
    fired stats;
    if Rel.add_borrowed (slot sym).rel tuple then spend budget
  in
  (* seed round: insertion deltas of lower units, with the unit's own
     predicates read up to the watermark (their "mid" views, which phase
     4 set to it); external insertions and seed derivations both land
     beyond it and form the first delta window *)
  let seed_with rule dpos dviews inst =
    if dviews <> [] then
      let views =
        Plan.views rule (fun i lit sym ->
            match lit with
            | _ when i = dpos -> dviews
            | Rule.Pos _ when i < dpos && not (in_u sym) -> Plan.stored t.db sym
            | Rule.Pos _ -> mid_views t changes sym
            | Rule.Neg _ when i < dpos -> Plan.stored t.db sym
            | Rule.Neg _ -> neg_mid_views t changes sym)
      in
      Plan.run ~stats:stats.eng ~views ~on_fact:record inst
  in
  iter_deltas ~unit:usyms u.rules ~pos:(dplus_views t changes) ~neg:(left_views t changes)
    seed_with;
  Engine.Fixpoint.run ~stats:stats.eng fp
    (List.map (fun mr -> mr.plan) u.rules)
    ~record:(fun _ -> record)
    ~round:(fun () -> true);
  (* drop entries that turned out to be no-ops *)
  List.iter
    (fun (s, w) ->
      if Rel.cardinal s.gone = 0 && Rel.size s.rel = w then Symbol.Tbl.remove changes s.p)
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
   tuples are the live stamps at or above each watermark — less the
   tuples in both, which a recursive unit's insertion fixpoint derived
   again and so did not change *)
let summarize t changes =
  let deltas =
    Symbol.Tbl.fold
      (fun sym (c : change) acc ->
        let deleted = ref 0 and inserted = ref 0 and rows = ref [] in
        (match Db.find t.db sym with
        | None -> deleted := Rel.cardinal c.dminus
        | Some rel ->
          Rel.iter (fun tu -> if not (Rel.mem rel tu) then incr deleted) c.dminus;
          Rel.iter_in rel ~lo:c.w ~hi:max_int (fun tu ->
              if not (Rel.mem c.dminus tu) then begin
                incr inserted;
                if !inserted <= added_cap then rows := tu :: !rows
              end));
        if !deleted = 0 && !inserted = 0 then acc
        else
          {
            d_pred = sym;
            d_inserted = !inserted;
            d_deleted = !deleted;
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
  List.iter (process_dred t ~stats ~changes ~ext_ops ~budget) t.units;
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
      let rules = List.map compile_mrule own in
      let checks =
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
      { syms; rules; checks; recursive = List.exists (Program.is_recursive program) syms })
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
  { db; derived; units; external_ }

(* ------------------------------------------------------------------ *)
(* Persistence images                                                   *)
(* ------------------------------------------------------------------ *)

type image = { im_db : Db.t; im_external : (Symbol.t * Tup.t list) list }

(* Deterministic ordering so the same state serializes to the same
   bytes: predicates by symbol, tuples structurally. *)
let image t =
  let external_ =
    Symbol.Tbl.fold
      (fun sym r acc ->
        match Rel.to_list r with [] -> acc | tus -> (sym, List.sort Tup.compare tus) :: acc)
      t.external_ []
    |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)
  in
  { im_db = t.db; im_external = external_ }

let of_image program im =
  (match Program.stratify program with
  | Error e -> invalid_arg ("Incr.Maintain.of_image: " ^ e)
  | Ok _ -> ());
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
    external_;
  }

let answers t query =
  Engine.Eval.answers
    { Engine.Eval.db = t.db; stats = Stats.create (); diverged = false }
    query
