(* Cardinality analysis: per-predicate (card, per-column distinct)
   estimates propagated through rule bodies with join/projection
   arithmetic, fixpointed per Tarjan SCC with an extrapolating widening.

   The numbers are deliberate over-estimates compared against each
   other by Pass_cost — they are never used as hard limits, so the
   arithmetic favours simplicity and monotonicity over tightness. *)

open Datalog

type stat = { card : float; distinct : float array }

let default_universe = 100.
let default_card = 1000.
let max_rounds = 12
let huge = 1e18

type t = {
  stats : (Symbol.t, stat ref) Hashtbl.t;
  universe : float;
  measured : bool;
  widened : Symbol.t list;
  derived : Symbol.Set.t;
  probes : float;
  rounds : float;
}

let universe t = t.universe
let measured t = t.measured
let widened t = t.widened

let zero_stat arity = { card = 0.; distinct = Array.make (max arity 0) 1. }

let stat t sym =
  match Hashtbl.find_opt t.stats sym with
  | Some s -> !s
  | None -> zero_stat sym.Symbol.arity

let total_derived t =
  Symbol.Set.fold (fun sym acc -> acc +. (stat t sym).card) t.derived 0.

let est_rounds t = t.rounds
let est_probes t = t.probes

(* ---- extensional statistics ----

   One profile per database, read once: every relation's stat counted
   over value ids, the universe of distinct ids (each numbered densely,
   which is what the shape analysis indexes its arrays by), and the
   oriented edge arrays of binary relations plus the shapes computed
   over them, both built on first use.  A profile is meant to live for
   one strategy selection, so its memo tables die with it. *)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type shape = {
  acyclic : bool;
  longest : float;
  total_paths : float;
  saturated : bool;
  reachable : float;
}

type profile = {
  db : Engine.Database.t;
  dense : int Itbl.t;  (* value id -> node index in [0, universe) *)
  edb : stat Symbol.Tbl.t;
  edges : (Symbol.t * bool, int array * int array) Hashtbl.t;
  shapes : ((Symbol.t * bool) list * int list, shape) Hashtbl.t;
}

(* card and per-column distinct counts of the tuples [iter] passes to
   its argument *)
let count_stat arity iter =
  let cols = Array.init (max arity 0) (fun _ -> Itbl.create 16) in
  let n = ref 0 in
  iter (fun (t : Engine.Tuple.t) ->
      incr n;
      Array.iteri
        (fun i v -> if i < arity then Itbl.replace cols.(i) (Engine.Value.to_int v) ())
        t);
  {
    card = float_of_int !n;
    distinct = Array.map (fun h -> float_of_int (max 1 (Itbl.length h))) cols;
  }

let profile db =
  let dense = Itbl.create 256 in
  let number v =
    let v = Engine.Value.to_int v in
    if not (Itbl.mem dense v) then Itbl.add dense v (Itbl.length dense)
  in
  let edb = Symbol.Tbl.create 16 in
  List.iter
    (fun (sym : Symbol.t) ->
      let r = Engine.Database.relation db sym in
      Symbol.Tbl.replace edb sym
        (count_stat sym.Symbol.arity (fun f ->
             Engine.Relation.iter
               (fun t ->
                 Array.iter number t;
                 f t)
               r)))
    (Engine.Database.symbols db);
  { db; dense; edb; edges = Hashtbl.create 8; shapes = Hashtbl.create 8 }

let profile_universe p = float_of_int (max 2 (Itbl.length p.dense))

(* ---- per-rule estimation ---- *)

let clamp1 x = Float.max 1. x

(* Walk the body left to right keeping a frontier (number of partial
   derivations alive) and a per-variable distinct estimate.  A positive
   literal over stat s with a set of already-bound columns matches
   [s.card / prod (distinct of bound columns)] tuples per frontier row;
   negation and comparisons filter at selectivity 1/2; a binding
   equality transfers distincts without shrinking the frontier.

   Which variables a literal finds bound depends only on the body order,
   never on the stats, so each rule is compiled once per analysis: every
   variable gets a slot in a float array and every boundness test is
   resolved up front, leaving the fixpoint rounds pure float arithmetic. *)

(* an occurrence of a variable; [bound]: it had a value before this one *)
type occ = { slot : int; bound : bool }

type step =
  | Halve  (** negation, comparison, non-binding equality *)
  | Transfer of int array * occ array
      (** binding equality: the bound side's slots, the other side's
          variables *)
  | Join of stat ref * int array * (int * occ array) array
      (** positive literal: its predicate's current stat, the columns
          bound on entry, and each column's variables *)

type plan = { slots : int; steps : step array; head : occ array array }

let compile cell (r : Rule.t) =
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bound v = Hashtbl.mem slot_of v in
  let term_bound t = List.for_all bound (Term.vars t) in
  let slot v =
    match Hashtbl.find_opt slot_of v with
    | Some i -> i
    | None -> Hashtbl.length slot_of
  in
  (* the occurrences of [t]'s variables as a binding of [t] sees them,
     marking them bound in order *)
  let bind (t : Term.t) =
    Array.of_list
      (List.map
         (fun v ->
           let o = { slot = slot v; bound = bound v } in
           if not o.bound then Hashtbl.replace slot_of v o.slot;
           o)
         (Term.vars t))
  in
  let read (t : Term.t) = Array.of_list (List.map slot (Term.vars t)) in
  let steps =
    List.map
      (fun lit ->
        let a = Rule.atom_of_literal lit in
        if Atom.is_builtin a then
          match (a.Atom.pred, a.Atom.args) with
          | "=", [ x; y ] when term_bound x && not (term_bound y) ->
            let src = read x in
            Transfer (src, bind y)
          | "=", [ x; y ] when term_bound y && not (term_bound x) ->
            let src = read y in
            Transfer (src, bind x)
          | _ -> Halve
        else
          match lit with
          | Rule.Neg _ -> Halve
          | Rule.Pos _ ->
            let args = Array.of_list a.Atom.args in
            let entry =
              List.filter (fun i -> term_bound args.(i)) (List.init (Array.length args) Fun.id)
            in
            let binds = Array.mapi (fun i arg -> (i, bind arg)) args in
            Join (cell (Atom.symbol a), Array.of_list entry, binds))
      r.Rule.body
  in
  let head =
    Array.of_list
      (List.map
         (fun t ->
           Array.of_list
             (List.map
                (fun v ->
                  if bound v then { slot = slot v; bound = true }
                  else { slot = -1; bound = false })
                (Term.vars t)))
         r.Rule.head.Atom.args)
  in
  { slots = Hashtbl.length slot_of; steps = Array.of_list steps; head }

(* Returns (probe sum, output estimate, per-head-column contribution). *)
let estimate universe plan =
  let d = Array.make plan.slots 0. in
  let bind dv occs =
    Array.iter
      (fun o -> d.(o.slot) <- clamp1 (if o.bound then Float.min d.(o.slot) dv else dv))
      occs
  in
  let frontier = ref 1. in
  let probes = ref 0. in
  Array.iter
    (fun step ->
      probes := Float.min huge (!probes +. !frontier);
      match step with
      | Halve -> frontier := !frontier *. 0.5
      | Transfer (src, dst) ->
        bind (Array.fold_left (fun acc i -> acc *. d.(i)) 1. src) dst
      | Join (cell, entry, binds) ->
        let s = !cell in
        let width = Array.length s.distinct in
        let sel = ref 1. in
        Array.iter
          (fun i ->
            if i < width then
              sel := !sel /. clamp1 (Float.min s.distinct.(i) (clamp1 s.card)))
          entry;
        frontier := Float.min huge (!frontier *. (s.card *. !sel));
        Array.iter
          (fun (i, occs) -> bind (if i < width then s.distinct.(i) else universe) occs)
          binds)
    plan.steps;
  let head_contrib =
    Array.map
      (Array.fold_left
         (fun acc o -> acc *. if o.bound then d.(o.slot) else universe)
         1.)
      plan.head
  in
  let head_cap = Array.fold_left (fun a b -> Float.min huge (a *. b)) 1. head_contrib in
  let out = Float.max 0. (Float.min !frontier head_cap) in
  (!probes, out, head_contrib)

(* ---- the analysis ---- *)

(* stat of [sym] in the profile's database with [seeds] (interned as
   {!Engine.Database.add_fact} interns them) added to it *)
let seeded_stat profile sym seeds =
  let rel = Option.bind profile (fun p -> Engine.Database.find p.db sym) in
  let fresh = Engine.Tuple.Tbl.create 4 in
  List.iter
    (fun (a : Atom.t) ->
      let t = Engine.Tuple.of_list (List.map Term.eval a.Atom.args) in
      if not (Option.fold ~none:false ~some:(fun r -> Engine.Relation.mem r t) rel)
      then Engine.Tuple.Tbl.replace fresh t ())
    seeds;
  count_stat sym.Symbol.arity (fun f ->
      Option.iter (Engine.Relation.iter f) rel;
      Engine.Tuple.Tbl.iter (fun t () -> f t) fresh)

let analyze ?profile ?(seeds = []) ?defaults ?universe:universe_override
    ?(col_caps = fun _ -> None) ?rounds_bound program =
  let defaults =
    match defaults with Some d -> d | None -> profile = None
  in
  let measured = not defaults in
  let universe =
    match universe_override with
    | Some u -> clamp1 u
    | None -> (
      match profile with
      | Some p when Engine.Database.total p.db > 0 -> profile_universe p
      | _ -> default_universe)
  in
  let rounds_bound =
    clamp1 (match rounds_bound with Some r -> r | None -> universe)
  in
  let derived = Program.derived program in
  let seeded : (Symbol.t, Atom.t list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (a : Atom.t) ->
      if Atom.is_ground a then
        let sym = Atom.symbol a in
        Hashtbl.replace seeded sym
          (a :: Option.value ~default:[] (Hashtbl.find_opt seeded sym)))
    seeds;
  let symbols =
    let acc = ref (Program.predicates program) in
    Option.iter
      (fun p -> Symbol.Tbl.iter (fun s _ -> acc := Symbol.Set.add s !acc) p.edb)
      profile;
    Hashtbl.iter (fun s _ -> acc := Symbol.Set.add s !acc) seeded;
    !acc
  in
  (* caps: per-column distinct bound, defaulting to the universe *)
  let caps : (Symbol.t, float array) Hashtbl.t = Hashtbl.create 32 in
  let caps_of sym =
    match Hashtbl.find_opt caps sym with
    | Some a -> a
    | None ->
      let a =
        match col_caps sym with
        | Some a -> Array.map clamp1 a
        | None -> Array.make (max sym.Symbol.arity 0) universe
      in
      Hashtbl.replace caps sym a;
      a
  in
  let card_cap_of sym =
    Array.fold_left (fun a c -> Float.min huge (a *. c)) 1. (caps_of sym)
  in
  (* initial stats: extensional relations measured by the profile
     (symbolic defaults when absent), derived predicates start from
     their seed facts *)
  let init : (Symbol.t, stat) Hashtbl.t = Hashtbl.create 32 in
  let stats : (Symbol.t, stat ref) Hashtbl.t = Hashtbl.create 32 in
  Symbol.Set.iter
    (fun sym ->
      let measured =
        match Hashtbl.find_opt seeded sym with
        | Some seeds -> Some (seeded_stat profile sym seeds)
        | None -> Option.bind profile (fun p -> Symbol.Tbl.find_opt p.edb sym)
      in
      let s =
        match measured with
        | Some s when s.card > 0. -> s
        | _ when (not (Symbol.Set.mem sym derived)) && defaults ->
          {
            card = default_card;
            distinct =
              Array.make (max sym.Symbol.arity 0)
                (Float.min universe default_card);
          }
        | _ -> zero_stat sym.Symbol.arity
      in
      Hashtbl.replace init sym s;
      Hashtbl.replace stats sym (ref s))
    symbols;
  let cell sym =
    match Hashtbl.find_opt stats sym with
    | Some c -> c
    | None ->
      let c = ref (zero_stat sym.Symbol.arity) in
      Hashtbl.replace stats sym c;
      c
  in
  let lookup sym =
    match Hashtbl.find_opt stats sym with
    | Some c -> !c
    | None -> zero_stat sym.Symbol.arity
  in
  let set sym s = cell sym := s in
  let plans = List.map (compile cell) (Program.rules program) in
  let plans_for : (Symbol.t, plan list) Hashtbl.t = Hashtbl.create 32 in
  List.iter2
    (fun (r : Rule.t) plan ->
      let sym = Atom.symbol r.Rule.head in
      Hashtbl.replace plans_for sym
        (plan :: Option.value ~default:[] (Hashtbl.find_opt plans_for sym)))
    (List.rev (Program.rules program))
    (List.rev plans);
  (* one synchronous recomputation of a predicate from its rules *)
  let recompute sym =
    let init_s =
      match Hashtbl.find_opt init sym with
      | Some s -> s
      | None -> zero_stat sym.Symbol.arity
    in
    let caps = caps_of sym in
    let out = ref init_s.card in
    let cols = Array.copy init_s.distinct in
    List.iter
      (fun plan ->
        let _, rule_out, contrib = estimate universe plan in
        out := Float.min huge (!out +. rule_out);
        Array.iteri
          (fun i c ->
            if i < Array.length contrib then
              cols.(i) <- Float.min huge (c +. contrib.(i)))
          cols)
      (Option.value ~default:[] (Hashtbl.find_opt plans_for sym));
    let cols = Array.mapi (fun i c -> Float.min caps.(i) (clamp1 c)) cols in
    let card =
      Float.min !out
        (Array.fold_left (fun a c -> Float.min huge (a *. c)) 1. cols)
    in
    let cols = Array.map (fun c -> Float.min c (clamp1 card)) cols in
    { card; distinct = cols }
  in
  let widened = ref [] in
  let rounds = ref 1. in
  let process_scc scc =
    let members = List.filter (fun s -> Symbol.Set.mem s derived) scc in
    if members <> [] then begin
      let recursive =
        match members with
        | [ s ] ->
          List.exists
            (fun (_, r) ->
              List.exists
                (fun a -> Symbol.equal (Atom.symbol a) s)
                (Rule.body_atoms r))
            (Program.rules_for program s)
        | _ -> true
      in
      if not recursive then
        List.iter (fun s -> set s (recompute s)) members
      else begin
        (* One recompute round advances each member from the others'
           previous stats, so a derivation hop through an s-member SCC
           (magic -> supplementary -> magic) costs s rounds; budget the
           fixpoint for the full round horizon at that rate and widen
           only past it — the rounds are pure float arithmetic, and
           truncating early systematically undershoots the predicates
           later in the chain. *)
        let budget =
          int_of_float
            (Float.min 4096.
               (Float.max (float_of_int max_rounds)
                  ((rounds_bound *. float_of_int (List.length members)) +. 4.)))
        in
        (* A member is settled when its round delta is gone, or small
           relative to its size AND shrinking geometrically (at most
           half the previous round's delta).  The trend condition is
           what distinguishes a converging fixpoint from steady linear
           growth: a chain's cardinality grows by a constant amount per
           round, so once it reaches ~100x the per-round step a purely
           relative test mistakes it for stable and freezes the
           estimate orders of magnitude short of the horizon — such
           SCCs must instead run to the budget and take the
           extrapolating widening below. *)
        let settled ~prev_card ~prev_delta ~delta =
          delta <= 1e-9
          || (delta <= 0.01 *. clamp1 prev_card && delta <= 0.5 *. prev_delta)
        in
        let step () =
          let next = List.map (fun s -> (s, recompute s)) members in
          List.iter (fun (s, st) -> set s st) next
        in
        let rec go k prev_deltas =
          let prev = List.map (fun s -> (lookup s).card) members in
          step ();
          let deltas =
            List.map2
              (fun s p -> Float.abs ((lookup s).card -. p))
              members prev
          in
          let stable =
            List.for_all2
              (fun (prev_card, delta) prev_delta ->
                settled ~prev_card ~prev_delta ~delta)
              (List.combine prev deltas) prev_deltas
          in
          if stable then rounds := Float.max !rounds (float_of_int k)
          else if k >= budget then begin
            (* extrapolating widening: project the last round's growth
               linearly out to the round horizon, under the column caps *)
            List.iter2
              (fun s p ->
                let now = lookup s in
                let delta = Float.max 0. (now.card -. p) in
                let projected =
                  Float.min (card_cap_of s)
                    (now.card +. (delta *. Float.max 0. (rounds_bound -. float_of_int k)))
                in
                let caps = caps_of s in
                let distinct =
                  Array.mapi
                    (fun i _ -> Float.min caps.(i) (clamp1 projected))
                    now.distinct
                in
                set s { card = projected; distinct })
              members prev;
            widened := members @ !widened;
            rounds := Float.max !rounds rounds_bound
          end
          else go (k + 1) deltas
        in
        go 1 (List.map (fun _ -> Float.infinity) members)
      end
    end
  in
  List.iter process_scc (Program.sccs program);
  (* total probe estimate under the final stats *)
  let probes =
    List.fold_left
      (fun acc plan ->
        let p, _, _ = estimate universe plan in
        Float.min huge (acc +. p))
      0. plans
  in
  {
    stats;
    universe;
    measured;
    widened = List.sort_uniq Symbol.compare !widened;
    derived;
    probes;
    rounds = !rounds;
  }

let diagnostics t =
  let w061 =
    if t.measured then []
    else
      [
        Diagnostic.warning ~code:"W061"
          (Fmt.str
             "no extensional statistics: cardinality estimates use symbolic \
              defaults (%.0f facts per base relation, %.0f-constant domain)"
             default_card t.universe);
      ]
  in
  let w060 =
    match t.widened with
    | [] -> []
    | syms ->
      [
        Diagnostic.warning ~code:"W060"
          (Fmt.str
             "recursive cardinalities for %s did not stabilize within the \
              fixpoint budget; estimates were widened to the %.0f-round \
              horizon"
             (String.concat ", "
                (List.map (fun (s : Symbol.t) -> s.Symbol.name) syms))
             t.rounds);
      ]
  in
  w061 @ w060

(* ---- data-shape analysis ----

   Over dense node indices [0, n): the edges go into a CSR adjacency
   (duplicates kept — they multiply path counts), an iterative DFS from
   the roots finds the reachable set and any cycle, and on acyclic
   input Kahn's algorithm over the reachable subgraph computes the
   longest path and the saturating root-to-node path counts. *)

let path_saturation = 1e6

let empty_shape =
  { acyclic = true; longest = 0.; total_paths = 1.; saturated = false; reachable = 0. }

let dense_shape ~n ~src ~dst ~roots =
  let m = Array.length src in
  if m = 0 then empty_shape
  else begin
    let present = Bytes.make n '\000' in
    let indeg = Array.make n 0 in
    let start = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      Bytes.set present src.(k) '\001';
      Bytes.set present dst.(k) '\001';
      indeg.(dst.(k)) <- indeg.(dst.(k)) + 1;
      start.(src.(k) + 1) <- start.(src.(k) + 1) + 1
    done;
    for u = 0 to n - 1 do
      start.(u + 1) <- start.(u + 1) + start.(u)
    done;
    let succ = Array.make m 0 in
    let fill = Array.sub start 0 n in
    for k = 0 to m - 1 do
      let u = src.(k) in
      succ.(fill.(u)) <- dst.(k);
      fill.(u) <- fill.(u) + 1
    done;
    let is_node u = Bytes.get present u <> '\000' in
    (* roots absent from the graph are ignored; with none left, the
       sources stand in, and failing that every node *)
    let roots =
      match List.filter is_node roots with
      | [] -> (
        let nodes = List.filter is_node (List.init n Fun.id) in
        match List.filter (fun u -> indeg.(u) = 0) nodes with
        | [] -> nodes
        | sources -> sources)
      | roots -> roots
    in
    (* iterative DFS: 0 unvisited, 1 on the stack, 2 finished *)
    let color = Bytes.make n '\000' in
    let cursor = Array.make n 0 in
    let stack = Array.make n 0 in
    let sp = ref 0 and reached = ref 0 and cyclic = ref false in
    let visit u =
      Bytes.set color u '\001';
      cursor.(u) <- start.(u);
      stack.(!sp) <- u;
      incr sp;
      incr reached
    in
    List.iter
      (fun root ->
        if Bytes.get color root = '\000' then begin
          visit root;
          while !sp > 0 do
            let u = stack.(!sp - 1) in
            if cursor.(u) = start.(u + 1) then begin
              Bytes.set color u '\002';
              decr sp
            end
            else begin
              let v = succ.(cursor.(u)) in
              cursor.(u) <- cursor.(u) + 1;
              match Bytes.get color v with
              | '\000' -> visit v
              | '\001' -> cyclic := true
              | _ -> ()
            end
          done
        end)
      roots;
    let reachable = float_of_int !reached in
    if !cyclic then
      { acyclic = false; longest = huge; total_paths = huge; saturated = true; reachable }
    else begin
      let is_reached u = Bytes.get color u <> '\000' in
      let indeg_r = Array.make n 0 in
      for u = 0 to n - 1 do
        if is_reached u then
          for k = start.(u) to start.(u + 1) - 1 do
            indeg_r.(succ.(k)) <- indeg_r.(succ.(k)) + 1
          done
      done;
      let depth = Array.make n 0. in
      let pc = Array.make n 0. in
      List.iter (fun r -> pc.(r) <- 1.) roots;
      let queue = Array.make n 0 in
      let head = ref 0 and tail = ref 0 in
      for u = 0 to n - 1 do
        if is_reached u && indeg_r.(u) = 0 then begin
          queue.(!tail) <- u;
          incr tail
        end
      done;
      let longest = ref 0. and saturated = ref false in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        longest := Float.max !longest depth.(u);
        for k = start.(u) to start.(u + 1) - 1 do
          let v = succ.(k) in
          depth.(v) <- Float.max (depth.(u) +. 1.) depth.(v);
          let p = pc.(u) +. pc.(v) in
          pc.(v) <-
            (if p >= path_saturation then begin
               saturated := true;
               path_saturation
             end
             else p);
          indeg_r.(v) <- indeg_r.(v) - 1;
          if indeg_r.(v) = 0 then begin
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      let total = ref 0. in
      for u = 0 to n - 1 do
        if is_reached u then total := Float.min 1e9 (!total +. pc.(u))
      done;
      {
        acyclic = true;
        longest = !longest;
        total_paths = Float.max 1. !total;
        saturated = !saturated || !total >= path_saturation;
        reachable;
      }
    end
  end

let graph_shape ~edges ~roots =
  let dense = Itbl.create 64 in
  let node x =
    match Itbl.find_opt dense x with
    | Some i -> i
    | None ->
      let i = Itbl.length dense in
      Itbl.add dense x i;
      i
  in
  let src = Array.of_list (List.map (fun (u, _) -> node u) edges) in
  let dst = Array.of_list (List.map (fun (_, v) -> node v) edges) in
  dense_shape ~n:(Itbl.length dense) ~src ~dst
    ~roots:(List.filter_map (Itbl.find_opt dense) roots)

(* a binary relation's edges as node indices, [forward] or reversed *)
let oriented_edges p ((sym : Symbol.t), forward) =
  match Hashtbl.find_opt p.edges (sym, forward) with
  | Some e -> e
  | None ->
    let e =
      match Engine.Database.find p.db sym with
      | Some r when sym.Symbol.arity = 2 ->
        let m = Engine.Relation.cardinal r in
        let src = Array.make m 0 and dst = Array.make m 0 in
        let k = ref 0 in
        Engine.Relation.iter
          (fun t ->
            let a = Itbl.find p.dense (Engine.Value.to_int t.(0)) in
            let b = Itbl.find p.dense (Engine.Value.to_int t.(1)) in
            src.(!k) <- (if forward then a else b);
            dst.(!k) <- (if forward then b else a);
            incr k)
          r;
        (src, dst)
      | _ -> ([||], [||])
    in
    Hashtbl.replace p.edges (sym, forward) e;
    e

let profile_shape p ~orient ~roots =
  let orient = List.sort_uniq compare orient in
  (* a root is a node when some stored value denotes exactly that term *)
  let roots =
    List.filter_map
      (fun t ->
        match Engine.Value.find t with
        | Some v when Term.equal (Engine.Value.extern v) t ->
          Itbl.find_opt p.dense (Engine.Value.to_int v)
        | _ -> None)
      roots
    |> List.sort_uniq Int.compare
  in
  match Hashtbl.find_opt p.shapes (orient, roots) with
  | Some s -> s
  | None ->
    let parts = List.map (oriented_edges p) orient in
    let s =
      dense_shape ~n:(Itbl.length p.dense)
        ~src:(Array.concat (List.map fst parts))
        ~dst:(Array.concat (List.map snd parts))
        ~roots
    in
    Hashtbl.replace p.shapes (orient, roots) s;
    s
