open Datalog
module SS = Set.Make (String)

type slot = Const of Term.t | Bound of string | Expr of Term.t

type scan = {
  lit : int;
  sym : Symbol.t;
  pattern : bool array;
  key : slot array;
  free : (int * Term.t) list;
  all_bound : bool;
}

type step =
  | Scan of scan
  | Builtin of Atom.t
  | Neg_builtin of Atom.t
  | Neg_scan of { lit : int; sym : Symbol.t; atom : Atom.t; key : slot array option }

type emit = Direct of Symbol.t * slot array | Dynamic of Atom.t

(* Pure-relational instances (every step a scan, every free position a
   plain variable, every key slot a constant or a bound variable, head
   statically safe) additionally compile to an integer-slot form: the
   substitution becomes a [Value.t array] indexed by compile-time
   variable numbers, so the inner join loop allocates no map nodes,
   performs no logarithmic lookups, and compares interned ids instead of
   term structures.  Static binding discipline makes un-binding on
   backtrack unnecessary: a slot is only ever read after a write on the
   current path. *)
type fslot = Fconst of Value.t | Fbound of int

type faction =
  | Bind of int * int  (** tuple position [pos] binds env slot [slot] *)
  | Check of int * int
      (** repeated variable within one literal: tuple position must equal
          the slot bound by its first occurrence *)

type fscan = {
  flit : int;
  fsym : Symbol.t;
  fpattern : bool array;
  fkey : fslot array;
  ffree : faction array;
  fall_bound : bool;
}

(* The compiled form is immutable: all executor scratch (the env array
   and the per-scan key buffers the slots are evaluated into) is
   allocated per {!run_fast} call, a handful of small arrays per rule
   firing.  Probes within a run still reuse the same buffers, so the
   inner join loop stays allocation-free — but two executors of the same
   instance, nested through an [on_fact] that fires another run, can
   never corrupt each other's keys.  [fzero] is a pre-interned filler
   for those scratch arrays, so a run never touches the value pool. *)
type fast = {
  fsteps : fscan array;
  fhead_sym : Symbol.t;
  fhead : fslot array;
  fvars : int;
  fzero : Value.t;
}

type instance = { steps : step array; head : emit; fast : fast option }

type t = { rule : Rule.t; base : instance; delta : (int * instance) list }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec has_arith = function
  | Term.Add _ | Term.Mul _ | Term.Div _ -> true
  | Term.App (_, xs) -> List.exists has_arith xs
  | Term.Var _ | Term.Int _ | Term.Sym _ -> false

let term_vars t = SS.of_list (Term.vars t)
let all_vars_bound bound t = SS.subset (term_vars t) bound

(* The slot for a term that is guaranteed ground at probe time.  Constants
   containing arithmetic stay [Expr] so that evaluation errors (division
   by zero, overflow) surface at the same point as in the uncompiled
   engine, not at compile time. *)
let slot_of bound t =
  match t with
  | Term.Var x when SS.mem x bound -> Bound x
  | _ -> if Term.is_ground t && not (has_arith t) then Const t else Expr t

(* Variables definitely ground after a successful [=] builtin: if one
   side is fully bound, unification grounds every variable of the other
   side.  (If neither side is bound, [=] may still record bindings in the
   substitution, but their images can be non-ground, so they must not be
   promoted: a bound slot feeding an index key has to be ground.) *)
let bound_after_eq bound l r =
  let bound = if all_vars_bound bound l then SS.union bound (term_vars r) else bound in
  if all_vars_bound bound r then SS.union bound (term_vars l) else bound

let bound_after bound lit =
  match lit with
  | Rule.Pos a when Atom.is_builtin a -> begin
    match a.Atom.pred, a.Atom.args with
    | "=", [ l; r ] -> bound_after_eq bound l r
    | _ -> bound
  end
  | Rule.Pos a -> SS.union bound (SS.of_list (Atom.vars a))
  | Rule.Neg _ -> bound

(* A builtin or negated literal is ready once enough of its variables are
   bound to evaluate it without an [Unsafe]; [=] is ready as soon as one
   side is fully bound (it then grounds the other). *)
let ready bound lit =
  match lit with
  | Rule.Pos a when Atom.is_builtin a -> begin
    match a.Atom.pred, a.Atom.args with
    | "=", [ l; r ] -> all_vars_bound bound l || all_vars_bound bound r
    | _ -> List.for_all (all_vars_bound bound) a.Atom.args
  end
  | Rule.Neg a -> List.for_all (all_vars_bound bound) a.Atom.args
  | Rule.Pos _ -> false

(* Greedy bound-first join ordering.  The forced literal (the semi-naive
   delta literal) is scanned first, so a round's work is proportional to
   the delta, not to the relations the rule happens to mention first.
   After each pick, ready builtins and negations are flushed (they are
   filters: running them as early as possible only shrinks the join), and
   the next relation literal is the one with the most bound argument
   positions (ties resolved towards the original left-to-right order, the
   paper's default sip).  Unready builtins/negations that survive to the
   end are emitted in original order and re-checked dynamically, exactly
   like the uncompiled engine. *)
let order ~forced body =
  let emitted = ref [] in
  let bound = ref SS.empty in
  let emit ((_, lit) as entry) =
    emitted := entry :: !emitted;
    bound := bound_after !bound lit
  in
  let remaining = ref [] in
  List.iter
    (fun ((i, _) as entry) ->
      if Some i = forced then emit entry else remaining := entry :: !remaining)
    body;
  remaining := List.rev !remaining;
  let take entry = remaining := List.filter (fun e -> e != entry) !remaining in
  let rec flush () =
    match
      List.find_opt
        (fun (_, lit) ->
          match lit with
          | Rule.Pos a when Atom.is_builtin a -> ready !bound lit
          | Rule.Neg _ -> ready !bound lit
          | Rule.Pos _ -> false)
        !remaining
    with
    | Some entry ->
      take entry;
      emit entry;
      flush ()
    | None -> ()
  in
  while
    flush ();
    !remaining <> []
  do
    let score (_, lit) =
      match lit with
      | Rule.Pos a when not (Atom.is_builtin a) ->
        Some (List.length (List.filter (all_vars_bound !bound) a.Atom.args))
      | Rule.Pos _ | Rule.Neg _ -> None
    in
    let best =
      List.fold_left
        (fun acc entry ->
          match score entry, acc with
          | None, _ -> acc
          | Some s, Some (_, s') when s <= s' -> acc
          | Some s, _ -> Some (entry, s))
        None !remaining
    in
    match best with
    | Some (entry, _) ->
      take entry;
      emit entry
    | None ->
      (* only builtins/negations that never become ready: keep them in
         original order; execution re-checks groundness dynamically *)
      List.iter emit !remaining;
      remaining := []
  done;
  List.rev !emitted

let compile_scan bound i atom =
  let args = atom.Atom.args in
  let pattern = Array.of_list (List.map (all_vars_bound bound) args) in
  let key =
    Array.of_list
      (List.filter_map
         (fun t -> if all_vars_bound bound t then Some (slot_of bound t) else None)
         args)
  in
  let free =
    List.filteri (fun j _ -> not pattern.(j)) (List.mapi (fun j t -> (j, t)) args)
  in
  Scan { lit = i; sym = Atom.symbol atom; pattern; key; free; all_bound = free = [] }

(* Conversion to the integer-slot form; [None] when the instance uses any
   feature the fast executor does not model (builtins, negation,
   arithmetic slots or patterns, dynamic heads). *)
let fast_of_instance steps head =
  let exception Unsupported in
  let slots = Hashtbl.create 8 in
  let fvars = ref 0 in
  let conv_key = function
    | Const t -> Fconst (Value.intern t)
    | Bound x -> begin
      match Hashtbl.find_opt slots x with
      | Some i -> Fbound i
      | None -> raise Unsupported
    end
    | Expr _ -> raise Unsupported
  in
  try
    let fsteps =
      Array.map
        (function
          | Scan s ->
            let fkey = Array.map conv_key s.key in
            let seen = Hashtbl.create 4 in
            let ffree =
              Array.of_list
                (List.map
                   (fun (pos, t) ->
                     match t with
                     | Term.Var x when Hashtbl.mem seen x ->
                       Check (pos, Hashtbl.find slots x)
                     | Term.Var x when not (Hashtbl.mem slots x) ->
                       let i = !fvars in
                       incr fvars;
                       Hashtbl.add slots x i;
                       Hashtbl.add seen x ();
                       Bind (pos, i)
                     | _ -> raise Unsupported)
                   s.free)
            in
            {
              flit = s.lit;
              fsym = s.sym;
              fpattern = s.pattern;
              fkey;
              ffree;
              fall_bound = s.all_bound;
            }
          | Builtin _ | Neg_builtin _ | Neg_scan _ -> raise Unsupported)
        steps
    in
    match head with
    | Direct (sym, hslots) ->
      Some
        {
          fsteps;
          fhead_sym = sym;
          fhead = Array.map conv_key hslots;
          fvars = !fvars;
          fzero = Value.intern (Term.Int 0);
        }
    | Dynamic _ -> None
  with Unsupported -> None

let compile_instance rule ordered =
  let bound = ref SS.empty in
  let steps =
    List.map
      (fun (i, lit) ->
        let step =
          match lit with
          | Rule.Pos atom when Atom.is_builtin atom -> Builtin atom
          | Rule.Pos atom -> compile_scan !bound i atom
          | Rule.Neg atom ->
            if Atom.is_builtin atom then Neg_builtin atom
            else
              let key =
                if List.for_all (all_vars_bound !bound) atom.Atom.args then
                  Some (Array.of_list (List.map (slot_of !bound) atom.Atom.args))
                else None
              in
              Neg_scan { lit = i; sym = Atom.symbol atom; atom; key }
        in
        bound := bound_after !bound lit;
        step)
      ordered
  in
  let head =
    let h = rule.Rule.head in
    if List.for_all (all_vars_bound !bound) h.Atom.args then
      Direct (Atom.symbol h, Array.of_list (List.map (slot_of !bound) h.Atom.args))
    else Dynamic h
  in
  let steps = Array.of_list steps in
  { steps; head; fast = fast_of_instance steps head }

let compile ~delta_preds rule =
  let body = List.mapi (fun i lit -> (i, lit)) rule.Rule.body in
  let delta_positions =
    List.filter_map
      (fun (i, lit) ->
        match lit with
        | Rule.Pos a
          when (not (Atom.is_builtin a)) && Symbol.Set.mem (Atom.symbol a) delta_preds
          ->
          Some i
        | Rule.Pos _ | Rule.Neg _ -> None)
      body
  in
  {
    rule;
    (* the base instance keeps the rule's own literal order: naive rounds
       and the semi-naive round 0 behave exactly like the uncompiled
       engine, including which literal an [Unsafe] is reported for *)
    base = compile_instance rule body;
    delta =
      List.map
        (fun dpos -> (dpos, compile_instance rule (order ~forced:(Some dpos) body)))
        delta_positions;
  }

let compile_stratum rules =
  let heads =
    List.fold_left
      (fun acc r -> Symbol.Set.add (Atom.symbol r.Rule.head) acc)
      Symbol.Set.empty rules
  in
  List.map (compile ~delta_preds:heads) rules

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type view = { rel : Relation.t; lo : int; hi : int }

(* A literal reads the union of a list of disjoint stamp-range views.
   The ordinary engines use singleton lists (one relation per literal);
   the incremental maintenance layer reads e.g. the pre-update state of a
   relation as "post-deletion range + the deleted set" without copying
   either. *)
type source = int -> Symbol.t -> view list

let full rel = { rel; lo = 0; hi = max_int }

let db_source db _ sym =
  match Database.find db sym with Some r -> [ full r ] | None -> []

(* singleton view lists are the overwhelmingly common case (the ordinary
   engines never pass anything else): dispatch without allocating the
   List.exists / List.iter closures *)
let rec view_mem views key =
  match views with
  | [] -> false
  | [ v ] -> Relation.mem_in v.rel ~lo:v.lo ~hi:v.hi key
  | v :: rest -> Relation.mem_in v.rel ~lo:v.lo ~hi:v.hi key || view_mem rest key

let rec views_iter_matching views ~pattern ~key f =
  match views with
  | [] -> ()
  | [ v ] -> Relation.iter_matching_in v.rel ~pattern ~key ~lo:v.lo ~hi:v.hi f
  | v :: rest ->
    Relation.iter_matching_in v.rel ~pattern ~key ~lo:v.lo ~hi:v.hi f;
    views_iter_matching rest ~pattern ~key f

let bump_probes stats =
  match stats with None -> () | Some s -> s.Stats.probes <- s.Stats.probes + 1

let slot_value subst = function
  | Const t -> t
  | Bound x -> begin
    match Subst.find x subst with
    | Some t -> t
    | None -> assert false (* compilation guarantees the binding exists *)
  end
  | Expr t -> Term.eval (Subst.apply subst t)

let eval_key subst slots = Array.map (fun s -> Value.intern (slot_value subst s)) slots

let rec match_free free tuple subst =
  match free with
  | [] -> Some subst
  | (pos, pat) :: rest -> begin
    match Subst.match_term pat (Value.extern tuple.(pos)) subst with
    | None -> None
    | Some subst' -> match_free rest tuple subst'
  end

let run_fast ?stats ~source ~on_fact f =
  let env = Array.make (max 1 f.fvars) f.fzero in
  let keybufs =
    Array.map (fun s -> Array.make (Array.length s.fkey) f.fzero) f.fsteps
  in
  let bump =
    match stats with
    | None -> fun () -> ()
    | Some s -> fun () -> s.Stats.probes <- s.Stats.probes + 1
  in
  let nsteps = Array.length f.fsteps in
  let rec go i =
    if i >= nsteps then
      on_fact f.fhead_sym
        (Array.map (function Fconst t -> t | Fbound j -> env.(j)) f.fhead)
    else
      let s = f.fsteps.(i) in
      match source s.flit s.fsym with
      | [] -> ()
      | views ->
        let key = keybufs.(i) in
        for j = 0 to Array.length s.fkey - 1 do
          key.(j) <- (match s.fkey.(j) with Fconst v -> v | Fbound w -> env.(w))
        done;
        bump ();
        if s.fall_bound then begin
          if view_mem views key then go (i + 1)
        end
        else
          views_iter_matching views ~pattern:s.fpattern ~key (fun tuple ->
              let nfree = Array.length s.ffree in
              let rec apply j =
                if j >= nfree then go (i + 1)
                else
                  match s.ffree.(j) with
                  | Bind (pos, slot) ->
                    env.(slot) <- tuple.(pos);
                    apply (j + 1)
                  | Check (pos, slot) ->
                    if Value.equal env.(slot) tuple.(pos) then apply (j + 1)
              in
              apply 0)
  in
  go 0

let run_generic ?stats ~source ~neg_source ~on_fact instance =
  let steps = instance.steps in
  let nsteps = Array.length steps in
  let emit subst =
    match instance.head with
    | Direct (sym, slots) -> on_fact sym (eval_key subst slots)
    | Dynamic h ->
      let head = Atom.apply_eval subst h in
      if not (Atom.is_ground head) then
        raise
          (Solve.Unsafe
             (Fmt.str "rule for %a derived non-ground head %a" Atom.pp h Atom.pp head));
      on_fact (Atom.symbol head) (Tuple.of_list head.Atom.args)
  in
  let rec go i subst =
    if i >= nsteps then emit subst
    else
      match steps.(i) with
      | Scan s -> begin
        match source s.lit s.sym with
        | [] -> ()
        | views ->
          let key = eval_key subst s.key in
          bump_probes stats;
          if s.all_bound then begin
            if view_mem views key then go (i + 1) subst
          end
          else
            views_iter_matching views ~pattern:s.pattern ~key (fun tuple ->
                match match_free s.free tuple subst with
                | Some subst' -> go (i + 1) subst'
                | None -> ())
      end
      | Builtin atom -> Solve.eval_builtin atom subst (fun s -> go (i + 1) s)
      | Neg_builtin atom ->
        let a = Atom.apply_eval subst atom in
        if not (Atom.is_ground a) then
          raise
            (Solve.Unsafe
               (Fmt.str "negated literal %a reached with unbound variables" Atom.pp a))
        else begin
          let found = ref false in
          Solve.eval_builtin a subst (fun _ -> found := true);
          if not !found then go (i + 1) subst
        end
      | Neg_scan { lit; sym; atom; key } ->
        let holds =
          match key with
          | Some slots -> begin
            match neg_source lit sym with
            | [] -> false
            | views ->
              bump_probes stats;
              view_mem views (eval_key subst slots)
          end
          | None ->
            let a = Atom.apply_eval subst atom in
            if not (Atom.is_ground a) then
              raise
                (Solve.Unsafe
                   (Fmt.str "negated literal %a reached with unbound variables" Atom.pp
                      a));
            (match neg_source lit sym with
             | [] -> false
             | views -> (
               bump_probes stats;
               (* a component that was never interned occurs in no view *)
               match Tuple.find_of_list a.Atom.args with
               | None -> false
               | Some key -> view_mem views key))
        in
        if not holds then go (i + 1) subst
  in
  go 0 Subst.empty

let run ?stats ~source ~neg_source ~on_fact instance =
  match instance.fast with
  | Some f -> run_fast ?stats ~source ~on_fact f
  | None -> run_generic ?stats ~source ~neg_source ~on_fact instance

let head_symbol instance =
  match instance.head with Direct (sym, _) -> Some sym | Dynamic _ -> None

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_slot ppf = function
  | Const t -> Fmt.pf ppf "const %a" Term.pp t
  | Bound x -> Fmt.pf ppf "var %s" x
  | Expr t -> Fmt.pf ppf "expr %a" Term.pp t

let pp_step ppf = function
  | Scan s ->
    Fmt.pf ppf "scan@%d %a %s [%a]%s" s.lit Symbol.pp s.sym
      (String.concat ""
         (List.map (fun b -> if b then "b" else "f") (Array.to_list s.pattern)))
      (Fmt.list ~sep:(Fmt.any "; ") pp_slot)
      (Array.to_list s.key)
      (if s.all_bound then " (mem)" else "")
  | Builtin a -> Fmt.pf ppf "builtin %a" Atom.pp a
  | Neg_builtin a -> Fmt.pf ppf "neg-builtin %a" Atom.pp a
  | Neg_scan { sym; key; _ } ->
    Fmt.pf ppf "neg-scan %a%s" Symbol.pp sym
      (match key with Some _ -> "" | None -> " (dynamic)")

let pp_emit ppf = function
  | Direct (sym, slots) ->
    Fmt.pf ppf "direct %a (%a)" Symbol.pp sym
      (Fmt.list ~sep:(Fmt.any ", ") pp_slot)
      (Array.to_list slots)
  | Dynamic a -> Fmt.pf ppf "dynamic %a" Atom.pp a

let pp_instance ppf inst =
  Fmt.pf ppf "@[<v2>%a@ head: %a%s@]"
    (Fmt.list ~sep:Fmt.cut pp_step)
    (Array.to_list inst.steps) pp_emit inst.head
    (match inst.fast with Some _ -> " (fast)" | None -> "")

let pp ppf plan =
  Fmt.pf ppf "@[<v2>plan for %a:@ base: %a@ %a@]" Rule.pp plan.rule pp_instance
    plan.base
    (Fmt.list ~sep:Fmt.cut (fun ppf (i, inst) ->
         Fmt.pf ppf "delta@%d: %a" i pp_instance inst))
    plan.delta
