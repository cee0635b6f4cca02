open Datalog

(* Every rule instance compiles to one integer-slot form: the
   substitution is a [Value.t array] indexed by compile-time variable
   numbers, key constants are pre-interned, and terms are built and
   destructured through interned ids ([Value.app], [Value.view]) rather
   than symbolic terms.  Static binding discipline makes un-binding on
   backtrack unnecessary: a slot is only ever read after a write on the
   current path. *)

type expr =
  | Const of Value.t
  | Slot of int
  | App of string * expr array
  | Add of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type pat =
  | Pbind of int
  | Pis of expr
  | Papp of string * pat array
  | Padd of pat * expr
  | Pmul of pat * expr
  | Pnever

type action = Bind of int * int | Check of int * int | Match of int * pat

type scan = {
  lit : int;
  pattern : bool array;
  key : expr array;
  free : action array;
  all_bound : bool;
}

type op = Eq | Ne | Lt | Le | Gt | Ge

type stuck_kind = Unready_builtin | Unready_negation | Unbound_head

type stuck = { kind : stuck_kind; atom : Atom.t; known : (string * int) list }

type step =
  | Scan of scan
  | Neg_scan of { lit : int; key : expr array }
  | Unify of expr * pat
  | Test of { op : op; l : expr; r : expr; negated : bool }
  | Stuck of stuck

type emit = Direct of Symbol.t * expr array | Dynamic of stuck

(* The compiled form is immutable: all executor scratch (the env array,
   the per-step key buffers, the head buffer and the scan continuations)
   is allocated per {!run} call, a handful of small blocks per run.
   Probes and firings within a run reuse them, so the join loop
   allocates nothing — but two executors of the same instance, nested
   through an [on_fact] that fires another run, can never corrupt each
   other's keys.  [zero] is a pre-interned filler for those scratch
   arrays, so a run never touches the value pool for them. *)
type instance = { steps : step array; head : emit; nvars : int; zero : Value.t }

type t = { rule : Rule.t; base : instance; delta : (int * instance) list }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Variable slots of the instance being compiled: a variable has a slot
   exactly when it is bound at the current point of the join. *)
type ctx = { slots : (string, int) Hashtbl.t; mutable count : int }

let is_bound c x = Hashtbl.mem c.slots x
let ground_in c t = List.for_all (is_bound c) (Term.vars t)

let new_slot c x =
  let i = c.count in
  c.count <- i + 1;
  Hashtbl.add c.slots x i;
  i

let known c = Hashtbl.fold (fun x i acc -> (x, i) :: acc) c.slots []

let rec has_arith = function
  | Term.Add _ | Term.Mul _ | Term.Div _ -> true
  | Term.App (_, xs) -> List.exists has_arith xs
  | Term.Var _ | Term.Int _ | Term.Sym _ -> false

(* A term whose variables are all bound.  Constants are interned now,
   but arithmetic stays symbolic even when ground, so that evaluation
   errors (division by zero, overflow) surface when the step runs, not
   at compile time. *)
let rec expr c t =
  match t with
  | Term.Var x -> Slot (Hashtbl.find c.slots x)
  | Term.Int _ | Term.Sym _ -> Const (Value.intern t)
  | Term.App (f, xs) ->
    if Term.is_ground t && not (has_arith t) then Const (Value.intern t)
    else App (f, Array.of_list (List.map (expr c) xs))
  | Term.Add (a, b) -> Add (expr c a, expr c b)
  | Term.Mul (a, b) -> Mul (expr c a, expr c b)
  | Term.Div (a, b) -> Div (expr c a, expr c b)

(* A term matched against a value, left to right, binding the slots of
   its unbound variables as it goes.  With [invert], an addition or
   multiplication with one unbound side is inverted, as one-way matching
   of stored tuples does for the counting rules the semijoin optimization
   leaves without a guard literal; [=] unifies and inverts nothing.
   Every variable gets a slot even under [Pnever], which matches
   nothing, so later steps compile against the static model. *)
let rec pat ~invert c t =
  match t with
  | Term.Var x -> (
    match Hashtbl.find_opt c.slots x with Some i -> Pis (Slot i) | None -> Pbind (new_slot c x))
  | Term.Int _ | Term.Sym _ -> Pis (expr c t)
  | Term.App (f, xs) ->
    (* a compound with variables is destructured even when they are all
       bound: checking its parts interns no new value *)
    if Term.is_ground t && not (has_arith t) then Pis (expr c t)
    else Papp (f, Array.of_list (List.map (pat ~invert c) xs))
  | Term.Add _ | Term.Mul _ | Term.Div _ when ground_in c t -> Pis (expr c t)
  | Term.Add (a, b) when invert ->
    if ground_in c b then Padd (pat ~invert c a, expr c b)
    else if ground_in c a then Padd (pat ~invert c b, expr c a)
    else never c t
  | Term.Mul (a, b) when invert ->
    if ground_in c b then Pmul (pat ~invert c a, expr c b)
    else if ground_in c a then Pmul (pat ~invert c b, expr c a)
    else never c t
  | Term.Add _ | Term.Mul _ | Term.Div _ -> never c t

and never c t =
  List.iter (fun x -> if not (is_bound c x) then ignore (new_slot c x)) (Term.vars t);
  Pnever

let op_of = function
  | "=" -> Eq
  | "<>" -> Ne
  | "<" -> Lt
  | "<=" -> Le
  | ">" -> Gt
  | ">=" -> Ge
  | op -> invalid_arg ("Plan: unknown builtin " ^ op)

let compile_scan c i atom =
  let args = Array.of_list atom.Atom.args in
  let pattern = Array.map (ground_in c) args in
  let key = Array.of_list (List.filteri (fun j _ -> pattern.(j)) atom.Atom.args) in
  let key = Array.map (expr c) key in
  let free =
    List.filter_map
      (fun j ->
        if pattern.(j) then None
        else
          Some
            (match args.(j) with
            | Term.Var x -> (
              match Hashtbl.find_opt c.slots x with
              | Some s -> Check (j, s)
              | None -> Bind (j, new_slot c x))
            | t -> Match (j, pat ~invert:true c t)))
      (List.init (Array.length args) Fun.id)
  in
  let free = Array.of_list free in
  Scan { lit = i; pattern; key; free; all_bound = free = [||] }

let compile_step c (i, lit) =
  match lit with
  | Rule.Pos ({ Atom.pred = "="; args = [ l; r ] } as a) when Atom.is_builtin a ->
    let l, r = if ground_in c l then (l, r) else (r, l) in
    let e = expr c l in
    Unify (e, pat ~invert:false c r)
  | (Rule.Pos a | Rule.Neg a) when Atom.is_builtin a -> begin
    match a.Atom.args with
    | [ l; r ] ->
      let negated = match lit with Rule.Neg _ -> true | Rule.Pos _ -> false in
      Test { op = op_of a.Atom.pred; l = expr c l; r = expr c r; negated }
    | _ -> assert false (* builtins are binary *)
  end
  | Rule.Neg a -> Neg_scan { lit = i; key = Array.of_list (List.map (expr c) a.Atom.args) }
  | Rule.Pos a -> compile_scan c i a

let is_filter = function Rule.Pos a -> Atom.is_builtin a | Rule.Neg _ -> true

(* A filter is ready once enough of its variables are bound to evaluate
   it; [=] as soon as one side is (matching then grounds the other). *)
let ready c = function
  | Rule.Pos { Atom.pred = "="; args = [ l; r ] } -> ground_in c l || ground_in c r
  | Rule.Pos a | Rule.Neg a -> List.for_all (ground_in c) a.Atom.args

(* One instance: its join order, compiled step by step, so the slot
   table is the one binding model.  Builtins and negations are filters:
   each runs at the first step where it is ready, and in the base
   instance ([forced = None]) never before the position it is written
   at; the base instance keeps its relation literals in written order,
   so it probes exactly what a left-to-right solve probes.  A delta
   instance scans its [forced] literal first, so a round's work is
   proportional to the delta, then greedily picks the relation literal
   with the most bound argument positions (ties towards written order,
   the paper's default sip), flushing every filter as soon as it is
   ready. *)
let compile_instance rule ~forced body =
  let c = { slots = Hashtbl.create 8; count = 0 } in
  let steps = ref [] in
  let emit entry = steps := compile_step c entry :: !steps in
  Option.iter (fun d -> emit (List.nth body d)) forced;
  let remaining = ref (List.filter (fun (i, _) -> Some i <> forced) body) in
  let take entry = remaining := List.filter (fun e -> e != entry) !remaining in
  let relations () = List.filter (fun (_, lit) -> not (is_filter lit)) !remaining in
  let reached (i, _) =
    match forced, relations () with None, (j, _) :: _ -> i < j | _ -> true
  in
  let rec flush () =
    match
      List.find_opt
        (fun ((_, lit) as entry) -> is_filter lit && reached entry && ready c lit)
        !remaining
    with
    | Some entry ->
      take entry;
      emit entry;
      flush ()
    | None -> ()
  in
  let score (_, lit) =
    match lit with
    | Rule.Pos a | Rule.Neg a -> List.length (List.filter (ground_in c) a.Atom.args)
  in
  let next () =
    match forced, relations () with
    | _, [] -> None
    | None, entry :: _ -> Some entry
    | Some _, first :: rest ->
      Some
        (fst
           (List.fold_left
              (fun ((_, best) as acc) entry ->
                let s = score entry in
                if s > best then (entry, s) else acc)
              (first, score first) rest))
  in
  let rec loop () =
    flush ();
    match next () with
    | Some entry ->
      take entry;
      emit entry;
      loop ()
    | None -> ()
  in
  loop ();
  (* filters that never become ready wait until every relation literal
     has run; the first of them raises there *)
  (match !remaining with
  | [] -> ()
  | (_, Rule.Pos atom) :: _ ->
    steps := Stuck { kind = Unready_builtin; atom; known = known c } :: !steps
  | (_, Rule.Neg atom) :: _ ->
    steps := Stuck { kind = Unready_negation; atom; known = known c } :: !steps);
  let h = rule.Rule.head in
  let head =
    if List.for_all (ground_in c) h.Atom.args then
      Direct (Atom.symbol h, Array.of_list (List.map (expr c) h.Atom.args))
    else Dynamic { kind = Unbound_head; atom = h; known = known c }
  in
  {
    steps = Array.of_list (List.rev !steps);
    head;
    nvars = c.count;
    zero = Value.intern (Term.Int 0);
  }

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
    base = compile_instance rule ~forced:None body;
    delta =
      List.map
        (fun dpos -> (dpos, compile_instance rule ~forced:(Some dpos) body))
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

(* A literal reads the union of a list of disjoint stamp-range views,
   resolved once per run into an array indexed by body position.  The
   ordinary engines use singleton lists (one relation per literal); the
   incremental maintenance layer reads e.g. the pre-update state of a
   relation as "post-deletion range + the deleted set" without copying
   either. *)
let full rel = { rel; lo = 0; hi = max_int }

let stored db sym = match Database.find db sym with Some r -> [ full r ] | None -> []

let views rule f =
  Array.of_list
    (List.mapi
       (fun i lit ->
         match lit with
         | Rule.Pos a | Rule.Neg a when Atom.is_builtin a -> []
         | Rule.Pos a | Rule.Neg a -> f i lit (Atom.symbol a))
       rule.Rule.body)

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

(* Arithmetic follows {!Term.eval}: checked native integers, so
   [Term.Arithmetic_overflow] surfaces at the same step. *)
let int_of v =
  match Value.extern v with
  | Term.Int n -> n
  | Term.Sym _ -> invalid_arg "Term.eval: arithmetic over non-integer"
  | _ -> invalid_arg "Value.intern: non-ground arithmetic"

let vint n = Value.intern (Term.Int n)

let rec eval env e =
  match e with
  | Const v -> v
  | Slot i -> env.(i)
  | App (f, xs) -> Value.app f (Array.map (eval env) xs)
  | Add _ | Mul _ | Div _ -> vint (eval_int env e)

and eval_int env e =
  match e with
  | Add (a, b) ->
    let i = eval_int env a in
    Term.add_checked i (eval_int env b)
  | Mul (a, b) ->
    let i = eval_int env a in
    Term.mul_checked i (eval_int env b)
  | Div (a, b) ->
    let i = eval_int env a in
    let j = eval_int env b in
    if j = 0 then invalid_arg "Term.eval: division by zero" else i / j
  | Const _ | Slot _ | App _ -> int_of (eval env e)

(* written out rather than calling [eval] per position: the key fill of
   a pure-relational probe stays a loop of slot reads *)
let fill env buf key =
  for j = 0 to Array.length key - 1 do
    buf.(j) <- (match key.(j) with Const v -> v | Slot w -> env.(w) | e -> eval env e)
  done

let rec matches env p v =
  match p with
  | Pbind i ->
    env.(i) <- v;
    true
  | Pis (Add _ | Mul _ | Div _ as e) ->
    let n = eval_int env e in
    (match Value.extern v with Term.Int m -> m = n | _ -> false)
  | Pis e -> Value.equal (eval env e) v
  | Papp (f, ps) -> begin
    match Value.view v with
    | `App (g, kids) when String.equal f g && Array.length kids = Array.length ps ->
      let rec go j = j >= Array.length ps || (matches env ps.(j) kids.(j) && go (j + 1)) in
      go 0
    | `App _ | `Int _ | `Sym _ -> false
  end
  | Padd _ | Pmul _ -> (
    match Value.extern v with Term.Int n -> matches_int env p n | _ -> false)
  | Pnever -> false

(* an inverted arithmetic pattern: intermediate results stay native *)
and matches_int env p n =
  match p with
  | Padd (p, c) -> matches_int env p (n - eval_int env c)
  | Pmul (p, c) ->
    let c = eval_int env c in
    c <> 0 && n mod c = 0 && matches_int env p (n / c)
  | Pbind _ | Pis _ | Papp _ | Pnever -> matches env p (vint n)

(* Value.compare_structural is Term.compare on the denoted terms: integer
   order on two integers, a total order on ground terms otherwise *)
let test op a b =
  match op with
  | Eq -> Value.equal a b
  | Ne -> not (Value.equal a b)
  | Lt -> Value.compare_structural a b < 0
  | Le -> Value.compare_structural a b <= 0
  | Gt -> Value.compare_structural a b > 0
  | Ge -> Value.compare_structural a b >= 0

let unsafe env s =
  let value x =
    match List.assoc_opt x s.known with
    | Some i -> Value.extern env.(i)
    | None -> Term.Var x
  in
  let inst =
    Atom.make s.atom.Atom.pred
      (List.map (fun t -> Term.eval (Term.map_vars value t)) s.atom.Atom.args)
  in
  raise
    (Solve.Unsafe
       (match s.kind with
       | Unready_builtin ->
         Fmt.str "builtin %a reached with unbound arguments" Atom.pp s.atom
       | Unready_negation ->
         Fmt.str "negated literal %a reached with unbound variables" Atom.pp inst
       | Unbound_head ->
         Fmt.str "rule for %a derived non-ground head %a" Atom.pp s.atom Atom.pp inst))

(* the free positions of a scan against a retrieved tuple, binding
   slots as it goes: a top-level function, so a retrieved tuple costs
   no closure *)
let rec apply_free env free tuple j =
  j >= Array.length free
  || (match Array.unsafe_get free j with
     | Bind (pos, slot) ->
       env.(slot) <- tuple.(pos);
       true
     | Check (pos, slot) -> Value.equal env.(slot) tuple.(pos)
     | Match (pos, p) -> matches env p tuple.(pos))
     && apply_free env free tuple (j + 1)

let run ?stats ~views ~on_fact inst =
  let env = Array.make (max 1 inst.nvars) inst.zero in
  let keybufs =
    Array.map
      (function
        | Scan { key; _ } | Neg_scan { key; _ } -> Array.make (Array.length key) inst.zero
        | Unify _ | Test _ | Stuck _ -> [||])
      inst.steps
  in
  (* the borrowed head buffer: refilled for every firing *)
  let head =
    match inst.head with
    | Direct (_, h) -> Array.make (Array.length h) inst.zero
    | Dynamic _ -> [||]
  in
  let bump =
    match stats with
    | None -> fun () -> ()
    | Some s -> fun () -> s.Stats.probes <- s.Stats.probes + 1
  in
  let nsteps = Array.length inst.steps in
  (* one continuation per enumerating scan, built before the join starts *)
  let conts = Array.make nsteps ignore in
  let rec go i =
    if i >= nsteps then
      match inst.head with
      | Direct (sym, h) ->
        fill env head h;
        on_fact sym head
      | Dynamic s -> unsafe env s
    else
      match inst.steps.(i) with
      | Scan s -> begin
        match views.(s.lit) with
        | [] -> ()
        | vs ->
          let key = keybufs.(i) in
          fill env key s.key;
          bump ();
          if s.all_bound then begin
            if view_mem vs key then go (i + 1)
          end
          else views_iter_matching vs ~pattern:s.pattern ~key conts.(i)
      end
      | Neg_scan { lit; key } ->
        let holds =
          match views.(lit) with
          | [] -> false
          | vs ->
            bump ();
            let buf = keybufs.(i) in
            fill env buf key;
            view_mem vs buf
        in
        if not holds then go (i + 1)
      | Unify (e, p) -> if matches env p (eval env e) then go (i + 1)
      | Test { op; l; r; negated } ->
        let a = eval env l in
        if test op a (eval env r) <> negated then go (i + 1)
      | Stuck s -> unsafe env s
  in
  Array.iteri
    (fun i -> function
      | Scan { free; all_bound = false; _ } ->
        conts.(i) <- (fun tuple -> if apply_free env free tuple 0 then go (i + 1))
      | Scan _ | Neg_scan _ | Unify _ | Test _ | Stuck _ -> ())
    inst.steps;
  go 0
