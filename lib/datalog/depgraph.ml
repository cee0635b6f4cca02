type edge = {
  src : Symbol.t;
  dst : Symbol.t;
  negated : bool;
  rule_index : int;
  body_position : int;
}

type t = {
  derived : Symbol.Set.t;
  edges : edge list; (* in program order: by rule, then body position *)
  succ : (Symbol.t * bool) list Symbol.Tbl.t; (* derived dst only, deduplicated *)
}

let of_rules rules =
  let derived =
    List.fold_left
      (fun s r -> Symbol.Set.add (Atom.symbol r.Rule.head) s)
      Symbol.Set.empty rules
  in
  let edges = ref [] in
  List.iteri
    (fun rule_index r ->
      if r.Rule.body <> [] then begin
        let src = Atom.symbol r.Rule.head in
        List.iteri
          (fun body_position lit ->
            let a = Rule.atom_of_literal lit in
            if not (Atom.is_builtin a) then
              edges :=
                {
                  src;
                  dst = Atom.symbol a;
                  negated = not (Rule.is_positive lit);
                  rule_index;
                  body_position;
                }
                :: !edges)
          r.Rule.body
      end)
    rules;
  let edges = List.rev !edges in
  let succ = Symbol.Tbl.create 16 in
  Symbol.Set.iter (fun s -> Symbol.Tbl.replace succ s []) derived;
  List.iter
    (fun e ->
      if Symbol.Set.mem e.dst derived then begin
        let existing = Option.value ~default:[] (Symbol.Tbl.find_opt succ e.src) in
        let key = (e.dst, e.negated) in
        if not (List.mem key existing) then
          Symbol.Tbl.replace succ e.src (existing @ [ key ])
      end)
    edges;
  { derived; edges; succ }

let derived g = g.derived
let edges g = g.edges

let successors g sym = Option.value ~default:[] (Symbol.Tbl.find_opt g.succ sym)

(* Tarjan's algorithm over derived predicates, components emitted callees
   first (reverse topological order of the condensed graph). *)
let sccs g =
  let index = ref 0 in
  let indices = Symbol.Tbl.create 16 in
  let lowlink = Symbol.Tbl.create 16 in
  let on_stack = Symbol.Tbl.create 16 in
  let stack = ref [] in
  let components = ref [] in
  let rec strongconnect v =
    Symbol.Tbl.replace indices v !index;
    Symbol.Tbl.replace lowlink v !index;
    incr index;
    stack := v :: !stack;
    Symbol.Tbl.replace on_stack v true;
    List.iter
      (fun (w, _) ->
        if not (Symbol.Tbl.mem indices w) then begin
          strongconnect w;
          let lv = Symbol.Tbl.find lowlink v and lw = Symbol.Tbl.find lowlink w in
          if lw < lv then Symbol.Tbl.replace lowlink v lw
        end
        else if Option.value ~default:false (Symbol.Tbl.find_opt on_stack w) then begin
          let lv = Symbol.Tbl.find lowlink v and iw = Symbol.Tbl.find indices w in
          if iw < lv then Symbol.Tbl.replace lowlink v iw
        end)
      (successors g v);
    if Symbol.Tbl.find lowlink v = Symbol.Tbl.find indices v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Symbol.Tbl.replace on_stack w false;
          if Symbol.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  Symbol.Set.iter
    (fun v -> if not (Symbol.Tbl.mem indices v) then strongconnect v)
    g.derived;
  List.rev !components

type negative_cycle = { cycle : Symbol.t list; through : edge }

(* A negative edge both of whose endpoints lie in one SCC witnesses that
   the program is not stratifiable; the cycle closes the edge with a
   positive-or-negative path from dst back to src inside the SCC. *)
let negative_cycle g =
  let sccs = sccs g in
  let comp_index = Symbol.Tbl.create 16 in
  List.iteri
    (fun i comp -> List.iter (fun s -> Symbol.Tbl.replace comp_index s i) comp)
    sccs;
  let same_comp a b =
    match Symbol.Tbl.find_opt comp_index a, Symbol.Tbl.find_opt comp_index b with
    | Some i, Some j -> i = j
    | _ -> false
  in
  match
    List.find_opt (fun e -> e.negated && same_comp e.src e.dst) g.edges
  with
  | None -> None
  | Some e ->
    (* path dst -> src within the SCC, by BFS over derived successors *)
    let target = e.src in
    let parent = Symbol.Tbl.create 16 in
    let queue = Queue.create () in
    Symbol.Tbl.replace parent e.dst e.dst;
    Queue.add e.dst queue;
    let rec bfs () =
      if Queue.is_empty queue then ()
      else begin
        let v = Queue.pop queue in
        if not (Symbol.equal v target) then begin
          List.iter
            (fun (w, _) ->
              if same_comp w e.src && not (Symbol.Tbl.mem parent w) then begin
                Symbol.Tbl.replace parent w v;
                Queue.add w queue
              end)
            (successors g v);
          bfs ()
        end
      end
    in
    bfs ();
    let rec walk v acc =
      if Symbol.equal v e.dst then v :: acc
      else
        match Symbol.Tbl.find_opt parent v with
        | Some p when not (Symbol.equal p v) -> walk p (v :: acc)
        | _ -> v :: acc
    in
    let path = if Symbol.Tbl.mem parent target then walk target [] else [ e.dst ] in
    Some { cycle = e.src :: path; through = e }

(* Least stratum assignment via the condensation: process components
   callees first; a component's stratum is the maximum over its members'
   dependencies of dep-stratum (+1 when negated).  Negation inside a
   component is exactly the non-stratifiable case. *)
let stratify g =
  match negative_cycle g with
  | Some _ -> Error "negation through recursion: the program is not stratifiable"
  | None ->
    let comps = sccs g in
    let comp_index = Symbol.Tbl.create 16 in
    List.iteri
      (fun i comp -> List.iter (fun s -> Symbol.Tbl.replace comp_index s i) comp)
      comps;
    let stratum = Symbol.Tbl.create 16 in
    List.iter
      (fun comp ->
        let level =
          List.fold_left
            (fun acc member ->
              List.fold_left
                (fun acc (dep, negated) ->
                  if
                    Symbol.Tbl.find_opt comp_index dep
                    = Symbol.Tbl.find_opt comp_index member
                  then acc (* intra-component edges are positive here *)
                  else
                    let sd =
                      Option.value ~default:0 (Symbol.Tbl.find_opt stratum dep)
                    in
                    max acc (if negated then sd + 1 else sd))
                acc (successors g member))
            0 comp
        in
        List.iter (fun member -> Symbol.Tbl.replace stratum member level) comp)
      comps;
    Ok (fun s -> Option.value ~default:0 (Symbol.Tbl.find_opt stratum s))

(* Predicates reachable from the roots through rule bodies (positive and
   negative dependencies alike, base predicates included). *)
let reachable g roots =
  let succ_all = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt succ_all e.src) in
      Hashtbl.replace succ_all e.src (e.dst :: existing))
    g.edges;
  let visited = ref Symbol.Set.empty in
  let rec go v =
    if not (Symbol.Set.mem v !visited) then begin
      visited := Symbol.Set.add v !visited;
      List.iter go (Option.value ~default:[] (Hashtbl.find_opt succ_all v))
    end
  in
  List.iter go roots;
  !visited
