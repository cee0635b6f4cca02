open Datalog

type adorned_rule = {
  source_index : int;
  head_pred : string;
  head_adornment : Adornment.t;
  sip : Sip.t;
  rule : Rule.t;
  body_adornments : Adornment.t option array;
}

type t = {
  program : Program.t;
  rules : adorned_rule list;
  query : Atom.t;
  query_pred : string * Adornment.t;
  naming : Naming.t;
  source_derived : Symbol.Set.t;
}

(* Reorder a rule's body into sip order (condition (3') of the paper) and
   remap the sip's indices accordingly, so that all downstream
   transformations can assume body order = sip order. *)
let normalize_order rule sip =
  let order = Sip.ordering rule sip in
  if order = List.init (List.length order) Fun.id then (rule, sip)
  else begin
    let body = Array.of_list rule.Rule.body in
    let new_body = List.map (fun old -> body.(old)) order in
    let new_of_old = Array.make (Array.length body) 0 in
    List.iteri (fun new_i old -> new_of_old.(old) <- new_i) order;
    let remap_node = function
      | Sip.Head -> Sip.Head
      | Sip.Body j -> Sip.Body new_of_old.(j)
    in
    let arcs =
      List.map
        (fun arc ->
          {
            Sip.tail = List.map remap_node arc.Sip.tail;
            target = new_of_old.(arc.Sip.target);
            label = arc.Sip.label;
          })
        sip.Sip.arcs
    in
    (Rule.make rule.Rule.head new_body, { Sip.arcs })
  end

(* Adorn one source rule for head adornment [a]: choose a sip, adorn every
   derived body literal by the union of its incoming arc labels, and
   rename derived predicates to their adorned versions.  Returns the
   adorned rule and the list of (pred, adornment) pairs discovered. *)
let adorn_rule ~strategy ~derived ~naming source_index rule a =
  let sip = strategy ~derived rule a in
  begin
    match Sip.validate rule a sip with
    | Ok () -> ()
    | Error e -> invalid_arg (Fmt.str "Adorn: invalid sip for %a: %s" Rule.pp rule e)
  end;
  let rule, sip = normalize_order rule sip in
  let body = Array.of_list rule.Rule.body in
  let discovered = ref [] in
  let body_adornments = Array.make (Array.length body) None in
  let adorned_body =
    List.mapi
      (fun i lit ->
        match lit with
        | Rule.Pos atom when (not (Atom.is_builtin atom)) && Symbol.Set.mem (Atom.symbol atom) derived
          ->
          let chi = Sip.incoming_label sip i in
          let ai =
            if chi = [] then Adornment.all_free (Atom.arity atom)
            else Adornment.of_args ~bound_vars:(fun v -> List.mem v chi) atom.Atom.args
          in
          body_adornments.(i) <- Some ai;
          discovered := (atom.Atom.pred, ai) :: !discovered;
          Rule.Pos { atom with Atom.pred = Naming.adorned naming atom.Atom.pred ai }
        | Rule.Pos _ -> lit
        | Rule.Neg atom when Symbol.Set.mem (Atom.symbol atom) derived ->
          (* negated derived literals receive no bindings (extension
             beyond the paper); they keep their original name via the
             all-free adornment but must still be processed *)
          let ai = Adornment.all_free (Atom.arity atom) in
          body_adornments.(i) <- Some ai;
          discovered := (atom.Atom.pred, ai) :: !discovered;
          Rule.Neg atom
        | Rule.Neg _ -> lit)
      rule.Rule.body
  in
  let head =
    { rule.Rule.head with Atom.pred = Naming.adorned naming rule.Rule.head.Atom.pred a }
  in
  ( {
      source_index;
      head_pred = rule.Rule.head.Atom.pred;
      head_adornment = a;
      sip;
      rule = Rule.make head adorned_body;
      body_adornments;
    },
    List.rev !discovered )

let adorn ?(strategy = Sip.full_left_to_right) program query =
  begin
    match Program.well_formed program with
    | Ok () -> ()
    | Error e -> invalid_arg ("Adorn.adorn: " ^ e)
  end;
  let derived = Program.derived program in
  let reserved =
    Symbol.Set.elements (Program.predicates program) |> List.map (fun s -> s.Symbol.name)
  in
  let naming = Naming.create ~reserved in
  let query_adornment = Adornment.of_query query in
  let queue = Queue.create () in
  let processed = Hashtbl.create 16 in
  let push pred a =
    if not (Hashtbl.mem processed (pred, a)) then begin
      Hashtbl.replace processed (pred, a) ();
      Queue.add (pred, a) queue
    end
  in
  if Symbol.Set.mem (Atom.symbol query) derived then
    push query.Atom.pred query_adornment;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let pred, a = Queue.pop queue in
    let sym = Symbol.make pred (Adornment.arity a) in
    List.iter
      (fun (i, rule) ->
        let ar, discovered = adorn_rule ~strategy ~derived ~naming i rule a in
        out := ar :: !out;
        List.iter (fun (p, ai) -> push p ai) discovered)
      (Program.rules_for program sym)
  done;
  let rules = List.rev !out in
  let query' =
    (* a query over a base predicate keeps its name: there is nothing to
       adorn and the answers come straight from the database *)
    if Symbol.Set.mem (Atom.symbol query) derived then
      { query with Atom.pred = Naming.adorned naming query.Atom.pred query_adornment }
    else query
  in
  {
    program = Program.make (List.map (fun ar -> ar.rule) rules);
    rules;
    query = query';
    query_pred = (query.Atom.pred, query_adornment);
    naming;
    source_derived = derived;
  }

let pp ppf t =
  Fmt.pf ppf "%a@\n?- %a." Program.pp t.program Atom.pp t.query
