open Datalog

type t = {
  program : Program.t;  (** as parsed, facts included, index-aligned with [srcmap] *)
  query : Atom.t option;
  srcmap : Parser.source_map;
}

let make ?(srcmap = Parser.empty_map) ?query program = { program; query; srcmap }

let is_ground_fact (r : Rule.t) = Rule.is_fact r && Atom.is_ground r.Rule.head

let concat_rules t f =
  let acc = ref [] in
  List.iteri
    (fun i r -> if not (is_ground_fact r) then acc := f i r :: !acc)
    (Program.rules t.program);
  List.concat (List.rev !acc)

let clause t i = Parser.rule_spans t.srcmap i

let rule_span t i =
  match clause t i with Some c -> c.Parser.clause_span | None -> Loc.dummy

let head_span t i =
  match clause t i with Some c -> c.Parser.head_span | None -> Loc.dummy

let lit_span t i j =
  match clause t i with
  | Some c -> (
    match List.nth_opt c.Parser.literal_spans j with
    | Some s when not (Loc.is_dummy s) -> s
    | _ -> c.Parser.clause_span)
  | None -> Loc.dummy

let query_span t = Option.value ~default:Loc.dummy t.srcmap.Parser.query_span
