(* The programs whose cost reports and evaluation counters are pinned
   by the "cost: reports unchanged" and "counters: eval unchanged"
   tests: the corpus ([examples/*.dl] without the update scripts, and
   [data/*.dl]) plus generated families at smoke sizes.  A case is a
   program, its query and its facts; [report] renders
   [Analysis.Pass_cost.pp_report] for it, with the expected text in
   [test/cost_reports/NAME.txt]. *)

open Datalog
module G = Workload.Generate
module P = Workload.Programs

type case = {
  name : string;
  only : string list option;  (* the cost report's candidate restriction *)
  input : unit -> Program.t * Atom.t * Engine.Database.t;
}

let report case =
  let program, query, edb = case.input () in
  Fmt.str "%a" Analysis.Pass_cost.pp_report
    (Analysis.Pass_cost.choose ~db:edb ?only:case.only program query)

let of_source src =
  let p, q = Parser.parse_program src in
  let p, facts = Parser.split_facts p in
  (p, Option.get q, Engine.Database.of_facts facts)

let read path = In_channel.with_open_bin path In_channel.input_all

let corpus () =
  List.concat_map
    (fun dir ->
      Sys.readdir (Helpers.repo_file dir)
      |> Array.to_list
      |> List.filter (fun f ->
             Filename.check_suffix f ".dl"
             && not (String.starts_with ~prefix:"updates_" f))
      |> List.sort String.compare
      |> List.map (fun f ->
             {
               name = dir ^ "_" ^ Filename.chop_suffix f ".dl";
               only = None;
               input = (fun () -> of_source (read (Helpers.repo_file (Filename.concat dir f))));
             }))
    [ "examples"; "data" ]

(* layered DAG: [degree] successors per node in the next layer, drawn
   from a seeded generator *)
let layered_dag ~layers ~width ~degree ~seed =
  let r = G.rng seed in
  let cell l i = Term.Sym (Fmt.str "l_%d_%d" l i) in
  List.concat
    (List.init (layers - 1) (fun l ->
         List.concat
           (List.init width (fun i ->
                List.sort_uniq compare
                  (List.init degree (fun _ -> G.next r ~bound:width))
                |> List.map (fun j -> Atom.make "edge" [ cell l i; cell (l + 1) j ])))))

let generated =
  let anc = P.ancestor_query and tc = P.tc_query in
  let hub_edb n =
    G.db
      (G.chain n
      @ List.init 3 (fun i -> Atom.make "spoke" [ G.node "h" 0; G.node "n" ((3 * n / 4) + i) ]))
  in
  let case ?only name input = { name; only; input } in
  [
    case "chain_root" (fun () -> (P.ancestor, anc (G.node "n" 0), G.db (G.chain ~pred:"p" 30)));
    case "chain_mid" (fun () ->
        (P.ancestor, anc (G.node "n" 150), G.db (G.chain ~pred:"p" 300)));
    case "tree_ancestor" (fun () ->
        ( P.ancestor,
          anc (G.node "n" 0),
          G.db (G.tree ~pred:"p" ~branching:3 ~depth:6 ()) ));
    case "tree_tc" (fun () ->
        ( P.transitive_closure,
          tc (G.node "n" 0),
          G.db (G.tree ~pred:"edge" ~branching:3 ~depth:5 ()) ));
    (* 9,840 edges: the OPT table's full-size tree *)
    case "tree_tc_large" (fun () ->
        ( P.transitive_closure,
          tc (G.node "n" 0),
          G.db (G.tree ~pred:"edge" ~branching:3 ~depth:8 ()) ));
    case "samegen_towers" (fun () ->
        ( P.same_generation_linear,
          P.same_generation_query (Term.Sym "sg_3_0"),
          G.db (G.same_generation ~width:8 ~height:8) ));
    case "samegen_bushy" (fun () ->
        ( P.same_generation_linear,
          P.same_generation_query (G.node "bsg" 1),
          G.db (G.bushy_same_generation ~branching:3 ~depth:4 ()) ));
    case "nonlinear_chain" (fun () ->
        (P.nonlinear_ancestor, anc (G.node "n" 0), G.db (G.chain ~pred:"p" 40)));
    case "dag_tc" (fun () ->
        ( P.transitive_closure,
          tc (Term.Sym "l_0_3"),
          G.db (layered_dag ~layers:8 ~width:12 ~degree:2 ~seed:5) ));
    case "dag_ancestor" (fun () ->
        let edges = layered_dag ~layers:6 ~width:10 ~degree:3 ~seed:9 in
        let p = List.map (fun (a : Atom.t) -> Atom.make "p" a.Atom.args) edges in
        (P.ancestor, anc (Term.Sym "l_0_0"), G.db p));
    case "random_tc" (fun () ->
        let facts = G.random_graph ~pred:"edge" ~nodes:120 ~edges:180 ~seed:11 () in
        (P.transitive_closure, tc (List.hd (List.hd facts).Atom.args), G.db facts));
    case "grid_tc" (fun () ->
        (P.transitive_closure, tc (Term.Sym "g_0_0"), G.db (G.grid ~width:12 ~height:12 ())));
    case "hub" (fun () -> (P.hub, P.hub_query (G.node "h" 0), hub_edb 100));
    case "hub_session" ~only:[ "gms"; "gsms" ] (fun () ->
        (P.hub, P.hub_query (G.node "h" 0), hub_edb 100));
    case "ancestor_symbolic" (fun () ->
        (P.ancestor, anc (G.node "n" 0), Engine.Database.create ()));
  ]

let all () = corpus () @ generated
