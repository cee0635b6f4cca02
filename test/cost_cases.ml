(* The programs whose cost reports are pinned by the "cost: reports
   unchanged" test: the corpus ([examples/*.dl] without the update
   scripts, and [data/*.dl]) plus generated families at smoke sizes.
   Each case renders [Analysis.Pass_cost.pp_report] for the program's
   query over its facts; the expected text lives in
   [test/cost_reports/NAME.txt]. *)

open Datalog
module G = Workload.Generate
module P = Workload.Programs

let report ?only program query edb =
  Fmt.str "%a" Analysis.Pass_cost.pp_report
    (Analysis.Pass_cost.choose ~db:edb ?only program query)

let of_source src =
  let p, q = Parser.parse_program src in
  let p, facts = Parser.split_facts p in
  report p (Option.get q) (Engine.Database.of_facts facts)

let read path = In_channel.with_open_bin path In_channel.input_all

let corpus ~root =
  List.concat_map
    (fun dir ->
      Sys.readdir (Filename.concat root dir)
      |> Array.to_list
      |> List.filter (fun f ->
             Filename.check_suffix f ".dl"
             && not (String.starts_with ~prefix:"updates_" f))
      |> List.sort String.compare
      |> List.map (fun f ->
             ( dir ^ "_" ^ Filename.chop_suffix f ".dl",
               fun () -> of_source (read (Filename.concat root (Filename.concat dir f))) )))
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
  [
    ("chain_root", fun () -> report P.ancestor (anc (G.node "n" 0)) (G.db (G.chain ~pred:"p" 30)));
    ("chain_mid", fun () -> report P.ancestor (anc (G.node "n" 150)) (G.db (G.chain ~pred:"p" 300)));
    ( "tree_ancestor",
      fun () ->
        report P.ancestor (anc (G.node "n" 0))
          (G.db (G.tree ~pred:"p" ~branching:3 ~depth:6 ())) );
    ( "tree_tc",
      fun () ->
        report P.transitive_closure (tc (G.node "n" 0))
          (G.db (G.tree ~pred:"edge" ~branching:3 ~depth:5 ())) );
    (* 9,840 edges: the OPT table's full-size tree *)
    ( "tree_tc_large",
      fun () ->
        report P.transitive_closure (tc (G.node "n" 0))
          (G.db (G.tree ~pred:"edge" ~branching:3 ~depth:8 ())) );
    ( "samegen_towers",
      fun () ->
        report P.same_generation_linear
          (P.same_generation_query (Term.Sym "sg_3_0"))
          (G.db (G.same_generation ~width:8 ~height:8)) );
    ( "samegen_bushy",
      fun () ->
        report P.same_generation_linear
          (P.same_generation_query (G.node "bsg" 1))
          (G.db (G.bushy_same_generation ~branching:3 ~depth:4 ())) );
    ( "nonlinear_chain",
      fun () -> report P.nonlinear_ancestor (anc (G.node "n" 0)) (G.db (G.chain ~pred:"p" 40)) );
    ( "dag_tc",
      fun () ->
        report P.transitive_closure (tc (Term.Sym "l_0_3"))
          (G.db (layered_dag ~layers:8 ~width:12 ~degree:2 ~seed:5)) );
    ( "dag_ancestor",
      fun () ->
        let edges = layered_dag ~layers:6 ~width:10 ~degree:3 ~seed:9 in
        let p = List.map (fun (a : Atom.t) -> Atom.make "p" a.Atom.args) edges in
        report P.ancestor (anc (Term.Sym "l_0_0")) (G.db p) );
    ( "random_tc",
      fun () ->
        let facts = G.random_graph ~pred:"edge" ~nodes:120 ~edges:180 ~seed:11 () in
        report P.transitive_closure (tc (List.hd (List.hd facts).Atom.args)) (G.db facts) );
    ( "grid_tc",
      fun () ->
        report P.transitive_closure (tc (Term.Sym "g_0_0"))
          (G.db (G.grid ~width:12 ~height:12 ())) );
    ("hub", fun () -> report P.hub (P.hub_query (G.node "h" 0)) (hub_edb 100));
    ( "hub_session",
      fun () -> report ~only:[ "gms"; "gsms" ] P.hub (P.hub_query (G.node "h" 0)) (hub_edb 100) );
    ( "ancestor_symbolic",
      fun () -> report P.ancestor (anc (G.node "n" 0)) (Engine.Database.create ()) );
  ]

let all ~root = corpus ~root @ generated
