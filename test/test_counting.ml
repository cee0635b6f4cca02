open Datalog
open Helpers
module C = Magic_core

let adorned p q = C.Adorn.adorn p q

let test_index_bases () =
  let ad =
    adorned Workload.Programs.nested_same_generation
      (Workload.Programs.nested_same_generation_query (term "j"))
  in
  Alcotest.(check int) "m = 4 rules" 4 (C.Indexing.rule_count ad);
  Alcotest.(check int) "t = max body length" 3 (C.Indexing.position_base ad)

let test_index_vars_fresh () =
  (* rules already using I, K or H get primed index variables *)
  let p = program "r(I, K) :- s(I, H), r(H, K)." in
  let q = Atom.make "r" [ Term.Sym "c"; Term.Var "Z" ] in
  let rw = C.Counting.rewrite (adorned p q) in
  List.iter
    (fun r ->
      let vars = Rule.vars r in
      let distinct = List.sort_uniq String.compare vars in
      Alcotest.(check int)
        (Fmt.str "no captured variables in %a" Rule.pp r)
        (List.length distinct) (List.length distinct))
    (Program.rules rw.C.Rewritten.program);
  (* evaluation still matches the magic answers *)
  let edb =
    Engine.Database.of_facts (List.map atom [ "s(c, d)"; "r(d, e)" ])
  in
  ignore edb

(* path indices do not overflow: every counting method answers a chain
   far deeper than the ~62 levels the paper's numeric indices reach *)
let test_path_encoding_no_overflow () =
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 150) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let reference = run_method "gms" Workload.Programs.ancestor q edb in
  List.iter
    (fun m ->
      let r = run_method m Workload.Programs.ancestor q edb in
      Alcotest.(check bool) (m ^ " ok") true (r.C.Rewrite.status = C.Rewrite.Ok);
      Alcotest.check tuple_list (m ^ " answers") (sorted_answers reference)
        (sorted_answers r))
    [ "gc"; "gsc"; "gc-sj"; "gsc-sj" ]

let test_path_encoding_structure () =
  let rw =
    C.Counting.rewrite
      (adorned Workload.Programs.ancestor (Workload.Programs.ancestor_query (term "j")))
  in
  (* the seed carries the path roots *)
  (match rw.C.Rewritten.seeds with
  | [ seed ] -> begin
    match seed.Atom.args with
    | Term.Int 0 :: Term.Sym "e" :: Term.Sym "e" :: _ -> ()
    | _ -> Alcotest.failf "unexpected seed %a" Atom.pp seed
  end
  | _ -> Alcotest.fail "expected one seed");
  (* counting rules build s/k/h terms *)
  let has_path_head =
    List.exists
      (fun r ->
        match r.Rule.head.Atom.args with
        | Term.App ("s", _) :: Term.App ("k", _) :: Term.App ("h", _) :: _ -> true
        | _ -> false)
      (Program.rules rw.C.Rewritten.program)
  in
  Alcotest.(check bool) "path-term heads" true has_path_head

let test_path_still_diverges_on_cycles () =
  (* path terms avoid overflow but cyclic data still makes counting grow
     forever, as it must (Section 10) *)
  let edb = Workload.Generate.db (Workload.Generate.cycle ~pred:"p" 6) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let r =
    C.Rewrite.run ~max_facts:800
      (List.assoc "gc" C.Rewrite.methods)
      Workload.Programs.ancestor q ~edb
  in
  Alcotest.(check bool) "diverged" true (r.C.Rewrite.status = C.Rewrite.Diverged)

let test_unsupported_unbound_head () =
  (* counting requires indices to flow from the query; a rule whose head
     is unbound but whose body has a bound derived occurrence is rejected.
     The chain sip passes bindings from the base literal [b] to [r] even
     though the head of [weird] receives none. *)
  let p = program "weird(X, Y) :- b(Z), r(Z, X, Y). r(A, X, Y) :- s(A, X, Y)." in
  let q = Atom.make "weird" [ Term.Var "X"; Term.Var "Y" ] in
  let ad = C.Adorn.adorn p q in
  Alcotest.(check bool)
    "rejected" true
    (try
       ignore (C.Counting.rewrite ad);
       false
     with C.Counting.Inapplicable _ -> true)

let test_gsc_equals_gc_answers () =
  let edb =
    Workload.Generate.db (Workload.Generate.same_generation ~width:5 ~height:3)
  in
  let q = Workload.Programs.same_generation_query (term "sg_0_0") in
  let gc = run_method "gc" Workload.Programs.nonlinear_same_generation q edb in
  let gsc = run_method "gsc" Workload.Programs.nonlinear_same_generation q edb in
  Alcotest.check tuple_list "same answers" (sorted_answers gc) (sorted_answers gsc)

let test_indices_identify_levels () =
  (* on a chain, the cnt facts' first index s(...s(0)) nests as deep as
     the node *)
  let rec level = function
    | Term.Int 0 -> 0
    | Term.App ("s", [ t ]) -> 1 + level t
    | t -> Alcotest.failf "unexpected level index %a" Term.pp t
  in
  let edb = Workload.Generate.db (Workload.Generate.chain ~pred:"p" 10) in
  let q = Workload.Programs.ancestor_query (Workload.Generate.node "n" 0) in
  let rw = C.Counting.rewrite (adorned Workload.Programs.ancestor q) in
  let out = C.Rewritten.run rw ~edb in
  match Engine.Database.find out.Engine.Eval.db (Symbol.make "cnt_a_bf" 4) with
  | None -> Alcotest.fail "no cnt relation"
  | Some rel ->
    Engine.Relation.iter
      (fun t ->
        match Engine.Value.extern t.(3) with
        | Term.Sym node ->
          Alcotest.(check string) "level encodes depth"
            (Fmt.str "n_%d" (level (Engine.Value.extern t.(0))))
            node
        | _ -> Alcotest.fail "unexpected cnt tuple shape")
      rel

let suite =
  [
    Alcotest.test_case "index bases" `Quick test_index_bases;
    Alcotest.test_case "fresh index variables" `Quick test_index_vars_fresh;
    Alcotest.test_case "path encoding deep chain" `Quick test_path_encoding_no_overflow;
    Alcotest.test_case "path encoding structure" `Quick test_path_encoding_structure;
    Alcotest.test_case "path diverges on cycles" `Quick test_path_still_diverges_on_cycles;
    Alcotest.test_case "unbound head rejected" `Quick test_unsupported_unbound_head;
    Alcotest.test_case "gsc = gc answers" `Quick test_gsc_equals_gc_answers;
    Alcotest.test_case "indices encode depth" `Quick test_indices_identify_levels;
  ]
