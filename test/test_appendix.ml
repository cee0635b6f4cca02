(* Locks the rewriting outputs against the programs printed in the
   paper's appendix (A.3 GMS, A.4 GSMS, A.5 GC, A.6 GSC) and Section 8's
   optimized listings, written in our concrete syntax.  Comparison is
   rule-set equality modulo rule order and the H/t index normalization
   documented in DESIGN.md.  The counting listings use the paper's
   numeric indices ([Indexing.Numeric]), not the path indices the
   counting methods evaluate with. *)

open Datalog
open Helpers
module C = Magic_core

let john = Term.Sym "john"

let adorn_of p q = C.Adorn.adorn p q
let numeric_gc = C.Counting.rewrite ~encoding:C.Indexing.Numeric
let numeric_gsc = C.Sup_counting.rewrite ~encoding:C.Indexing.Numeric

let anc = Workload.Programs.ancestor
let anc_q = Workload.Programs.ancestor_query john
let nl_anc = Workload.Programs.nonlinear_ancestor
let nested = Workload.Programs.nested_same_generation
let nested_q = Workload.Programs.nested_same_generation_query john
let nl_sg = Workload.Programs.nonlinear_same_generation
let nl_sg_q = Workload.Programs.same_generation_query john
let rev = Workload.Programs.list_reverse
let rev_q = Workload.Programs.reverse_query (term "[a, b, c]")

let check_rewrite name rewrite p q expected_src expected_seeds =
  let rw = rewrite (adorn_of p q) in
  check_rule_set name (program expected_src) rw.C.Rewritten.program;
  Alcotest.(check (list string))
    (name ^ " seeds") expected_seeds
    (List.map Atom.to_string rw.C.Rewritten.seeds)

(* ------------------------------- A.3: GMS ------------------------- *)

let test_a3_ancestor () =
  check_rewrite "A.3.1" (C.Magic_sets.rewrite ?simplify:None) anc anc_q
    "magic_a_bf(Z) :- magic_a_bf(X), p(X, Z).\n\
     a_bf(X, Y) :- magic_a_bf(X), p(X, Y).\n\
     a_bf(X, Y) :- magic_a_bf(X), p(X, Z), a_bf(Z, Y)."
    [ "magic_a_bf(john)" ]

let test_a3_nonlinear_ancestor () =
  check_rewrite "A.3.2" (C.Magic_sets.rewrite ?simplify:None) nl_anc anc_q
    "magic_a_bf(X) :- magic_a_bf(X).\n\
     magic_a_bf(Z) :- magic_a_bf(X), a_bf(X, Z).\n\
     a_bf(X, Y) :- magic_a_bf(X), p(X, Y).\n\
     a_bf(X, Y) :- magic_a_bf(X), a_bf(X, Z), a_bf(Z, Y)."
    [ "magic_a_bf(john)" ]

let test_a3_nested_sg () =
  check_rewrite "A.3.3" (C.Magic_sets.rewrite ?simplify:None) nested nested_q
    "magic_p_bf(Z1) :- magic_p_bf(X), sg_bf(X, Z1).\n\
     magic_sg_bf(X) :- magic_p_bf(X).\n\
     magic_sg_bf(Z1) :- magic_sg_bf(X), up(X, Z1).\n\
     p_bf(X, Y) :- magic_p_bf(X), b1(X, Y).\n\
     p_bf(X, Y) :- magic_p_bf(X), sg_bf(X, Z1), p_bf(Z1, Z2), b2(Z2, Y).\n\
     sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).\n\
     sg_bf(X, Y) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), down(Z2, Y)."
    [ "magic_p_bf(john)" ]

let test_a3_list_reverse () =
  check_rewrite "A.3.4" (C.Magic_sets.rewrite ?simplify:None) rev rev_q
    "magic_append_bbf(V, X) :- magic_append_bbf(V, [W | X]).\n\
     magic_append_bbf(V, Z) :- magic_reverse_bf([V | X]), reverse_bf(X, Z).\n\
     magic_reverse_bf(X) :- magic_reverse_bf([V | X]).\n\
     append_bbf(V, [], [V]) :- magic_append_bbf(V, []).\n\
     append_bbf(V, [W | X], [W | Y]) :- magic_append_bbf(V, [W | X]), append_bbf(V, X, Y).\n\
     reverse_bf([], []) :- magic_reverse_bf([]).\n\
     reverse_bf([V | X], Y) :- magic_reverse_bf([V | X]), reverse_bf(X, Z), append_bbf(V, Z, Y)."
    [ "magic_reverse_bf([a, b, c])" ]

(* Example 4: nonlinear same generation, full sip (IV) *)
let test_example_4 () =
  check_rewrite "Example 4" (C.Magic_sets.rewrite ?simplify:None) nl_sg nl_sg_q
    "magic_sg_bf(Z1) :- magic_sg_bf(X), up(X, Z1).\n\
     magic_sg_bf(Z3) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), flat(Z2, Z3).\n\
     sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).\n\
     sg_bf(X, Y) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), flat(Z2, Z3), sg_bf(Z3, Z4), down(Z4, Y)."
    [ "magic_sg_bf(john)" ]

(* Example 4 with the partial sip (V) *)
let test_example_4_partial () =
  let ad = C.Adorn.adorn ~strategy:C.Sip.chain_left_to_right nl_sg nl_sg_q in
  let rw = C.Magic_sets.rewrite ad in
  check_rule_set "Example 4 (partial sip V)"
    (program
       "magic_sg_bf(Z1) :- magic_sg_bf(X), up(X, Z1).\n\
        magic_sg_bf(Z3) :- magic_sg_bf(Z1), sg_bf(Z1, Z2), flat(Z2, Z3).\n\
        sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).\n\
        sg_bf(X, Y) :- magic_sg_bf(X), up(X, Z1), sg_bf(Z1, Z2), flat(Z2, Z3), sg_bf(Z3, Z4), down(Z4, Y).")
    rw.C.Rewritten.program

(* ------------------------------- A.4: GSMS ------------------------ *)

let test_a4_ancestor () =
  check_rewrite "A.4.1" (C.Supplementary.rewrite ?simplify:None) anc anc_q
    "sup_1_2(X, Z) :- magic_a_bf(X), p(X, Z).\n\
     a_bf(X, Y) :- magic_a_bf(X), p(X, Y).\n\
     a_bf(X, Y) :- sup_1_2(X, Z), a_bf(Z, Y).\n\
     magic_a_bf(Z) :- sup_1_2(X, Z)."
    [ "magic_a_bf(john)" ]

let test_a4_nonlinear_ancestor () =
  check_rewrite "A.4.2" (C.Supplementary.rewrite ?simplify:None) nl_anc anc_q
    "sup_1_2(X, Z) :- magic_a_bf(X), a_bf(X, Z).\n\
     a_bf(X, Y) :- magic_a_bf(X), p(X, Y).\n\
     a_bf(X, Y) :- sup_1_2(X, Z), a_bf(Z, Y).\n\
     magic_a_bf(X) :- magic_a_bf(X).\n\
     magic_a_bf(Z) :- sup_1_2(X, Z)."
    [ "magic_a_bf(john)" ]

let test_a4_nested_sg () =
  check_rewrite "A.4.3" (C.Supplementary.rewrite ?simplify:None) nested nested_q
    "sup_1_2(X, Z1) :- magic_p_bf(X), sg_bf(X, Z1).\n\
     sup_3_2(X, Z1) :- magic_sg_bf(X), up(X, Z1).\n\
     p_bf(X, Y) :- magic_p_bf(X), b1(X, Y).\n\
     p_bf(X, Y) :- sup_1_2(X, Z1), p_bf(Z1, Z2), b2(Z2, Y).\n\
     sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).\n\
     sg_bf(X, Y) :- sup_3_2(X, Z1), sg_bf(Z1, Z2), down(Z2, Y).\n\
     magic_p_bf(Z1) :- sup_1_2(X, Z1).\n\
     magic_sg_bf(X) :- magic_p_bf(X).\n\
     magic_sg_bf(Z1) :- sup_3_2(X, Z1)."
    [ "magic_p_bf(john)" ]

let test_a4_list_reverse () =
  check_rewrite "A.4.4" (C.Supplementary.rewrite ?simplify:None) rev rev_q
    "sup_1_2(V, X, Z) :- magic_reverse_bf([V | X]), reverse_bf(X, Z).\n\
     append_bbf(V, [], [V]) :- magic_append_bbf(V, []).\n\
     append_bbf(V, [W | X], [W | Y]) :- magic_append_bbf(V, [W | X]), append_bbf(V, X, Y).\n\
     reverse_bf([], []) :- magic_reverse_bf([]).\n\
     reverse_bf([V | X], Y) :- sup_1_2(V, X, Z), append_bbf(V, Z, Y).\n\
     magic_append_bbf(V, X) :- magic_append_bbf(V, [W | X]).\n\
     magic_append_bbf(V, Z) :- sup_1_2(V, X, Z).\n\
     magic_reverse_bf(X) :- magic_reverse_bf([V | X])."
    [ "magic_reverse_bf([a, b, c])" ]

(* Example 5: GSMS on the nonlinear same-generation program *)
let test_example_5 () =
  check_rewrite "Example 5" (C.Supplementary.rewrite ?simplify:None) nl_sg nl_sg_q
    "sup_1_2(X, Z1) :- magic_sg_bf(X), up(X, Z1).\n\
     sup_1_3(X, Z2) :- sup_1_2(X, Z1), sg_bf(Z1, Z2).\n\
     sup_1_4(X, Z3) :- sup_1_3(X, Z2), flat(Z2, Z3).\n\
     sg_bf(X, Y) :- magic_sg_bf(X), flat(X, Y).\n\
     sg_bf(X, Y) :- sup_1_4(X, Z3), sg_bf(Z3, Z4), down(Z4, Y).\n\
     magic_sg_bf(Z1) :- sup_1_2(X, Z1).\n\
     magic_sg_bf(Z3) :- sup_1_4(X, Z3)."
    [ "magic_sg_bf(john)" ]

(* ------------------------------- A.5: GC -------------------------- *)

let test_a5_ancestor () =
  check_rewrite "A.5.1" numeric_gc anc anc_q
    "cnt_a_bf(I + 1, K * 2 + 2, H * 2 + 2, Z) :- cnt_a_bf(I, K, H, X), p(X, Z).\n\
     a_ind_bf(I, K, H, X, Y) :- cnt_a_bf(I, K, H, X), p(X, Y).\n\
     a_ind_bf(I, K, H, X, Y) :- cnt_a_bf(I, K, H, X), p(X, Z), a_ind_bf(I + 1, K * 2 + 2, H * 2 + 2, Z, Y)."
    [ "cnt_a_bf(0, 0, 0, john)" ]

let test_a5_nonlinear_ancestor_diverges () =
  (* A.5.2: the rewrite contains the self-feeding counting rule and the
     evaluation does not terminate; the static analysis predicts it *)
  let ad = adorn_of nl_anc anc_q in
  let rw = numeric_gc ad in
  let has_self_rule =
    List.exists
      (fun r ->
        Rule.equal r
          (rule
             "cnt_a_bf(I + 1, K * 2 + 2, H * 2 + 1, X) :- cnt_a_bf(I, K, H, X)."))
      (Program.rules rw.C.Rewritten.program)
  in
  Alcotest.(check bool) "self-feeding counting rule" true has_self_rule;
  Alcotest.(check bool)
    "statically diverges" true
    (C.Safety.analyze ad).C.Safety.counting_statically_diverges;
  let edb = Engine.Database.of_facts (List.map atom [ "p(john, m)"; "p(m, s)" ]) in
  let out = C.Rewritten.run ~max_facts:5_000 rw ~edb in
  Alcotest.(check bool) "diverges at runtime" true out.Engine.Eval.diverged

let test_a5_nested_sg () =
  check_rewrite "A.5.3" numeric_gc nested nested_q
    "cnt_p_bf(I + 1, K * 4 + 2, H * 3 + 2, Z1) :- cnt_p_bf(I, K, H, X), sg_ind_bf(I + 1, K * 4 + 2, H * 3 + 1, X, Z1).\n\
     cnt_sg_bf(I + 1, K * 4 + 2, H * 3 + 1, X) :- cnt_p_bf(I, K, H, X).\n\
     cnt_sg_bf(I + 1, K * 4 + 4, H * 3 + 2, Z1) :- cnt_sg_bf(I, K, H, X), up(X, Z1).\n\
     p_ind_bf(I, K, H, X, Y) :- cnt_p_bf(I, K, H, X), b1(X, Y).\n\
     p_ind_bf(I, K, H, X, Y) :- cnt_p_bf(I, K, H, X), sg_ind_bf(I + 1, K * 4 + 2, H * 3 + 1, X, Z1), p_ind_bf(I + 1, K * 4 + 2, H * 3 + 2, Z1, Z2), b2(Z2, Y).\n\
     sg_ind_bf(I, K, H, X, Y) :- cnt_sg_bf(I, K, H, X), flat(X, Y).\n\
     sg_ind_bf(I, K, H, X, Y) :- cnt_sg_bf(I, K, H, X), up(X, Z1), sg_ind_bf(I + 1, K * 4 + 4, H * 3 + 2, Z1, Z2), down(Z2, Y)."
    [ "cnt_p_bf(0, 0, 0, john)" ]

(* Example 6: GC on the nonlinear same-generation program *)
let test_example_6 () =
  check_rewrite "Example 6" numeric_gc nl_sg nl_sg_q
    "cnt_sg_bf(I + 1, K * 2 + 2, H * 5 + 2, Z1) :- cnt_sg_bf(I, K, H, X), up(X, Z1).\n\
     cnt_sg_bf(I + 1, K * 2 + 2, H * 5 + 4, Z3) :- cnt_sg_bf(I, K, H, X), up(X, Z1), sg_ind_bf(I + 1, K * 2 + 2, H * 5 + 2, Z1, Z2), flat(Z2, Z3).\n\
     sg_ind_bf(I, K, H, X, Y) :- cnt_sg_bf(I, K, H, X), flat(X, Y).\n\
     sg_ind_bf(I, K, H, X, Y) :- cnt_sg_bf(I, K, H, X), up(X, Z1), sg_ind_bf(I + 1, K * 2 + 2, H * 5 + 2, Z1, Z2), flat(Z2, Z3), sg_ind_bf(I + 1, K * 2 + 2, H * 5 + 4, Z3, Z4), down(Z4, Y)."
    [ "cnt_sg_bf(0, 0, 0, john)" ]

(* ------------------------------- A.6: GSC ------------------------- *)

let test_a6_ancestor () =
  check_rewrite "A.6.1" numeric_gsc anc anc_q
    "supcnt_1_2(I, K, H, X, Z) :- cnt_a_bf(I, K, H, X), p(X, Z).\n\
     a_ind_bf(I, K, H, X, Y) :- cnt_a_bf(I, K, H, X), p(X, Y).\n\
     a_ind_bf(I, K, H, X, Y) :- supcnt_1_2(I, K, H, X, Z), a_ind_bf(I + 1, K * 2 + 2, H * 2 + 2, Z, Y).\n\
     cnt_a_bf(I + 1, K * 2 + 2, H * 2 + 2, Z) :- supcnt_1_2(I, K, H, X, Z)."
    [ "cnt_a_bf(0, 0, 0, john)" ]

let test_a6_nested_sg () =
  check_rewrite "A.6.3" numeric_gsc nested nested_q
    "supcnt_1_2(I, K, H, X, Z1) :- cnt_p_bf(I, K, H, X), sg_ind_bf(I + 1, K * 4 + 2, H * 3 + 1, X, Z1).\n\
     supcnt_3_2(I, K, H, X, Z1) :- cnt_sg_bf(I, K, H, X), up(X, Z1).\n\
     p_ind_bf(I, K, H, X, Y) :- cnt_p_bf(I, K, H, X), b1(X, Y).\n\
     p_ind_bf(I, K, H, X, Y) :- supcnt_1_2(I, K, H, X, Z1), p_ind_bf(I + 1, K * 4 + 2, H * 3 + 2, Z1, Z2), b2(Z2, Y).\n\
     sg_ind_bf(I, K, H, X, Y) :- cnt_sg_bf(I, K, H, X), flat(X, Y).\n\
     sg_ind_bf(I, K, H, X, Y) :- supcnt_3_2(I, K, H, X, Z1), sg_ind_bf(I + 1, K * 4 + 4, H * 3 + 2, Z1, Z2), down(Z2, Y).\n\
     cnt_p_bf(I + 1, K * 4 + 2, H * 3 + 2, Z1) :- supcnt_1_2(I, K, H, X, Z1).\n\
     cnt_sg_bf(I + 1, K * 4 + 2, H * 3 + 1, X) :- cnt_p_bf(I, K, H, X).\n\
     cnt_sg_bf(I + 1, K * 4 + 4, H * 3 + 2, Z1) :- supcnt_3_2(I, K, H, X, Z1)."
    [ "cnt_p_bf(0, 0, 0, john)" ]

(* Section 8 / Example 8: semijoin-optimized listings *)

let test_example_8_ancestor () =
  let rw = C.Semijoin.optimize (numeric_gc (adorn_of anc anc_q)) in
  check_rule_set "A.5.1 optimized"
    (program
       "cnt_a_bf(I + 1, K * 2 + 2, H * 2 + 2, Z) :- cnt_a_bf(I, K, H, X), p(X, Z).\n\
        a_ind_bf(I, K, H, Y) :- cnt_a_bf(I, K, H, X), p(X, Y).\n\
        a_ind_bf(I, K, H, Y) :- a_ind_bf(I + 1, K * 2 + 2, H * 2 + 2, Y).")
    rw.C.Rewritten.program

let test_example_8_nonlinear_sg () =
  let rw = C.Semijoin.optimize (numeric_gc (adorn_of nl_sg nl_sg_q)) in
  check_rule_set "Example 8 optimized"
    (program
       "cnt_sg_bf(I + 1, K * 2 + 2, H * 5 + 2, Z1) :- cnt_sg_bf(I, K, H, X), up(X, Z1).\n\
        cnt_sg_bf(I + 1, K * 2 + 2, H * 5 + 4, Z3) :- sg_ind_bf(I + 1, K * 2 + 2, H * 5 + 2, Z2), flat(Z2, Z3).\n\
        sg_ind_bf(I, K, H, Y) :- cnt_sg_bf(I, K, H, X), flat(X, Y).\n\
        sg_ind_bf(I, K, H, Y) :- sg_ind_bf(I + 1, K * 2 + 2, H * 5 + 4, Z4), down(Z4, Y).")
    rw.C.Rewritten.program

let test_a6_optimized_ancestor () =
  let rw = C.Semijoin.optimize (numeric_gsc (adorn_of anc anc_q)) in
  check_rule_set "A.6.1 optimized"
    (program
       "supcnt_1_2(I, K, H, Z) :- cnt_a_bf(I, K, H, X), p(X, Z).\n\
        a_ind_bf(I, K, H, Y) :- cnt_a_bf(I, K, H, X), p(X, Y).\n\
        a_ind_bf(I, K, H, Y) :- a_ind_bf(I + 1, K * 2 + 2, H * 2 + 2, Y).\n\
        cnt_a_bf(I + 1, K * 2 + 2, H * 2 + 2, Z) :- supcnt_1_2(I, K, H, Z).")
    rw.C.Rewritten.program

let suite =
  [
    Alcotest.test_case "A.3.1 GMS ancestor" `Quick test_a3_ancestor;
    Alcotest.test_case "A.3.2 GMS nonlinear ancestor" `Quick test_a3_nonlinear_ancestor;
    Alcotest.test_case "A.3.3 GMS nested sg" `Quick test_a3_nested_sg;
    Alcotest.test_case "A.3.4 GMS list reverse" `Quick test_a3_list_reverse;
    Alcotest.test_case "Example 4 (sip IV)" `Quick test_example_4;
    Alcotest.test_case "Example 4 (sip V)" `Quick test_example_4_partial;
    Alcotest.test_case "A.4.1 GSMS ancestor" `Quick test_a4_ancestor;
    Alcotest.test_case "A.4.2 GSMS nonlinear ancestor" `Quick test_a4_nonlinear_ancestor;
    Alcotest.test_case "A.4.3 GSMS nested sg" `Quick test_a4_nested_sg;
    Alcotest.test_case "A.4.4 GSMS list reverse" `Quick test_a4_list_reverse;
    Alcotest.test_case "Example 5 GSMS" `Quick test_example_5;
    Alcotest.test_case "A.5.1 GC ancestor" `Quick test_a5_ancestor;
    Alcotest.test_case "A.5.2 GC divergence" `Quick test_a5_nonlinear_ancestor_diverges;
    Alcotest.test_case "A.5.3 GC nested sg" `Quick test_a5_nested_sg;
    Alcotest.test_case "Example 6 GC" `Quick test_example_6;
    Alcotest.test_case "A.6.1 GSC ancestor" `Quick test_a6_ancestor;
    Alcotest.test_case "A.6.3 GSC nested sg" `Quick test_a6_nested_sg;
    Alcotest.test_case "Example 8 ancestor" `Quick test_example_8_ancestor;
    Alcotest.test_case "Example 8 nonlinear sg" `Quick test_example_8_nonlinear_sg;
    Alcotest.test_case "A.6.1 optimized" `Quick test_a6_optimized_ancestor;
  ]
