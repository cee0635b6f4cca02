let () =
  Alcotest.run "magic"
    [
      ("term", Test_term.suite);
      ("subst", Test_subst.suite);
      ("parser", Test_parser.suite);
      ("program", Test_program.suite);
      ("value", Test_value.suite);
      ("relation", Test_relation.suite);
      ("stats", Test_stats.suite);
      ("solve", Test_solve.suite);
      ("plan", Test_plan.suite);
      ("eval", Test_eval.suite);
      ("topdown", Test_topdown.suite);
      ("adornment", Test_adornment.suite);
      ("sip", Test_sip.suite);
      ("adorn", Test_adorn.suite);
      ("appendix", Test_appendix.suite);
      ("equivalence", Test_equivalence.suite);
      ("safety", Test_safety.suite);
      ("optimality", Test_optimality.suite);
      ("workload", Test_workload.suite);
      ("magic-sets", Test_magic_sets.suite);
      ("supplementary", Test_supplementary.suite);
      ("counting", Test_counting.suite);
      ("semijoin", Test_semijoin.suite);
      ("naming", Test_naming.suite);
      ("driver", Test_rewrite_driver.suite);
      ("explain", Test_explain.suite);
      ("random-programs", Test_random_programs.suite);
      ("analysis", Test_analysis.suite);
      ("diag", Test_diag.suite);
      ("cost", Test_cost.suite);
      ("counters", Test_counters.suite);
      ("incr", Test_incr.suite);
      ("persist", Test_persist.suite);
      ("server", Test_server.suite);
    ]
