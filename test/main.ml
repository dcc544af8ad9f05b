let () =
  Alcotest.run "pathlog"
    [
      ("oodb", Test_oodb.suite);
      ("syntax", Test_syntax.suite);
      ("semantics", Test_semantics.suite);
      ("engine", Test_engine.suite);
      ("baseline", Test_baseline.suite);
      ("paper", Test_paper.suite);
      ("extensions", Test_extensions.suite);
      ("provenance", Test_provenance.suite);
      ("more", Test_more.suite);
      ("programs", Test_programs.suite);
      ("cli", Test_cli.suite);
      ("analysis", Test_analysis.suite);
      ("internals", Test_internals.suite);
      ("differential", Test_differential.suite);
      ("normalize", Test_normalize.suite);
      ("coverage", Test_coverage.suite);
      ("planner", Test_planner.suite);
      ("server", Test_server.suite);
      ("parallel", Test_parallel.suite);
      ("budget", Test_budget.suite);
      ("chaos", Test_chaos.suite);
      ("incremental", Test_incremental.suite);
      ("durable", Test_durable.suite);
      ("demand", Test_demand.suite);
      ("focused", Test_demand.focused_suite);
      ("topdown", Test_demand.topdown_suite);
      ("regex", Test_regex.suite);
      ("printers", Test_printers.suite);
      ("heads", Test_head_oracle.suite);
      ("facts", Test_facts.suite);
    ]
