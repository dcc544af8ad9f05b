(* Benchmark and experiment harness.

   The paper has no tables or figures — its evaluation is a catalogue of
   worked queries and programs (see DESIGN.md). Running this executable
   therefore produces two things:

   1. the EXPERIMENT TABLES E1..E10: the answer sets / model properties for
      every numbered example in the paper, cross-checked across the PathLog
      engine and the one-dimensional baselines (O2SQL, XSQL, naive
      conjunctive evaluation);
   2. Bechamel timings, one group per experiment series, including the
      ablations (join order, semi-naive vs naive, indexed vs scan).

   dune exec bench/main.exe            (full run)
   dune exec bench/main.exe -- quick   (tables only, no timings)

   There is also a chaos harness (see chaos.ml) that drives the query
   server (lib/server) with the fault-injection registry armed at every
   point and asserts it degrades instead of crashing:

   dune exec bench/main.exe -- chaos [SEED] [CLIENTS] [REQUESTS]
   dune exec bench/main.exe -- chaos mutation [SEED] [WRITERS] [BATCHES]
   dune exec bench/main.exe -- chaos kill [SEED] [WRITERS] [BATCHES] [ROUNDS]
   dune exec bench/main.exe -- chaos reads [SEED] [WRITERS] [READERS] [BATCHES]

   chaos kill is the kill-and-recover harness: it forks a durable server
   (--data), SIGKILLs it at seed-deterministic commit counts during a
   concurrent mutation storm, restarts it from the same directory, and
   asserts the recovered model equals a replay of every acknowledged
   batch (plus BUSY-while-recovering and WAL torn-tail truncation).
   chaos reads runs readers on domain workers beside ASSERT/RETRACT
   writers and checks every QUERY reply equals the model after some
   batch committed while the request was in flight.

   Server throughput, with every reply checked against the answer
   computed in-process, is measured by the perf harness (perf.ml's
   server suites). *)

open Bechamel
open Toolkit
module Program = Pathlog.Program

let section title = Printf.printf "\n=== %s ===\n" title

let subsection title = Printf.printf "-- %s --\n" title

(* ------------------------------------------------------------------ *)
(* Shared instances                                                    *)

let company n =
  let p =
    Program.create (Pathlog.Company.statements (Pathlog.Company.scaled n))
  in
  ignore (Program.run p);
  p

let company_sizes = [ 50; 200; 800 ]

let q11_o2sql =
  {
    Pathlog.O2sql.select = [ "Z" ];
    ranges =
      [
        In_class ("X", "employee");
        In_path ("Y", { root = "X"; steps = [ "vehicles" ] });
      ];
    conds =
      [
        Member ("Y", "automobile");
        Eq ({ root = "Y"; steps = [ "color" ] }, Pvar "Z");
      ];
  }

let q14_xsql =
  {
    Pathlog.Xsql.select = [ "Z" ];
    ranges = [ ("employee", "X"); ("automobile", "Y") ];
    paths =
      [
        {
          root = Rvar "X";
          steps =
            [
              { meth = "vehicles"; selector = Some (Svar "Y") };
              { meth = "color"; selector = Some (Svar "Z") };
            ];
        };
        {
          root = Rvar "Y";
          steps = [ { meth = "cylinders"; selector = Some (Sint 4) } ];
        };
      ];
  }

let pl_colors = "X : employee..vehicles : automobile.color[Z]"

let pl_colors4 =
  "X : employee..vehicles : automobile[cylinders -> 4].color[Z]"

let pl_manager =
  "X : manager..vehicles[color -> red].producedBy[city -> city1; president \
   -> X]"

let o2_manager =
  {
    Pathlog.O2sql.select = [ "X" ];
    ranges =
      [
        In_class ("X", "manager");
        In_path ("Y", { root = "X"; steps = [ "vehicles" ] });
      ];
    conds =
      [
        Eq ({ root = "Y"; steps = [ "color" ] }, Const "red");
        Eq ({ root = "Y"; steps = [ "producedBy"; "city" ] }, Const "city1");
        Eq ({ root = "Y"; steps = [ "producedBy"; "president" ] }, Pvar "X");
      ];
  }

let project_column (answer : Program.answer) col =
  let idx =
    let rec find i = function
      | [] -> invalid_arg "column"
      | c :: rest -> if c = col then i else find (i + 1) rest
    in
    find 0 answer.columns
  in
  List.sort_uniq compare (List.map (fun row -> List.nth row idx) answer.rows)

let flat_query p src =
  Pathlog.Flatten.literals (Program.store p) (Pathlog.Parser.literals src)

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                   *)

let q13_calculus =
  (* the paper's query 1.3: { Z | employee.vehicles.automobile.color[Z] } *)
  Pathlog.Calculus.of_string
    ~classes:[ "employee"; "automobile"; "vehicle"; "manager"; "company" ]
    "employee.vehicles.automobile.color"

let table_e1 () =
  section "E1: queries (1.1)-(1.4) — answers agree across languages";
  Printf.printf "%8s %10s %8s %9s %8s %8s %10s\n" "size" "vehicles" "O2SQL"
    "calculus" "XSQL" "PathLog" "agree";
  List.iter
    (fun n ->
      let p = company n in
      let store = Program.store p in
      let o2 = List.sort_uniq compare (Pathlog.O2sql.eval store q11_o2sql) in
      let calc =
        Pathlog.Obj_id.Set.elements (Pathlog.Calculus.eval store q13_calculus)
      in
      let pl = project_column (Program.query_string p pl_colors) "Z" in
      let pl_as_rows = List.map (fun z -> [ z ]) pl in
      let xs = List.sort_uniq compare (Pathlog.Xsql.eval store q14_xsql) in
      let pl4 = project_column (Program.query_string p pl_colors4) "Z" in
      let census = Pathlog.Company.census (Pathlog.Company.scaled n) in
      Printf.printf "%8d %10d %8d %9d %8d %8d %10b\n" n census.n_vehicles
        (List.length o2) (List.length calc) (List.length xs)
        (List.length pl)
        (o2 = pl_as_rows && calc = pl
        && xs = List.map (fun z -> [ z ]) pl4))
    company_sizes

let table_e2 () =
  section
    "E2: the second dimension — 1 reference vs a conjunction of 1-D paths";
  let p = company 50 in
  let store = Program.store p in
  let refs =
    [
      ("colors (1.1)", pl_colors);
      ("4-cylinder colors (2.1)", pl_colors4);
      ("boss city correlation (2.3)", "X : employee[city -> X.boss.city]");
      ("manager query (sec. 2)", pl_manager);
    ]
  in
  Printf.printf "%-32s %12s %18s\n" "query" "references" "1-D conditions";
  List.iter
    (fun (name, src) ->
      let r = Pathlog.Parser.reference src in
      Printf.printf "%-32s %12d %18d\n" name 1
        (Pathlog.Translate.conjunct_count store r))
    refs;
  subsection "automatic translation of (2.1)";
  print_endline
    (Pathlog.Translate.to_xsql_text store ~select:[ "Z" ]
       (Pathlog.Parser.reference pl_colors4))

let table_e3 () =
  section "E3: manager query — single reference vs multi-clause O2SQL";
  List.iter
    (fun n ->
      let p = company n in
      let store = Program.store p in
      let pl = (Program.query_string p pl_manager).rows in
      let o2 = Pathlog.O2sql.eval store o2_manager in
      Printf.printf
        "size %5d: PathLog %d answers, O2SQL %d answers, agree %b\n" n
        (List.length (List.sort_uniq compare pl))
        (List.length (List.sort_uniq compare o2))
        (List.sort_uniq compare pl = List.sort_uniq compare o2))
    company_sizes

let table_e4 () =
  section "E4: nested path in a filter (2.3)";
  let p = company 200 in
  let answer = Program.query_string p "X : employee[city -> X.boss.city]" in
  Printf.printf "employees living in their boss's city: %d of 200\n"
    (List.length answer.rows)

let table_e5 () =
  section "E5: virtual objects — rule (2.4) addresses";
  List.iter
    (fun n ->
      let stmts = Pathlog.Company.statements (Pathlog.Company.scaled n) in
      let rules =
        Pathlog.Parser.program
          "X.address[street -> X.street; city -> X.city] <- X : employee."
      in
      let p = Program.create (stmts @ rules) in
      ignore (Program.run p);
      let u = Program.universe p in
      let address = Pathlog.Store.name (Program.store p) "address" in
      let all_skolems = Pathlog.Universe.skolems u in
      let address_skolems =
        List.filter
          (fun sk ->
            match Pathlog.Universe.descriptor u sk with
            | Pathlog.Universe.Skolem { meth; _ } -> meth = address
            | _ -> false)
          all_skolems
      in
      (* members of employee include the class object [manager] (one
         hierarchy relation, section 3); the class object has no street or
         city, so the head paths X.street / X.city invent those too *)
      let employees =
        List.length (Program.query_string p "X : employee").rows
      in
      Printf.printf
        "size %5d: %d address objects for %d employee-members (1:1 %b), %d other invented objects\n"
        n
        (List.length address_skolems)
        employees
        (List.length address_skolems = employees)
        (List.length all_skolems - List.length address_skolems))
    company_sizes

let table_e6 () =
  section "E6: rules (6.1) vs (6.2) — virtual vs existing bosses";
  let base =
    {|
    p1 : employee[worksFor -> cs1].
    p2 : employee[worksFor -> cs2; boss -> b2].
    p3 : employee[worksFor -> cs2; boss -> b2].
    |}
  in
  let load text =
    let p = Program.of_string text in
    ignore (Program.run p);
    p
  in
  let p61 =
    load (base ^ "X.boss[worksFor -> D] <- X : employee[worksFor -> D].")
  in
  let p62 =
    load (base ^ "Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].")
  in
  let count p =
    List.length (Program.query_string p "Z[worksFor -> D]").rows
  in
  Printf.printf
    "(6.1) worksFor facts: %d (creates a virtual boss for p1)\n\
     (6.2) worksFor facts: %d (only existing bosses)\n"
    (count p61) (count p62);
  Printf.printf "(6.1) virtual objects: %d, (6.2): %d\n"
    (List.length (Pathlog.Universe.skolems (Program.universe p61)))
    (List.length (Pathlog.Universe.skolems (Program.universe p62)))

let tc_shapes =
  [
    ("chain(64)", Pathlog.Genealogy.Chain 64);
    ("binary_tree(6)", Pathlog.Genealogy.Binary_tree 6);
    ( "forest(128)",
      Pathlog.Genealogy.Random_forest
        { people = 128; max_kids = 3; seed = 11 } );
  ]

let tc_program ?(rules = Pathlog.Genealogy.desc_rules) mode shape =
  let config = { Pathlog.Fixpoint.default_config with mode } in
  let stmts = Pathlog.Genealogy.statements shape @ rules in
  let p = Program.create ~config stmts in
  let stats = Program.run p in
  (p, stats)

let table_e7 () =
  section "E7: transitive closure (6.4) — naive vs semi-naive, vs reference";
  Printf.printf "%-18s %8s %14s %14s %14s %8s\n" "shape" "people"
    "naive firings" "semi firings" "closure size" "correct";
  List.iter
    (fun (name, shape) ->
      let _, s_naive = tc_program Pathlog.Fixpoint.Naive shape in
      let p_semi, s_semi = tc_program Pathlog.Fixpoint.Seminaive shape in
      let reference = Pathlog.Genealogy.closure shape in
      let closure_size =
        List.fold_left (fun acc (_, d) -> acc + List.length d) 0 reference
      in
      let correct =
        List.for_all
          (fun (i, descs) ->
            let got =
              List.sort compare
                (List.concat
                   (Pathlog.answers p_semi
                      (Printf.sprintf "p%d[desc ->> {X}]" i)))
            in
            got = List.sort compare (List.map (Printf.sprintf "p%d") descs))
          reference
      in
      Printf.printf "%-18s %8d %14d %14d %14d %8b\n" name
        (Pathlog.Genealogy.size shape)
        s_naive.firings s_semi.firings closure_size correct)
    tc_shapes;
  subsection "generic higher-order tc (kids.tc) equals desc";
  let shape = Pathlog.Genealogy.Binary_tree 4 in
  let p_desc, _ = tc_program Pathlog.Fixpoint.Seminaive shape in
  let p_tc, _ =
    tc_program ~rules:Pathlog.Genealogy.generic_tc_rules
      Pathlog.Fixpoint.Seminaive shape
  in
  let same =
    List.for_all
      (fun (i, _) ->
        Pathlog.answers p_desc (Printf.sprintf "p%d[desc ->> {X}]" i)
        = Pathlog.answers p_tc (Printf.sprintf "p%d[(kids.tc) ->> {X}]" i))
      (Pathlog.Genealogy.closure shape)
  in
  Printf.printf "kids.tc = desc on binary_tree(4): %b\n" same

let table_e8 () =
  section "E8: stratification (section 6)";
  let p =
    Program.of_string
      {|
      p1[helper ->> {x1, x2}].
      p1[assistants ->> {Y}] <- p1[helper ->> {Y}].
      p2[friends ->> {x1, x2, x3}].
      p2 : goodFriend <- p2[friends ->> p1..assistants].
      |}
  in
  ignore (Program.run p);
  Printf.printf "strata used: %d\n" (Array.length (Program.strata p));
  Printf.printf "p2 : goodFriend entailed: %b\n"
    ((Program.query_string p "p2 : goodFriend").rows <> []);
  let cyclic =
    {|
    p1[assistants ->> {Y}] <- p1[friends ->> p1..assistants], p1[assistants ->> {Y}].
    p1[friends ->> {x1}].
    |}
  in
  match Program.of_string cyclic with
  | exception Program.Invalid msg ->
    Printf.printf "cyclic variant rejected at load: %s\n" msg
  | exception Pathlog.Err.Unstratifiable u ->
    Printf.printf "cyclic variant rejected: %s\n" u.Pathlog.Err.u_message
  | p -> (
    match Program.run p with
    | exception Pathlog.Err.Unstratifiable u ->
      Printf.printf "cyclic variant rejected: %s\n" u.Pathlog.Err.u_message
    | _ -> print_endline "WARNING: cyclic variant was not rejected")

let table_e9 () =
  section "E9: intensional method (power rule) on existing objects";
  let p =
    Program.of_string
      {|
      car1 : automobile[engine -> eng1]. eng1[power -> 150].
      car2 : automobile[engine -> eng2]. eng2[power -> 90].
      X[power -> Y] <- X : automobile.engine[power -> Y].
      |}
  in
  ignore (Program.run p);
  Printf.printf "derived power facts: %d, virtual objects: %d (must be 0)\n"
    (List.length (Program.query_string p "X[power -> P]").rows)
    (List.length (Pathlog.Universe.skolems (Program.universe p)))

(* The source-order ablation: the atoms as written, run as an explicit
   identity plan. *)
let source_order_solutions store (q : Pathlog.Ir.query) =
  let plan =
    {
      Pathlog.Solve.plan_seed = -1;
      plan_perm = Array.init (List.length q.atoms) Fun.id;
      plan_size = Pathlog.Store.size store;
    }
  in
  let rows = ref [] in
  Pathlog.Solve.iter ~plan store q ~f:(fun b ->
      rows := List.map (fun (_, i) -> b.(i)) q.named :: !rows);
  List.sort_uniq compare !rows

let table_e10 () =
  section "E10: ablation sanity (answers invariant under strategy)";
  let p = company 200 in
  let store = Program.store p in
  let q = flat_query p pl_manager in
  let compiled = List.sort compare (Pathlog.Solve.named_solutions store q) in
  let source = source_order_solutions store q in
  let conj = List.sort compare (Pathlog.Conjunctive.named_solutions store q) in
  let identical = compiled = source && compiled = conj in
  Printf.printf "compiled=%d source=%d naive-conjunctive=%d identical=%b\n"
    (List.length compiled) (List.length source) (List.length conj) identical;
  if not identical then begin
    prerr_endline "E10: join orders disagree on the answers";
    exit 1
  end

let table_e11 () =
  section "E11: evaluation strategies — full materialisation vs demand";
  let stmts =
    Pathlog.Genealogy.statements (Pathlog.Genealogy.Chain 100)
    @ Pathlog.Genealogy.desc_rules
  in
  let render p rows =
    List.sort compare (List.map (Program.row_to_string p) rows)
  in
  let p_full = Program.create stmts in
  let s_full = Program.run p_full in
  Printf.printf "chain(100), full closure = 5050 tuples\n";
  Printf.printf "full:   %d rule firings for the whole model\n"
    s_full.firings;
  (* one demand-driven program instance answers the queries in turn: the
     second is a later sight of the first's shape and resumes from its
     watermark *)
  let p_dem = Program.create stmts in
  List.iter
    (fun q ->
      let full = render p_full (Program.query_string p_full q).rows in
      let answer, r = Program.query_demand_string p_dem q in
      Printf.printf
        "demand: %-18s %d answers, %d rule firings, %d magic facts, \
         resumed %b, fallback %b, answers agree %b\n"
        q
        (List.length answer.rows)
        r.d_stats.firings r.d_magic_facts r.d_resumed
        (r.d_fallback <> None)
        (render p_dem answer.rows = full))
    [ "p95[desc ->> {X}]"; "p90[desc ->> {X}]" ]

let table_e12 () =
  section "E12: parts explosion (bill of materials), argument methods";
  List.iter
    (fun parts ->
      let cfg = { Pathlog.Parts.default with parts } in
      let p =
        Program.create
          (Pathlog.Parts.statements cfg @ Pathlog.Parts.contains_rules)
      in
      let stats = Program.run p in
      let oracle =
        List.fold_left
          (fun acc (_, c) -> acc + List.length c)
          0 (Pathlog.Parts.closure cfg)
      in
      let derived =
        List.length (Program.query_string p "X[contains ->> {Y}]").rows
      in
      Printf.printf
        "parts %4d: closure %6d tuples (oracle %6d, match %b), %6d firings\n"
        parts derived oracle (derived = oracle) stats.firings)
    [ 60; 120; 240 ]

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches                                             *)

let run_benches tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" tests)
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  in
  Printf.printf "%-48s %14s %8s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%14.0f" e
        | Some [] | None -> Printf.sprintf "%14s" "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%8.4f" r
        | None -> Printf.sprintf "%8s" "-"
      in
      Printf.printf "%-48s %s %s\n" name est r2)
    (List.sort compare rows)

let query_bench name p src =
  let store = Program.store p in
  let q = flat_query p src in
  Test.make ~name
    (Staged.stage (fun () -> Pathlog.Solve.named_solutions store q))

let bench_e1 () =
  subsection "E1/E3 timings: query evaluation strategies, company(200)";
  let p = company 200 in
  let store = Program.store p in
  let q_colors = flat_query p pl_colors in
  let q_manager = flat_query p pl_manager in
  run_benches
    [
      Test.make ~name:"e1/o2sql nested loops (1.1)"
        (Staged.stage (fun () -> Pathlog.O2sql.eval store q11_o2sql));
      Test.make ~name:"e1/xsql via naive conjunction (1.4)"
        (Staged.stage (fun () -> Pathlog.Xsql.eval store q14_xsql));
      Test.make ~name:"e1/pathlog compiled indexed (2.1)"
        (Staged.stage (fun () ->
             Pathlog.Solve.named_solutions store q_colors));
      Test.make ~name:"e3/o2sql manager query"
        (Staged.stage (fun () -> Pathlog.O2sql.eval store o2_manager));
      Test.make ~name:"e3/pathlog manager query"
        (Staged.stage (fun () ->
             Pathlog.Solve.named_solutions store q_manager));
    ]

let bench_e5 () =
  subsection "E5 timings: virtual-address materialisation";
  let tests =
    List.map
      (fun n ->
        let stmts =
          Pathlog.Company.statements (Pathlog.Company.scaled n)
          @ Pathlog.Parser.program
              "X.address[street -> X.street; city -> X.city] <- X : \
               employee."
        in
        Test.make ~name:(Printf.sprintf "e5/materialize addresses n=%d" n)
          (Staged.stage (fun () ->
               let p = Program.create stmts in
               Program.run p)))
      [ 50; 200 ]
  in
  run_benches tests

let bench_e7 () =
  subsection "E7 timings: transitive closure, naive vs semi-naive";
  let tests =
    List.concat_map
      (fun (name, shape) ->
        let stmts =
          Pathlog.Genealogy.statements shape @ Pathlog.Genealogy.desc_rules
        in
        List.map
          (fun (mname, mode) ->
            let config = { Pathlog.Fixpoint.default_config with mode } in
            Test.make
              ~name:(Printf.sprintf "e7/%s %s" name mname)
              (Staged.stage (fun () ->
                   let p = Program.create ~config stmts in
                   Program.run p)))
          [
            ("naive", Pathlog.Fixpoint.Naive);
            ("semi-naive", Pathlog.Fixpoint.Seminaive);
          ])
      tc_shapes
  in
  run_benches tests

let bench_e11 () =
  subsection "E11 timings: point query, full vs demand, chain(100)";
  let stmts =
    Pathlog.Genealogy.statements (Pathlog.Genealogy.Chain 100)
    @ Pathlog.Genealogy.desc_rules
  in
  let lits = Pathlog.Parser.literals "p95[desc ->> {X}]" in
  run_benches
    [
      Test.make ~name:"e11/full materialisation + query"
        (Staged.stage (fun () ->
             let p = Program.create stmts in
             ignore (Program.run p);
             Program.query p lits));
      Test.make ~name:"e11/demand (magic sets) + query"
        (Staged.stage (fun () ->
             let p = Program.create stmts in
             Program.query_demand p lits));
    ]

let bench_e1_scaling () =
  subsection
    "E1 scaling series (figure): query (2.1) time vs database size";
  let programs =
    List.map (fun n -> (n, company n)) [ 50; 100; 200; 400; 800 ]
  in
  run_benches
    (List.map
       (fun (n, p) ->
         let store = Program.store p in
         let q = flat_query p pl_colors4 in
         Test.make
           ~name:(Printf.sprintf "e1-fig/query 2.1, company(%4d)" n)
           (Staged.stage (fun () -> Pathlog.Solve.named_solutions store q)))
       programs)

let bench_e12 () =
  subsection "E12 timings: BOM closure, naive vs semi-naive";
  let tests =
    List.concat_map
      (fun parts ->
        let cfg = { Pathlog.Parts.default with parts } in
        let stmts =
          Pathlog.Parts.statements cfg @ Pathlog.Parts.contains_rules
        in
        List.map
          (fun (mname, mode) ->
            let config = { Pathlog.Fixpoint.default_config with mode } in
            Test.make
              ~name:(Printf.sprintf "e12/parts(%d) %s" parts mname)
              (Staged.stage (fun () ->
                   let p = Program.create ~config stmts in
                   Program.run p)))
          [
            ("naive", Pathlog.Fixpoint.Naive);
            ("semi-naive", Pathlog.Fixpoint.Seminaive);
          ])
      [ 60; 120 ]
  in
  run_benches tests

let bench_e10 () =
  subsection "E10 timings: ablations (join order, scans vs indexes)";
  let p = company 200 in
  let store = Program.store p in
  let q = flat_query p pl_manager in
  run_benches
    [
      Test.make ~name:"e10/manager compiled order (indexed)"
        (Staged.stage (fun () -> Pathlog.Solve.named_solutions store q));
      Test.make ~name:"e10/manager source order (indexed)"
        (Staged.stage (fun () -> source_order_solutions store q));
      Test.make ~name:"e10/manager naive conjunctive (scans)"
        (Staged.stage (fun () ->
             Pathlog.Conjunctive.named_solutions store q));
      query_bench "e10/boss-city correlation (2.3)" p
        "X : employee[city -> X.boss.city]";
    ]

let bench_substrate () =
  subsection "substrate micro-benches: store operations";
  let p = company 400 in
  let store = Program.store p in
  let u = Program.universe p in
  let vehicles = Pathlog.Store.name store "vehicles" in
  let color = Pathlog.Store.name store "color" in
  let employee = Pathlog.Store.name store "employee" in
  let e1 = Pathlog.Store.name store "e1" in
  let red = Pathlog.Store.name store "red" in
  ignore u;
  run_benches
    [
      Test.make ~name:"store/scalar_lookup hit"
        (Staged.stage (fun () ->
             Pathlog.Store.scalar_lookup store ~meth:color ~recv:e1 ~args:[]));
      Test.make ~name:"store/set_lookup"
        (Staged.stage (fun () ->
             Pathlog.Store.set_lookup store ~meth:vehicles ~recv:e1 ~args:[]));
      Test.make ~name:"store/scalar_inverse bucket"
        (Staged.stage (fun () ->
             Pathlog.Store.scalar_inverse store ~meth:color ~res:red));
      Test.make ~name:"store/members closure (employee)"
        (Staged.stage (fun () -> Pathlog.Store.members store employee));
      Test.make ~name:"store/is_member"
        (Staged.stage (fun () -> Pathlog.Store.is_member store e1 employee));
      Test.make ~name:"store/fresh store + 1k scalar inserts"
        (Staged.stage (fun () ->
             let st = Pathlog.Store.create () in
             let m = Pathlog.Store.name st "m" in
             for i = 0 to 999 do
               let o = Pathlog.Store.int st i in
               ignore
                 (Pathlog.Store.add_scalar st ~meth:m ~recv:o ~args:[]
                    ~res:o)
             done));
    ]

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "perf" then begin
    Perf.main
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)));
    exit 0
  end

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "emit" then begin
    Perf.emit_programs
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)));
    exit 0
  end

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "chaos" then begin
    Chaos.main
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)));
    exit 0
  end

let () =
  let quick = Array.length Sys.argv > 1 && Sys.argv.(1) = "quick" in
  table_e1 ();
  table_e2 ();
  table_e3 ();
  table_e4 ();
  table_e5 ();
  table_e6 ();
  table_e7 ();
  table_e8 ();
  table_e9 ();
  table_e10 ();
  table_e11 ();
  table_e12 ();
  if not quick then begin
    section "Bechamel timings";
    bench_e1 ();
    bench_e5 ();
    bench_e7 ();
    bench_e10 ();
    bench_e11 ();
    bench_e1_scaling ();
    bench_e12 ();
    bench_substrate ()
  end;
  print_endline "\nbench: done"
