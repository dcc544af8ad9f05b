(* Benchmark and experiment harness.

   The paper has no tables or figures — its evaluation is a catalogue of
   worked queries and programs (see DESIGN.md). The bare run prints the
   EXPERIMENT TABLES E1..E12: the answer sets / model properties for every
   numbered example in the paper, cross-checked across the PathLog engine
   and the one-dimensional baselines (O2SQL, XSQL, naive conjunctive
   evaluation). A table whose check fails names itself on stderr and the
   run exits 1.

   dune exec bench/main.exe                  (the tables)
   dune exec bench/main.exe -- perf [OPTS]   (timings and counters, see perf.ml)
   dune exec bench/main.exe -- emit [NAME]   (the generator workloads as text)

   The perf harness times the same queries and programs (paper.ml holds
   the shared definitions) as its e1_ .. e12_ suites, next to its
   fixpoint, demand, regex, server and recovery suites.

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
   chaos reads runs readers beside ASSERT/RETRACT writers, once in the
   session threads and once on domain workers, and checks every QUERY reply equals the model after some
   batch committed while the request was in flight. *)

module Program = Pathlog.Program
open Paper

let section title = Printf.printf "\n=== %s ===\n" title

let subsection title = Printf.printf "-- %s --\n" title

(* A table's check: on failure name the table on stderr and exit 1. *)
let expect table ok what =
  if not ok then begin
    Printf.eprintf "%s: %s\n" table what;
    exit 1
  end

let company_sizes = [ 50; 200; 800 ]

let project_column (answer : Program.answer) col =
  let idx =
    let rec find i = function
      | [] -> invalid_arg "column"
      | c :: rest -> if c = col then i else find (i + 1) rest
    in
    find 0 answer.columns
  in
  List.sort_uniq compare (List.map (fun row -> List.nth row idx) answer.rows)

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
      let agree =
        o2 = pl_as_rows && calc = pl && xs = List.map (fun z -> [ z ]) pl4
      in
      Printf.printf "%8d %10d %8d %9d %8d %8d %10b\n" n census.n_vehicles
        (List.length o2) (List.length calc) (List.length xs)
        (List.length pl) agree;
      expect "E1" agree
        (Printf.sprintf "the four languages disagree at size %d" n))
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
      ("boss city correlation (2.3)", pl_boss_city);
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
      let pl = List.sort_uniq compare pl in
      let o2 = List.sort_uniq compare (Pathlog.O2sql.eval store o2_manager) in
      Printf.printf
        "size %5d: PathLog %d answers, O2SQL %d answers, agree %b\n" n
        (List.length pl) (List.length o2) (pl = o2);
      expect "E3" (pl = o2)
        (Printf.sprintf "PathLog and O2SQL disagree at size %d" n))
    company_sizes

let table_e4 () =
  section "E4: nested path in a filter (2.3)";
  let p = company 200 in
  let answer = Program.query_string p pl_boss_city in
  Printf.printf "employees living in their boss's city: %d of 200\n"
    (List.length answer.rows)

let table_e5 () =
  section "E5: virtual objects — rule (2.4) addresses";
  List.iter
    (fun n ->
      let p = Program.create (address_program n) in
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
      let one_to_one = List.length address_skolems = employees in
      Printf.printf
        "size %5d: %d address objects for %d employee-members (1:1 %b), %d other invented objects\n"
        n
        (List.length address_skolems)
        employees one_to_one
        (List.length all_skolems - List.length address_skolems);
      expect "E5" one_to_one
        (Printf.sprintf "address objects are not 1:1 with employees at size %d"
           n))
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
        s_naive.firings s_semi.firings closure_size correct;
      expect "E7" correct (name ^ ": desc differs from the reference closure"))
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
  Printf.printf "kids.tc = desc on binary_tree(4): %b\n" same;
  expect "E7" same "kids.tc differs from desc on binary_tree(4)"

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
    | _ -> expect "E8" false "the cyclic variant was not rejected")

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
  let virtual_objects =
    List.length (Pathlog.Universe.skolems (Program.universe p))
  in
  Printf.printf "derived power facts: %d, virtual objects: %d (must be 0)\n"
    (List.length (Program.query_string p "X[power -> P]").rows)
    virtual_objects;
  expect "E9" (virtual_objects = 0) "the power rule invented virtual objects"

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
  expect "E10" identical "join orders disagree on the answers"

let table_e11 () =
  section "E11: evaluation strategies — full materialisation vs demand";
  let stmts = desc_program (Pathlog.Genealogy.Chain 100) in
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
      let fallback = r.d_fallback <> None in
      let agree = render p_dem answer.rows = full in
      Printf.printf
        "demand: %-18s %d answers, %d rule firings, %d magic facts, \
         resumed %b, fallback %b, answers agree %b\n"
        q
        (List.length answer.rows)
        r.d_stats.firings r.d_magic_facts r.d_resumed fallback agree;
      expect "E11" (agree && not fallback)
        (q ^ ": demand fell back or disagrees with full materialisation"))
    [ desc_point_query; "p90[desc ->> {X}]" ]

let table_e12 () =
  section "E12: parts explosion (bill of materials), argument methods";
  List.iter
    (fun parts ->
      let cfg = parts_config parts in
      let p = Program.create (parts_program cfg) in
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
        parts derived oracle (derived = oracle) stats.firings;
      expect "E12" (derived = oracle)
        (Printf.sprintf "parts %d: closure differs from the oracle" parts))
    [ 60; 120; 240 ]

let tables () =
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
  print_endline "\nbench: done"

let usage =
  "usage: main.exe [perf OPTS | emit [NAME] | chaos [MODE] ARGS]\n\
   (no argument prints the E1-E12 experiment tables)"

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> tables ()
  | _ :: "perf" :: args -> Perf.main args
  | _ :: "emit" :: args -> Perf.emit_programs args
  | _ :: "chaos" :: args -> Chaos.main args
  | _ ->
    prerr_endline usage;
    exit 2
