(* Demand-driven evaluation: magic-sets transform, query-seeded fixpoints,
   fallback golden cases, and the demand-equals-full equivalence QCheck at
   jobs 1 and 4. *)

module Program = Pathlog.Program
module Demand = Pathlog.Demand

let lits = Pathlog.Parser.literals

let render p rows =
  List.sort compare (List.map (Program.row_to_string p) rows)

(* Answers of a demand-driven query vs full materialisation, on fresh
   program instances (object ids are store-specific). Returns the demand
   report for further assertions. *)
let check_demand_equals_full ?(config = Pathlog.Fixpoint.default_config)
    text q =
  let pd = Program.of_string ~config text in
  let demand_ans, report = Program.query_demand pd (lits q) in
  let pf = Program.of_string ~config text in
  ignore (Program.run pf);
  let full_ans = Program.query_string pf q in
  Alcotest.(check (list string))
    ("demand agrees with full: " ^ q)
    (render pf full_ans.rows) (render pd demand_ans.rows);
  (pd, report)

(* Disjoint transitive-closure chains over a scalar [boss] edge; a
   receiver-bound query on one chain must not materialise the others. *)
let chains prefixes n =
  let b = Buffer.create 1024 in
  List.iter
    (fun prefix ->
      for i = 0 to n - 1 do
        Buffer.add_string b
          (Printf.sprintf "%s%d[boss -> %s%d].\n" prefix i prefix (i + 1))
      done)
    prefixes;
  Buffer.add_string b "X[up ->> {Y}] <- X[boss -> Y].\n";
  Buffer.add_string b "X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].\n";
  Buffer.contents b

let two_chains n = chains [ "a"; "b" ] n

let test_bound_tc () =
  let text = chains [ "a"; "b"; "c"; "d" ] 30 in
  let p, report = check_demand_equals_full text "a0[up ->> {X}]" in
  Alcotest.(check bool) "no fallback" true (report.Program.d_fallback = None);
  Alcotest.(check bool) "guarded the up rules" true
    (report.Program.d_guarded = 2);
  Alcotest.(check bool) "seeded from the constant" true
    (report.Program.d_seeds >= 1);
  Alcotest.(check bool) "magic facts present" true
    (report.Program.d_magic_facts > 0);
  (* the other chain's closure was never derived *)
  Alcotest.(check int) "b-chain closure not materialised" 0
    (List.length (Program.query_string p "b0[up ->> {X}]").rows);
  (* demand derived far fewer tuples than the full closure: one chain's
     closure plus its magic set, against four chains' closures *)
  let full = Program.of_string (chains [ "a"; "b"; "c"; "d" ] 30) in
  let full_stats = Program.run full in
  Alcotest.(check bool) "derived fewer tuples than full" true
    (report.Program.d_stats.Pathlog.Fixpoint.insertions
    < full_stats.Pathlog.Fixpoint.insertions / 2)

let test_demand_chained_query () =
  (* the second literal's receiver is bound sideways by the first *)
  let text = two_chains 10 in
  let _, report =
    check_demand_equals_full text "a0[boss -> X], X[up ->> {Y}]"
  in
  Alcotest.(check bool) "no fallback" true (report.Program.d_fallback = None)

let test_free_query_falls_back_to_full_rules () =
  (* a free-receiver query demands everything: answers still agree *)
  let text = two_chains 5 in
  let _, report = check_demand_equals_full text "X[up ->> {Y}]" in
  Alcotest.(check bool) "no fallback" true (report.Program.d_fallback = None);
  Alcotest.(check int) "nothing guarded" 0 report.Program.d_guarded;
  Alcotest.(check int) "rules kept unguarded" 2 report.Program.d_unguarded

let test_demand_composes () =
  (* two demand queries against the same program instance: the second
     fragment accumulates monotonically over the first *)
  let p = Program.of_string (two_chains 10) in
  let a1, r1 = Program.query_demand_string p "a3[up ->> {X}]" in
  let a2, r2 = Program.query_demand_string p "b3[up ->> {X}]" in
  Alcotest.(check (pair bool bool))
    "no fallback" (true, true)
    (r1.Program.d_fallback = None, r2.Program.d_fallback = None);
  let full = Program.of_string (two_chains 10) in
  ignore (Program.run full);
  Alcotest.(check (list string))
    "first query right" (render full (Program.query_string full "a3[up ->> {X}]").rows)
    (render p a1.rows);
  Alcotest.(check (list string))
    "second query right" (render full (Program.query_string full "b3[up ->> {X}]").rows)
    (render p a2.rows);
  Alcotest.(check bool) "magic sets grew" true
    (r2.Program.d_magic_facts > r1.Program.d_magic_facts)

let test_isa_query () =
  (* class membership is conservatively free-adorned *)
  let text =
    {|
    a0[boss -> a1]. a1[boss -> a2].
    X : managed <- X[boss -> Y].
    |}
  in
  let _, report = check_demand_equals_full text "X : managed" in
  Alcotest.(check bool) "no fallback" true (report.Program.d_fallback = None)

let test_skolem_head_unguarded () =
  (* a skolemising path head defines two relations: never guarded, but
     still demand-evaluable *)
  let text =
    {|
    e1[salary -> s50]. e2[salary -> s60].
    X.review[grade -> good] <- X[salary -> Y].
    |}
  in
  let _, report = check_demand_equals_full text "e1.review[grade -> G]" in
  Alcotest.(check bool) "no fallback" true (report.Program.d_fallback = None);
  Alcotest.(check int) "not guarded" 0 report.Program.d_guarded

(* ------------------------------------------------------------------ *)
(* Point queries with fixed expected answers: recursion, ground and
   result-bound queries, extensional-only programs, argument methods,
   virtual-object heads and negation. Each runs through demand, is
   compared with full materialisation, and checks its fallback status.
   The "focused" and "topdown" groups keep the case names of the
   rule-relevance and tabled evaluators these cases first covered. *)

let desc_text =
  {|
  peter[kids ->> {tim, mary}]. tim[kids ->> {sally}].
  mary[kids ->> {tom, paul}].
  X[desc ->> {Y}] <- X[kids ->> {Y}].
  X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
  |}

(* Two independent rule families: genealogy closure and a payroll
   derivation. *)
let two_families =
  {|
  peter[kids ->> {tim, mary}]. tim[kids ->> {sally}].
  X[desc ->> {Y}] <- X[kids ->> {Y}].
  X[desc ->> {Y}] <- X..desc[kids ->> {Y}].

  e1 : emp[base -> 100; bonus -> 20].
  e2 : emp[base -> 200; bonus -> 0].
  X[pay -> B] <- X : emp[base -> B].
  |}

let pay_chain =
  {|
  e1 : emp[base -> 100]. e2 : emp[base -> 200].
  X[scaled -> B] <- X : emp[base -> B].
  X[pay -> B] <- X[scaled -> B].
  |}

let poor_text =
  {|
  a : emp[sal -> 10]. b : emp[sal -> 20].
  X : poor <- X : emp, not X[sal -> 20].
  |}

(* Demand answers [q] over [text] as full materialisation does, with the
   expected fallback status; returns the rendered rows and the report. *)
let demand_rows ?(fallback = false) text q =
  let p, report = check_demand_equals_full text q in
  Alcotest.(check bool) ("fallback: " ^ q) fallback
    (report.Program.d_fallback <> None);
  let answer, _ = Program.query_demand p (lits q) in
  (render p answer.rows, report)

let check_rows msg expected text q =
  Alcotest.(check (list string)) msg expected (fst (demand_rows text q))

let check_count ?fallback msg n text q =
  Alcotest.(check int) msg n (List.length (fst (demand_rows ?fallback text q)))

let test_point_query () =
  let rows, report = demand_rows desc_text "tim[desc ->> {X}]" in
  Alcotest.(check (list string)) "tim's descendants" [ "sally" ] rows;
  (* only tim's cone is demanded, not the full closure *)
  Alcotest.(check bool) "few magic facts" true
    (report.Program.d_magic_facts <= 3)

let test_full_query () =
  check_rows "peter's descendants"
    [ "mary"; "paul"; "sally"; "tim"; "tom" ]
    desc_text "peter[desc ->> {X}]"

let test_open_query () =
  check_count "whole closure" 8 desc_text "X[desc ->> {Y}]"

let test_scalar_chain_rules () =
  check_rows "pay" [ "100" ] pay_chain "e1[pay -> B]"

let test_no_materialisation () =
  let p = Program.of_string desc_text in
  ignore (Program.query_demand_string p "tim[desc ->> {X}]");
  (* the store holds tim's cone of the closure and nothing else *)
  Alcotest.(check int) "only tim's desc tuple" 1
    (List.length (Program.query_string p "X[desc ->> {Y}]").rows);
  Alcotest.(check int) "peter's closure not derived" 0
    (List.length (Program.query_string p "peter[desc ->> {X}]").rows)

let test_virtual_object_head () =
  (* a path head is not flat, yet demand answers it without falling back *)
  check_count "address city" 1
    {|
    a : person[city -> c1].
    X.address[city -> X.city] <- X : person.
    |}
    "X.address[city -> C]"

let test_negation_falls_back () =
  check_count ~fallback:true "poor employees" 1 poor_text "X : poor"

let test_unconstrained_query () =
  (* a bare variable demands every object: answered without fallback *)
  Alcotest.(check bool) "sally is an object" true
    (List.mem "sally" (fst (demand_rows desc_text "X")))

let test_args_methods () =
  check_rows "raise" [ "120" ]
    {|
    john[salary@(1994) -> 100]. john[salary@(1995) -> 120].
    X[raise@(Y1, Y2) -> S] <- X[salary@(Y1) -> B], X[salary@(Y2) -> S].
    |}
    "john[raise@(1994, 1995) -> S]"

(* Demand point queries on random genealogy forests = full
   materialisation. *)
let forest_point_query ~name ~count ~people ~max_kids person_gen =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_range 1 100) person_gen)
    (fun (seed, person) ->
      let stmts =
        Pathlog.Genealogy.statements
          (Pathlog.Genealogy.Random_forest { people; max_kids; seed })
        @ Pathlog.Genealogy.desc_rules
      in
      let q = Printf.sprintf "p%d[desc ->> {X}]" person in
      let pd = Program.create stmts in
      let demand, _ = Program.query_demand_string pd q in
      let pf = Program.create stmts in
      ignore (Program.run pf);
      render pd demand.rows = render pf (Program.query_string pf q).rows)

let test_chain_suffix () =
  (* a point query near the end of a long chain costs its suffix, not the
     quadratic closure (5050 tuples, thousands of firings) *)
  let stmts =
    Pathlog.Genealogy.statements (Pathlog.Genealogy.Chain 100)
    @ Pathlog.Genealogy.desc_rules
  in
  let p = Program.create stmts in
  let answer, report = Program.query_demand_string p "p95[desc ->> {X}]" in
  Alcotest.(check int) "five descendants" 5 (List.length answer.rows);
  Alcotest.(check bool) "at most 50 firings" true
    (report.Program.d_stats.Pathlog.Fixpoint.firings <= 50);
  Alcotest.(check int) "one magic fact" 1 report.Program.d_magic_facts

let test_subset_of_rules () =
  let p = Program.of_string two_families in
  let answer, report = Program.query_demand_string p "peter[desc ->> {X}]" in
  Alcotest.(check int) "desc answers" 3 (List.length answer.rows);
  (* the two desc rules are kept; the pay rule is irrelevant *)
  Alcotest.(check int) "only relevant rules considered" 2
    (report.Program.d_guarded + report.Program.d_unguarded);
  Alcotest.(check int) "pay not materialised" 0
    (List.length (Program.query_string p "X[pay -> B]").rows)

let test_agrees_with_full () =
  List.iter
    (fun q -> ignore (demand_rows two_families q))
    [
      "peter[desc ->> {X}]";
      "X[pay -> B]";
      "X : emp";
      "tim[desc ->> {X}]";
    ]

let test_pulls_dependencies () =
  (* pay depends on scaled which depends on base: a pay query must run the
     whole chain *)
  let rows, report = demand_rows pay_chain "e1[pay -> B]" in
  Alcotest.(check int) "answer" 1 (List.length rows);
  Alcotest.(check int) "chain of rules pulled in" 2
    (report.Program.d_guarded + report.Program.d_unguarded)

let test_stratified () =
  check_count ~fallback:true "stratified" 1 poor_text "X : poor"

(* ------------------------------------------------------------------ *)
(* Golden fallback cases: the transform must decline and full
   materialisation must answer, identically. *)

let test_fallback_negation () =
  let text =
    {|
    a : ca. b : cb. a[f -> b]. b[f -> a].
    X[g -> Y] <- X[f -> Y], not Y : cb.
    |}
  in
  let _, report = check_demand_equals_full text "b[g -> Y]" in
  Alcotest.(check bool) "negation fallback" true
    (report.Program.d_fallback = Some Demand.Negation)

let test_fallback_inclusion () =
  let text =
    {|
    boss[pals ->> {b, c}]. a[pals ->> {b, c, d}]. e[pals ->> {b}].
    X : sociable <- X[pals ->> boss..pals].
    |}
  in
  let _, report = check_demand_equals_full text "X : sociable" in
  Alcotest.(check bool) "inclusion fallback" true
    (report.Program.d_fallback = Some Demand.Inclusion)

let test_fallback_hilog () =
  let text = {|
    a[f -> b]. a[g -> c].
    |} in
  let _, report = check_demand_equals_full text "a[M -> Y]" in
  Alcotest.(check bool) "hilog fallback" true
    (report.Program.d_fallback = Some Demand.Hilog)

let test_fallback_only_when_relevant () =
  (* a negated rule in an unrelated family must not force the fallback *)
  let text =
    two_chains 5
    ^ {|
    p : person. q : person.
    X : lonely <- X : person, not X[pals ->> {q}].
    |}
  in
  let _, report = check_demand_equals_full text "a0[up ->> {X}]" in
  Alcotest.(check bool) "no fallback for unrelated negation" true
    (report.Program.d_fallback = None)

(* ------------------------------------------------------------------ *)
(* explain --demand *)

let has_sub line needle =
  let ll = String.length line and nl = String.length needle in
  let rec scan i =
    i + nl <= ll && (String.sub line i nl = needle || scan (i + 1))
  in
  scan 0

let test_explain_demand_listing () =
  let p = Program.of_string (two_chains 5) in
  let listing = Program.explain_demand_string p "a0[up ->> {X}]" in
  let has needle = List.exists (fun line -> has_sub line needle) listing in
  Alcotest.(check bool) "shows magic predicates" true (has "magic$");
  Alcotest.(check bool) "shows guarded section" true (has "guarded rules (2)");
  Alcotest.(check bool) "shows seeds" true (has "$demand");
  Alcotest.(check bool) "shows adornments" true (has "bound-receiver");
  let fb = Program.explain_demand_string p "X[M ->> {Y}]" in
  Alcotest.(check bool) "fallback explained" true
    (match fb with [ line ] -> has_sub line "unavailable" | _ -> false)

(* ------------------------------------------------------------------ *)
(* QCheck: demand answers = full-materialisation answers on randprog
   workloads, at jobs 1 and 4. *)

let queries =
  [
    "o1[r ->> {X}]";
    "o2[s ->> {X}]";
    "o3[t ->> {X}]";
    "o1[r ->> {X}], X[s ->> {Y}]";
    "o4[f -> X]";
  ]

let qcheck_demand_equals_full jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "demand = full on randprog (jobs %d)" jobs)
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let text =
        Pathlog.Randprog.generate
          { Pathlog.Randprog.seed; facts = 24; rules = 8 }
      in
      let config = { Pathlog.Fixpoint.default_config with jobs } in
      match
        let pf = Program.of_string ~config text in
        ignore (Program.run pf);
        (pf, Program.of_string ~config text)
      with
      | exception _ -> QCheck.assume_fail () (* e.g. scalar conflict *)
      | pf, pd ->
        List.for_all
          (fun q ->
            match Program.query_demand_string pd q with
            | exception _ -> QCheck.assume_fail ()
            | ans, _ ->
              render pd ans.rows = render pf (Program.query_string pf q).rows)
          queries)

(* ------------------------------------------------------------------ *)
(* Incremental demand: a query shape is compiled once and each later
   query of the shape resumes the fixpoint from the watermark its last
   complete run left. *)

let chain_prefixes n = List.init n (Printf.sprintf "c%dn")

let test_plan_cache_stable () =
  let p = Program.of_string (chains (chain_prefixes 30) 6) in
  let sight c =
    let q = Printf.sprintf "c%dn0[up ->> {X}]" c in
    let a, r = Program.query_demand_string p q in
    Alcotest.(check int) (Printf.sprintf "chain %d closure" c) 6
      (List.length a.Program.rows);
    r
  in
  (* the first sight compiles the shape and runs a full first round; the
     second compiles the delta-seeded plans the resumed runs use *)
  let r0 = sight 0 in
  Alcotest.(check bool) "first sight starts afresh" false r0.Program.d_resumed;
  ignore (sight 1);
  let plans = Program.plan_count p in
  for c = 2 to 29 do
    Alcotest.(check bool) "later sights resume" true (sight c).Program.d_resumed
  done;
  Alcotest.(check int) "no plans for fresh rule uids" plans
    (Program.plan_count p)

let test_degraded_drops_watermark () =
  let text = chains [ "a"; "b"; "c" ] 30 in
  let full = Program.of_string text in
  ignore (Program.run full);
  let expect q = render full (Program.query_string full q).rows in
  let p = Program.of_string text in
  ignore (Program.query_demand_string p "a0[up ->> {X}]");
  let budget = Pathlog.Budget.create ~max_derivations:5 () in
  let partial, cut = Program.query_demand_string ~budget p "b0[up ->> {X}]" in
  Alcotest.(check bool) "cut run resumed" true cut.Program.d_resumed;
  Alcotest.(check bool) "cut run degraded" true
    (cut.Program.d_stats.Pathlog.Fixpoint.degraded <> None);
  Alcotest.(check bool) "partial answer" true
    (List.length partial.Program.rows < List.length (expect "b0[up ->> {X}]"));
  let again, r = Program.query_demand_string p "b0[up ->> {X}]" in
  Alcotest.(check bool) "watermark dropped: full first round" false
    r.Program.d_resumed;
  Alcotest.(check bool) "completes" true
    (r.Program.d_stats.Pathlog.Fixpoint.degraded = None);
  Alcotest.(check (list string))
    "complete answer" (expect "b0[up ->> {X}]") (render p again.rows);
  let c, r = Program.query_demand_string p "c0[up ->> {X}]" in
  Alcotest.(check bool) "watermark recorded again" true r.Program.d_resumed;
  Alcotest.(check (list string))
    "next shape member right" (expect "c0[up ->> {X}]") (render p c.rows)

(* Only Live removes facts, and attaching it materialises the program:
   a demand query after a retraction answers from the maintained model,
   with the rows of a plain query, no fixpoint and no magic tuple. *)
let test_demand_after_retract () =
  let p = Program.of_string (chains [ "a"; "b"; "c" ] 5) in
  ignore (Program.query_demand_string p "a0[up ->> {X}]");
  Alcotest.(check bool) "demand alone does not materialise" false
    (Program.materialised p);
  let live = Pathlog.Live.attach p in
  Alcotest.(check bool) "attach materialises" true (Program.materialised p);
  ignore
    (Pathlog.Live.retract_batch live "c2[boss -> c3]."
      : Pathlog.Live.batch_stats);
  List.iter
    (fun q ->
      let d, r = Program.query_demand_string p q in
      Alcotest.(check (list string))
        ("demand = query: " ^ q)
        (render p (Program.query_string p q).rows)
        (render p d.rows);
      Alcotest.(check int) ("no fixpoint: " ^ q) 0
        r.Program.d_stats.Pathlog.Fixpoint.rule_evaluations)
    [ "a0[up ->> {X}]"; "c0[up ->> {X}]"; "b1[up ->> {X}]"; "X[up ->> {c4}]" ];
  Alcotest.(check (list string))
    "the retracted edge is gone" [ "c1"; "c2" ]
    (render p (fst (Program.query_demand_string p "c0[up ->> {X}]")).rows);
  Alcotest.(check int) "no magic tuples" 0
    (Demand.magic_fact_total (Program.store p))

(* A random sequence of demand queries — repeated and differing shapes,
   the same shape on different constants — with facts added in between,
   against full materialisation of the same program and facts. *)
let incremental_program =
  {|
  X[up ->> {Y}] <- X[e ->> {Y}].
  X[up ->> {Y}] <- X[e ->> {Z}], Z[up ->> {Y}].
  X[tag ->> {Y}] <- X[up ->> {Z}], Z[g ->> {Y}].
  |}

let incremental_shapes =
  [|
    Printf.sprintf "n%d[up ->> {Y}]";
    Printf.sprintf "n%d[tag ->> {Y}]";
    Printf.sprintf "n%d[e ->> {X}], X[up ->> {Y}]";
    Printf.sprintf "X[up ->> {n%d}]";
    Printf.sprintf "n%d[up ->> {n3}]";
    Printf.sprintf "n%d[up ->> {Z}]";
    (fun k -> Printf.sprintf "n%d[up ->> {n%d}]" k k);
    Printf.sprintf "n%d[e ->> {X}], X[tag ->> {n3}]";
  |]

type op = Query of int * int | Add of string * int * int

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun s k -> Query (s, k))
            (int_bound (Array.length incremental_shapes - 1))
            (int_bound 7) );
        ( 2,
          map3
            (fun m a b -> Add (m, a, b))
            (oneofl [ "e"; "g" ])
            (int_bound 7) (int_bound 7) );
      ])

let fact_text (m, a, b) = Printf.sprintf "n%d[%s ->> {n%d}]." a m b

let print_op = function
  | Query (s, k) -> incremental_shapes.(s) k
  | Add (m, a, b) -> "add " ^ fact_text (m, a, b)

let qcheck_incremental_equals_full jobs =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "incremental demand sequence = full (jobs %d)" jobs)
    ~count:40
    QCheck.(
      pair
        (make ~print:QCheck.Print.(list print_op)
           QCheck.Gen.(list_size (int_range 1 20) gen_op))
        (list_of_size (QCheck.Gen.int_range 0 12)
           (triple (oneofl [ "e"; "g" ]) (int_bound 7) (int_bound 7))))
    (fun (ops, initial) ->
      let config = { Pathlog.Fixpoint.default_config with jobs } in
      let text =
        String.concat "\n" (List.map fact_text initial) ^ incremental_program
      in
      let pd = Program.of_string ~config text in
      let added = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Add (m, a, b) ->
            Helpers.add_fact pd (fact_text (m, a, b));
            added := fact_text (m, a, b) :: !added;
            true
          | Query (s, k) ->
            let q = incremental_shapes.(s) k in
            let ans, _ = Program.query_demand_string pd q in
            let pf =
              Program.of_string ~config
                (text ^ "\n" ^ String.concat "\n" (List.rev !added))
            in
            ignore (Program.run pf);
            render pd ans.rows = render pf (Program.query_string pf q).rows)
        ops
      && Pathlog.Store.check_invariants (Program.store pd) = [])

(* ------------------------------------------------------------------ *)
(* Prepared demand: one transform per query skeleton. *)

let corpus_programs =
  lazy
    (List.concat_map
       (fun dir ->
         match List.find_opt Sys.file_exists [ "../" ^ dir; dir ] with
         | None -> []
         | Some d ->
           Sys.readdir d |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".plg")
           |> List.sort compare
           |> List.map (fun f ->
                  Test_programs.read_file (Filename.concat d f)))
       [ "examples/programs"; "docs/snippets" ])

(* The names of a program's universe, the constants random queries
   draw from. *)
let program_names p =
  let names = ref [] in
  Pathlog.Universe.iter (Program.universe p) (fun _ d ->
      match d with
      | Pathlog.Universe.Name n when n <> "" && n.[0] <> '$' ->
        names := n :: !names
      | _ -> ());
  Array.of_list (List.sort compare !names)

(* Replace every occurrence of [sub] in [s] by [by]. *)
let replace_all s ~sub ~by =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A query with each constant of its skeleton replaced by [pick k c]
   ([c] the constant placeholder [k] stands for). *)
let reconstant query pick =
  let sk = Demand.skeleton query in
  let text =
    ref
      (String.concat ", "
         (List.map
            (fun l -> Format.asprintf "%a" Pathlog.Pretty.pp_literal l)
            sk.sk_lits))
  in
  (* highest placeholder first, so [$q1] never eats into [$q10] *)
  for k = Array.length sk.sk_consts - 1 downto 0 do
    text :=
      replace_all !text
        ~sub:("$q" ^ string_of_int k)
        ~by:(Pathlog.Pretty.reference_to_string (pick k sk.sk_consts.(k)))
  done;
  lits !text

(* Bound point queries over a program's rule-defined methods, and
   chained ones whose magic rules carry the constant. *)
let bound_queries p =
  let u = Program.universe p in
  let meths =
    List.concat_map
      (fun (r : Engine.Rule.t) ->
        List.filter_map
          (fun (rel : Pathlog.Ir.rel) ->
            match rel with
            | R_set m -> Some (Pathlog.Universe.to_string u m, true)
            | R_scalar m -> Some (Pathlog.Universe.to_string u m, false)
            | R_isa | R_isa_c _ | R_any -> None)
          r.defines)
      (Program.rules p)
    |> List.sort_uniq compare
  in
  let app recv (m, set) res =
    if set then Printf.sprintf "%s[%s ->> {%s}]" recv m res
    else Printf.sprintf "%s[%s -> %s]" recv m res
  in
  List.concat_map
    (fun m ->
      [ app "c" m "Y"; app "X" m "c"; app "c" m "c" ]
      @ List.map
          (fun m2 -> app "c" m2 "X" ^ ", " ^ app "X" m "Y")
          meths)
    meths

(* What a fresh transform of [lits] gives over a fresh copy of the
   program: its seed facts, rendered, and its compiled rules' sources. *)
let fresh_transform text lits =
  let p = Program.of_string text in
  let store = Program.store p in
  match Demand.transform store (Program.rules p) lits with
  | Error fb -> Error fb
  | Ok d ->
    let seeds =
      List.concat_map
        (fun (seed : Pathlog.Ast.rule) ->
          fst
            (Engine.Head.asserts store ~binding:[||]
               (Engine.Head.compile ~named:[] seed.head)))
        d.seeds
    in
    let rules =
      Array.to_list (Demand.compile store d).strat.strata
      |> List.concat_map (List.map (fun (r : Engine.Rule.t) -> r.source))
    in
    Ok (Pathlog.Fact.lines (Program.universe p) (fun f -> List.iter f seeds), rules)

let prepared_entry p lits =
  match Program.demand_entry p lits with
  | Error fb -> Error fb
  | Ok (seeds, rules) ->
    Ok (Pathlog.Fact.lines (Program.universe p) (fun f -> List.iter f seeds), rules)

let normalise = function
  | Error fb -> Error fb
  | Ok (seeds, rules) -> Ok (List.sort_uniq compare seeds, rules)

(* Over every corpus program: the embedded queries and bound queries
   over its rule-defined methods, with random constants from its
   universe, asked in random order of one program. Each prepared entry
   (made on a miss, or found) gives the seeds and compiled rules a fresh
   transform of the query gives. *)
let qcheck_prepared_equals_transform =
  QCheck.Test.make ~name:"prepared entry = fresh transform, corpus"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (pick_program, seed) ->
      let programs = Lazy.force corpus_programs in
      let text = List.nth programs (pick_program mod List.length programs) in
      match Program.of_string text with
      | exception _ -> QCheck.assume_fail ()
      | p ->
        let st = Random.State.make [| seed |] in
        let names = program_names p in
        let pick _ (c : Pathlog.Ast.reference) : Pathlog.Ast.reference =
          match c with
          | Name _ when Array.length names > 0 ->
            Name names.(Random.State.int st (Array.length names))
          | c -> c
        in
        let queries =
          Program.embedded_queries p
          @ List.filter_map
              (fun q -> try Some (lits q) with _ -> None)
              (bound_queries p)
        in
        let asked =
          List.concat_map
            (fun q -> [ reconstant q pick; reconstant q pick ])
            queries
          |> List.map (fun q -> (Random.State.bits st, q))
          |> List.sort compare |> List.map snd
        in
        List.for_all
          (fun q ->
            let prepared = normalise (prepared_entry p q) in
            let fresh = normalise (fresh_transform text q) in
            prepared = fresh
            || QCheck.Test.fail_reportf "%s: prepared entry differs"
                 (String.concat ", "
                    (List.map
                       (Format.asprintf "%a" Pathlog.Pretty.pp_literal)
                       q)))
          asked)

(* A skeleton whose magic rule carries its constant gets one entry per
   constant, from one transform: the second constant's first sight runs
   a full first round of its own rules, and each answers right. *)
let test_carried_constants_do_not_share () =
  let text = chains [ "a"; "b" ] 4 in
  let full = Program.of_string text in
  ignore (Program.run full);
  let p = Program.of_string text in
  let ask q =
    let a, r = Program.query_demand_string p q in
    Alcotest.(check (list string))
      ("answer: " ^ q)
      (render full (Program.query_string full q).rows)
      (render p a.rows);
    r
  in
  let r0 = ask "a0[boss -> X], X[up ->> {Y}]" in
  Alcotest.(check bool) "first sight" false r0.Program.d_resumed;
  let r1 = ask "a1[boss -> X], X[up ->> {Y}]" in
  Alcotest.(check bool) "a1 has an entry of its own" false
    r1.Program.d_resumed;
  let r0' = ask "a0[boss -> X], X[up ->> {Y}]" in
  Alcotest.(check bool) "a0's entry kept its mark" true r0'.Program.d_resumed;
  Alcotest.(check int) "one transform for the skeleton" 1
    (Program.demand_transforms p);
  (* point queries share one skeleton, and different variable names one
     shape *)
  ignore (ask "a2[up ->> {Y}]");
  let r = ask "b0[up ->> {Z}]" in
  Alcotest.(check bool) "renamed variable shares the shape" true
    r.Program.d_resumed;
  Alcotest.(check int) "two more skeletons, two more transforms" 3
    (Program.demand_transforms p)

(* The table keeps 256 entries: once a carried-constant entry is
   retired, the next query it answered starts with a full first round,
   while a later one still resumes. *)
let test_evicted_entry_starts_over () =
  let n = 260 in
  let prefixes = List.init n (Printf.sprintf "a%dn") in
  let text = chains prefixes 2 in
  let full = Program.of_string text in
  ignore (Program.run full);
  let p = Program.of_string text in
  let q i = Printf.sprintf "a%dn0[boss -> X], X[up ->> {Y}]" i in
  let ask i =
    let a, r = Program.query_demand_string p (q i) in
    Alcotest.(check (list string))
      ("answer: " ^ q i)
      (render full (Program.query_string full (q i)).rows)
      (render p a.rows);
    r
  in
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "first sight %d" i) false
      (ask i).Program.d_resumed
  done;
  Alcotest.(check bool) "a recent entry resumes" true
    (ask (n - 1)).Program.d_resumed;
  Alcotest.(check bool) "a retired entry runs a full first round" false
    (ask 0).Program.d_resumed

(* [Stratify.live_rules] returns the rules of the scan it replaced, in
   the scan's order. *)
let random_goals st rules =
  let rels =
    List.concat_map
      (fun (r : Engine.Rule.t) -> r.defines @ r.reads)
      rules
    |> List.sort_uniq compare |> Array.of_list
  in
  if Array.length rels = 0 then []
  else
    List.init
      (1 + Random.State.int st 3)
      (fun _ -> rels.(Random.State.int st (Array.length rels)))

let same_rules a b =
  List.map (fun (r : Engine.Rule.t) -> r.uid) a
  = List.map (fun (r : Engine.Rule.t) -> r.uid) b

let check_live_rules rules goals =
  same_rules
    (Engine.Stratify.live_rules rules ~goals)
    (Live_rules_oracle.live_rules rules ~goals)

let qcheck_live_rules_corpus =
  QCheck.Test.make ~name:"live_rules = scan, corpus" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (pick_program, seed) ->
      let programs = Lazy.force corpus_programs in
      let text = List.nth programs (pick_program mod List.length programs) in
      match Program.of_string text with
      | exception _ -> QCheck.assume_fail ()
      | p ->
        let st = Random.State.make [| seed |] in
        let rules = Program.rules p in
        List.for_all
          (fun _ -> check_live_rules rules (random_goals st rules))
          (List.init 5 Fun.id))

let qcheck_live_rules_randprog =
  QCheck.Test.make ~name:"live_rules = scan, Randprog" ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 12))
    (fun (seed, nrules) ->
      match
        Program.of_string
          (Pathlog.Randprog.generate
             { Pathlog.Randprog.seed; facts = 10; rules = nrules })
      with
      | exception _ -> QCheck.assume_fail ()
      | p ->
        let st = Random.State.make [| seed |] in
        let rules = Program.rules p in
        List.for_all
          (fun _ -> check_live_rules rules (random_goals st rules))
          (List.init 5 Fun.id))

let suite =
  [
    Alcotest.test_case "bound tc" `Quick test_bound_tc;
    Alcotest.test_case "chained query" `Quick test_demand_chained_query;
    Alcotest.test_case "free query" `Quick test_free_query_falls_back_to_full_rules;
    Alcotest.test_case "demand composes" `Quick test_demand_composes;
    Alcotest.test_case "isa query" `Quick test_isa_query;
    Alcotest.test_case "skolem head" `Quick test_skolem_head_unguarded;
    Alcotest.test_case "chain suffix cost" `Quick test_chain_suffix;
    Alcotest.test_case "fallback: negation" `Quick test_fallback_negation;
    Alcotest.test_case "fallback: inclusion" `Quick test_fallback_inclusion;
    Alcotest.test_case "fallback: hilog" `Quick test_fallback_hilog;
    Alcotest.test_case "fallback scoped to relevant rules" `Quick
      test_fallback_only_when_relevant;
    Alcotest.test_case "explain --demand" `Quick test_explain_demand_listing;
    QCheck_alcotest.to_alcotest (qcheck_demand_equals_full 1);
    QCheck_alcotest.to_alcotest (qcheck_demand_equals_full 4);
    Alcotest.test_case "plan cache stable across first sights" `Quick
      test_plan_cache_stable;
    Alcotest.test_case "degraded first sight drops its watermark" `Quick
      test_degraded_drops_watermark;
    Alcotest.test_case "retraction reads the model" `Quick
      test_demand_after_retract;
    QCheck_alcotest.to_alcotest (qcheck_incremental_equals_full 1);
    QCheck_alcotest.to_alcotest (qcheck_incremental_equals_full 4);
    QCheck_alcotest.to_alcotest qcheck_prepared_equals_transform;
    Alcotest.test_case "carried constants do not share an entry" `Quick
      test_carried_constants_do_not_share;
    Alcotest.test_case "a retired entry starts over" `Quick
      test_evicted_entry_starts_over;
    QCheck_alcotest.to_alcotest qcheck_live_rules_corpus;
    QCheck_alcotest.to_alcotest qcheck_live_rules_randprog;
  ]

let focused_suite =
  [
    Alcotest.test_case "focused runs a subset of rules" `Quick
      test_subset_of_rules;
    Alcotest.test_case "focused agrees with full" `Quick test_agrees_with_full;
    Alcotest.test_case "focused pulls dependencies" `Quick
      test_pulls_dependencies;
    Alcotest.test_case "focused stratified" `Quick test_stratified;
    QCheck_alcotest.to_alcotest
      (forest_point_query ~name:"focused query = full materialisation"
         ~count:15 ~people:12 ~max_kids:2 (QCheck.always 0));
  ]

let topdown_suite =
  [
    Alcotest.test_case "point query" `Quick test_point_query;
    Alcotest.test_case "full query" `Quick test_full_query;
    Alcotest.test_case "open query" `Quick test_open_query;
    Alcotest.test_case "scalar chain rules" `Quick test_scalar_chain_rules;
    Alcotest.test_case "no materialisation" `Quick test_no_materialisation;
    Alcotest.test_case "fallback on virtual objects" `Quick
      test_virtual_object_head;
    Alcotest.test_case "fallback on negation" `Quick test_negation_falls_back;
    Alcotest.test_case "fallback on unconstrained query" `Quick
      test_unconstrained_query;
    Alcotest.test_case "argument methods" `Quick test_args_methods;
    QCheck_alcotest.to_alcotest
      (forest_point_query ~name:"topdown point query = bottom-up model"
         ~count:20 ~people:15 ~max_kids:3 (QCheck.int_range 0 14));
  ]
