(* Engine tests: head execution and virtual objects, stratification,
   fixpoint modes, divergence guards, negation, and model checking. *)

open Helpers
module Fixpoint = Pathlog.Fixpoint
module Program = Pathlog.Program
module Err = Pathlog.Err

let load_with mode text =
  let config = { Fixpoint.default_config with mode } in
  let p = Program.of_string ~config text in
  ignore (Program.run p);
  p

(* ------------------------------------------------------------------ *)
(* Facts and head execution *)

let test_fact_loading () =
  let p = load "a : c. x[m -> y]. x[s ->> {y, z}]. sub :: c." in
  check_holds "isa" p "a : c";
  check_holds "subclass merged relation" p "sub : c";
  check_holds "scalar" p "x[m -> y]";
  check_holds "set" p "x[s ->> {y, z}]";
  check_fails "no invention" p "x[m -> z]"

let test_nested_fact_molecule () =
  (* nested molecules in facts assert recursively *)
  let p = load "x[m -> y[age -> 25]]." in
  check_holds "outer" p "x[m -> y]";
  check_holds "inner asserted too" p "y[age -> 25]"

let test_fact_with_path_head_skolemizes () =
  let p = load "p1.boss[worksFor -> cs1]." in
  check_holds "skolem created and filtered" p "p1.boss[worksFor -> cs1]";
  let u = Program.universe p in
  Alcotest.(check int) "one skolem" 1 (List.length (Pathlog.Universe.skolems u))

let test_functional_conflict () =
  match load "x[m -> a]. x[m -> b]." with
  | exception Err.Functional_conflict c ->
    let u =
      Pathlog.Store.universe (Pathlog.Store.create ())
    in
    ignore u;
    Alcotest.(check bool) "has rule context" true (c.rule <> None)
  | _ -> Alcotest.fail "expected functional conflict"

let test_isa_cycle_error () =
  match load "a : b. b : c. c : a." with
  | exception Err.Isa_cycle _ -> ()
  | _ -> Alcotest.fail "expected isa cycle error"

let test_self_protected () =
  (match load "x[self -> y]." with
  | exception Err.Reserved_self -> ()
  | _ -> Alcotest.fail "expected reserved self (scalar)");
  (match load "x[self ->> {y}]." with
  | exception Err.Reserved_self -> ()
  | _ -> Alcotest.fail "expected reserved self (set)");
  (* self with the object itself is a harmless no-op *)
  check_holds "x[self -> x] ok" (load "x[self -> x]. x[m -> y].") "x[m -> y]"

(* ------------------------------------------------------------------ *)
(* Rules, recursion, virtual objects *)

let test_intensional_method () =
  let p =
    load
      {|
      car : automobile[engine -> e]. e[power -> 90].
      X[power -> Y] <- X : automobile.engine[power -> Y].
      |}
  in
  check_answers "derived power" p "car[power -> P]" [ "90" ]

let test_virtual_boss_61 () =
  let p =
    load
      {|
      p1 : employee[worksFor -> cs1].
      X.boss[worksFor -> D] <- X : employee[worksFor -> D].
      |}
  in
  check_answers "both real and virtual" p "Z[worksFor -> cs1]"
    [ "p1"; "p1.boss" ];
  (* the virtual boss is not an employee, so no boss-of-boss chain *)
  let u = Program.universe p in
  Alcotest.(check int) "exactly one skolem" 1
    (List.length (Pathlog.Universe.skolems u))

let test_existing_boss_62 () =
  let p =
    load
      {|
      p1 : employee[worksFor -> cs1].
      p2 : employee[worksFor -> cs2; boss -> b2].
      Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].
      |}
  in
  check_answers "only existing bosses" p "Z[worksFor -> cs2]" [ "b2"; "p2" ];
  check_fails "p1.boss not invented" p "p1.boss[worksFor -> D]";
  Alcotest.(check int) "no skolems" 0
    (List.length (Pathlog.Universe.skolems (Program.universe p)))

let test_virtual_addresses_24 () =
  let p =
    load
      {|
      a : person[street -> s1; city -> c1].
      b : person[street -> s2; city -> c1].
      X.address[street -> X.street; city -> X.city] <- X : person.
      |}
  in
  check_answers "addresses per person" p "X.address[city -> c1]" [ "a"; "b" ];
  check_answers "attributes restructured" p "a.address[street -> S]" [ "s1" ];
  Alcotest.(check int) "two skolems" 2
    (List.length (Pathlog.Universe.skolems (Program.universe p)))

let test_skolem_determinism () =
  (* re-deriving the same head creates no second object *)
  let p =
    load
      {|
      a : person[city -> c1]. a : resident.
      X.address[city -> X.city] <- X : person.
      X.address[city -> X.city] <- X : resident.
      |}
  in
  Alcotest.(check int) "one skolem for both rules" 1
    (List.length (Pathlog.Universe.skolems (Program.universe p)))

let test_desc_recursion () =
  let p =
    load
      {|
      peter[kids ->> {tim, mary}]. tim[kids ->> {sally}].
      mary[kids ->> {tom, paul}].
      X[desc ->> {Y}] <- X[kids ->> {Y}].
      X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
      |}
  in
  check_answers "paper closure" p "peter[desc ->> {X}]"
    [ "tim"; "mary"; "sally"; "tom"; "paul" ];
  check_answers "inner node" p "mary[desc ->> {X}]" [ "tom"; "paul" ]

let test_generic_tc () =
  let p =
    Program.create
      (Pathlog.Genealogy.paper_example @ Pathlog.Genealogy.generic_tc_rules)
  in
  ignore (Program.run p);
  check_answers "kids.tc equals paper output" p "peter[(kids.tc) ->> {X}]"
    [ "tim"; "mary"; "sally"; "tom"; "paul" ]

let test_head_set_ref_44 () =
  (* formula 4.4 as a rule head: assistants become friends *)
  let p =
    load
      {|
      p1[assistants ->> {x1, x2}].
      p2[friends ->> p1..assistants] <- p1.
      |}
  in
  check_answers "members copied" p "p2[friends ->> {X}]" [ "x1"; "x2" ]

(* ------------------------------------------------------------------ *)
(* Stratification *)

let test_subset_body_stratified () =
  let p =
    load
      {|
      p1[assistants ->> {x1}].
      p2[friends ->> {x1, x3}].
      ok[is -> yes] <- p2[friends ->> p1..assistants].
      |}
  in
  check_holds "inclusion holds" p "ok[is -> yes]";
  Alcotest.(check int) "two strata"
    2
    (Array.length (Program.strata p))

let test_subset_waits_for_completion () =
  (* assistants is itself intensional; the inclusion must see the full
     set, so helper must be complete before the check rule runs *)
  let p =
    load
      {|
      p1[direct ->> {x1, x2}].
      p1[assistants ->> {Y}] <- p1[direct ->> {Y}].
      p2[friends ->> {x1, x2}].
      ok[is -> yes] <- p2[friends ->> p1..assistants].
      |}
  in
  check_holds "inclusion over intensional set" p "ok[is -> yes]"

let test_subset_fails_when_missing () =
  let p =
    load
      {|
      p1[assistants ->> {x1, x9}].
      p2[friends ->> {x1}].
      ok[is -> yes] <- p2[friends ->> p1..assistants].
      |}
  in
  check_fails "x9 not a friend" p "ok[is -> yes]"

let test_unstratifiable_rejected () =
  match
    load
      {|
      p1[assistants ->> {x1}].
      p1[assistants ->> {Y}] <- p1[friends ->> p1..assistants], p1[assistants ->> {Y}].
      p1[friends ->> {x1}].
      |}
  with
  | exception Err.Unstratifiable _ -> ()
  | _ -> Alcotest.fail "expected unstratifiable"

let test_negation_stratified () =
  let p =
    load
      {|
      a : emp[sal -> 10]. b : emp[sal -> 20].
      X : poor <- X : emp, not X[sal -> 20].
      |}
  in
  check_answers "negation" p "X : poor" [ "a" ]

let test_negation_through_recursion_rejected () =
  match
    load
      {|
      a[next -> b].
      X : odd <- a[next -> X], not X : odd.
      |}
  with
  | exception Err.Unstratifiable _ -> ()
  | _ -> Alcotest.fail "expected unstratifiable negation"

let test_negation_of_derived () =
  let p =
    load
      {|
      a[kids ->> {b}]. b[kids ->> {c}].
      X[desc ->> {Y}] <- X[kids ->> {Y}].
      X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
      X : hasKids <- X[kids ->> {Y}].
      X : leaf <- Y[desc ->> {X}], not X : hasKids.
      |}
  in
  (* b and c are descendants; only c has no kids *)
  check_answers "negation over completed desc" p "X : leaf" [ "c" ]

(* ------------------------------------------------------------------ *)
(* Divergence and budgets *)

let test_divergence_guard () =
  (* each ping creates a fresh virtual object which is a ping again *)
  let config = { Fixpoint.default_config with max_objects = 50 } in
  let text = "o1 : ping. X.next : ping <- X : ping." in
  match
    let p = Program.of_string ~config text in
    Program.run p
  with
  | exception Err.Diverged _ -> ()
  | _ -> Alcotest.fail "expected divergence"

let test_round_budget () =
  let config = { Fixpoint.default_config with max_rounds = 3 } in
  let text =
    "o1 : ping. X.next : ping <- X : ping."
  in
  match
    let p = Program.of_string ~config text in
    Program.run p
  with
  | exception Err.Diverged msg ->
    Alcotest.(check bool) "mentions rounds" true (contains ~sub:"rounds" msg)
  | _ -> Alcotest.fail "expected divergence by rounds"

(* ------------------------------------------------------------------ *)
(* Naive vs semi-naive equivalence *)

(* Models are compared as fact sets: insertion order differs between
   evaluation modes. *)
let model_facts p = Pathlog.Fact.model (Program.store p)

let same_model text =
  let dump mode = model_facts (load_with mode text) in
  dump Fixpoint.Naive = dump Fixpoint.Seminaive

let test_modes_agree_catalogue () =
  List.iter
    (fun text ->
      Alcotest.(check bool) ("modes agree: " ^ text) true (same_model text))
    [
      "a[kids ->> {b}]. b[kids ->> {c}]. c[kids ->> {d}].\n\
       X[desc ->> {Y}] <- X[kids ->> {Y}].\n\
       X[desc ->> {Y}] <- X..desc[kids ->> {Y}].";
      "a : person[street -> s; city -> c].\n\
       X.address[street -> X.street; city -> X.city] <- X : person.";
      "e1 : emp[boss -> e2]. e2 : emp[boss -> e3]. e3 : emp.\n\
       X[above ->> {Y}] <- Y : emp[boss -> X].\n\
       X[above ->> {Y}] <- Z[above ->> {Y}], X[above ->> {Z}].";
      "m :: e. x : m. y : e.\nX : staff <- X : e.";
    ]

let modes_agree_on_random_tc =
  QCheck.Test.make ~name:"naive = semi-naive on random genealogies" ~count:20
    QCheck.(int_range 1 60)
    (fun seed ->
      let stmts =
        Pathlog.Genealogy.statements
          (Pathlog.Genealogy.Random_forest { people = 25; max_kids = 3; seed })
        @ Pathlog.Genealogy.desc_rules
      in
      let dump mode =
        let config = { Fixpoint.default_config with mode } in
        let p = Program.create ~config stmts in
        ignore (Program.run p);
        model_facts p
      in
      dump Fixpoint.Naive = dump Fixpoint.Seminaive)

(* After the fixpoint the store is a model of every rule. *)
let fixpoint_is_model =
  QCheck.Test.make ~name:"fixpoint yields a model (random genealogies)"
    ~count:10
    QCheck.(int_range 1 40)
    (fun seed ->
      let stmts =
        Pathlog.Genealogy.statements
          (Pathlog.Genealogy.Random_forest { people = 8; max_kids = 2; seed })
        @ Pathlog.Genealogy.desc_rules
      in
      let p = Program.create stmts in
      ignore (Program.run p);
      Program.verify_model p = Ok ())

let test_desc_matches_reference_closure () =
  List.iter
    (fun shape ->
      let stmts =
        Pathlog.Genealogy.statements shape @ Pathlog.Genealogy.desc_rules
      in
      let p = Program.create stmts in
      ignore (Program.run p);
      List.iter
        (fun (i, descs) ->
          let got = answers p (Printf.sprintf "p%d[desc ->> {X}]" i) in
          let want =
            List.sort compare (List.map (Printf.sprintf "p%d") descs)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "descendants of p%d" i)
            want got)
        (Pathlog.Genealogy.closure shape))
    [
      Pathlog.Genealogy.Chain 12;
      Pathlog.Genealogy.Binary_tree 3;
      Pathlog.Genealogy.Random_forest { people = 20; max_kids = 3; seed = 3 };
    ]

let test_run_idempotent () =
  let p =
    Program.of_string
      "a[kids ->> {b}]. X[desc ->> {Y}] <- X[kids ->> {Y}]."
  in
  let s1 = Program.run p in
  Alcotest.(check bool) "first run inserts" true (s1.insertions > 0);
  let s2 = Program.run p in
  Alcotest.(check int) "second run inserts nothing" 0 s2.insertions

(* ------------------------------------------------------------------ *)
(* Program API *)

let test_program_queries () =
  let p = load "a : c. b : c. ?- X : c." in
  match Program.run_queries p with
  | [ (_, answer) ] ->
    Alcotest.(check int) "embedded query rows" 2 (List.length answer.rows)
  | _ -> Alcotest.fail "expected one embedded query"

let test_ground_query_yes_no () =
  let p = load "a : c." in
  let yes = Program.query_string p "a : c" in
  Alcotest.(check int) "yes row" 1 (List.length yes.rows);
  let no = Program.query_string p "b : c" in
  Alcotest.(check int) "no rows" 0 (List.length no.rows)

let test_query_string_forms () =
  let p = load "a : c." in
  List.iter
    (fun q ->
      Alcotest.(check bool) ("form: " ^ q) true
        ((Program.query_string p q).rows <> []))
    [ "a : c"; "a : c."; "?- a : c."; "  ?- a : c.  " ]

let test_invalid_programs () =
  let expect_invalid text =
    match Program.of_string text with
    | exception Program.Invalid _ -> ()
    | _ -> Alcotest.fail ("accepted invalid: " ^ text)
  in
  expect_invalid "x[y -> .";
  expect_invalid "X[a -> 1] <- y.";  (* unsafe head var *)
  expect_invalid "X..k[a -> 1] <- X : c.";  (* set-valued head *)
  expect_invalid "ok <- not X : c.";  (* unsafe negation *)
  expect_invalid "c[m => X].";  (* non-ground signature *)
  expect_invalid "?- x[y => z]."  (* signature arrow in a query *)

let test_types_api () =
  let p =
    load
      {|
      employee[age => integer].
      bob : employee[age -> 30].
      eve : employee[age -> old].
      |}
  in
  Alcotest.(check int) "one violation" 1
    (List.length (Program.check_types p ~mode:`Lenient))

let suite =
  [
    Alcotest.test_case "fact loading" `Quick test_fact_loading;
    Alcotest.test_case "nested fact molecule" `Quick test_nested_fact_molecule;
    Alcotest.test_case "fact path head skolemizes" `Quick
      test_fact_with_path_head_skolemizes;
    Alcotest.test_case "functional conflict" `Quick test_functional_conflict;
    Alcotest.test_case "isa cycle error" `Quick test_isa_cycle_error;
    Alcotest.test_case "self protected" `Quick test_self_protected;
    Alcotest.test_case "intensional method (power)" `Quick
      test_intensional_method;
    Alcotest.test_case "virtual boss (6.1)" `Quick test_virtual_boss_61;
    Alcotest.test_case "existing boss (6.2)" `Quick test_existing_boss_62;
    Alcotest.test_case "virtual addresses (2.4)" `Quick
      test_virtual_addresses_24;
    Alcotest.test_case "skolem determinism" `Quick test_skolem_determinism;
    Alcotest.test_case "desc recursion (6.4)" `Quick test_desc_recursion;
    Alcotest.test_case "generic tc" `Quick test_generic_tc;
    Alcotest.test_case "head set-reference (4.4)" `Quick test_head_set_ref_44;
    Alcotest.test_case "subset body stratified" `Quick
      test_subset_body_stratified;
    Alcotest.test_case "subset waits for completion" `Quick
      test_subset_waits_for_completion;
    Alcotest.test_case "subset fails when missing" `Quick
      test_subset_fails_when_missing;
    Alcotest.test_case "unstratifiable rejected" `Quick
      test_unstratifiable_rejected;
    Alcotest.test_case "negation stratified" `Quick test_negation_stratified;
    Alcotest.test_case "negation through recursion rejected" `Quick
      test_negation_through_recursion_rejected;
    Alcotest.test_case "negation of derived" `Quick test_negation_of_derived;
    Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
    Alcotest.test_case "round budget" `Quick test_round_budget;
    Alcotest.test_case "modes agree catalogue" `Quick
      test_modes_agree_catalogue;
    qtest modes_agree_on_random_tc;
    qtest fixpoint_is_model;
    Alcotest.test_case "desc matches reference closure" `Quick
      test_desc_matches_reference_closure;
    Alcotest.test_case "run idempotent" `Quick test_run_idempotent;
    Alcotest.test_case "program queries" `Quick test_program_queries;
    Alcotest.test_case "ground query yes/no" `Quick test_ground_query_yes_no;
    Alcotest.test_case "query string forms" `Quick test_query_string_forms;
    Alcotest.test_case "invalid programs" `Quick test_invalid_programs;
    Alcotest.test_case "types api" `Quick test_types_api;
  ]
