(* Additional edge cases across the system: argument methods, string and
   integer objects, mutual recursion, multi-strata programs, solver
   options, head corner cases. *)

open Helpers
module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint

(* ------------------------------------------------------------------ *)
(* Values and argument methods *)

let test_salary_by_year () =
  let p =
    load
      {|
      john[salary@(1994) -> 100].
      john[salary@(1995) -> 120].
      mary[salary@(1994) -> 150].
      |}
  in
  check_answers "by year" p "X[salary@(1994) -> S]"
    [ "john, 100"; "mary, 150" ];
  check_answers "by person" p "john[salary@(Y) -> S]"
    [ "1994, 100"; "1995, 120" ];
  check_answers "fully open" p "X[salary@(Y) -> S]"
    [ "john, 1994, 100"; "john, 1995, 120"; "mary, 1994, 150" ]

let test_multi_arity_same_method () =
  (* the same method name with different arities coexists *)
  let p = load "x[m -> a]. x[m@(k) -> b]." in
  check_answers "nullary" p "x[m -> R]" [ "a" ];
  check_answers "unary" p "x[m@(k) -> R]" [ "b" ]

let test_string_objects () =
  let p = load {|doc1[title -> "A \"quoted\" title"]. doc1 : document.|} in
  check_answers "string result" p {|doc1[title -> T]|}
    [ {|"A \"quoted\" title"|} ];
  check_holds "string equality" p {|doc1[title -> "A \"quoted\" title"]|};
  check_fails "different string" p {|doc1[title -> "other"]|}

let test_negative_integers () =
  let p = load "acct[balance -> -250]." in
  check_answers "negative int" p "acct[balance -> B]" [ "-250" ];
  check_holds "matches" p "acct[balance -> -250]"

let test_int_vs_name_distinct () =
  let p = load {|x[a -> 5]. y[a -> "5"].|} in
  check_fails "int is not string" p {|x[a -> "5"]|};
  check_fails "string is not int" p "y[a -> 5]"

let test_rule_with_arg_methods () =
  let p =
    load
      {|
      john[salary@(1994) -> 100]. john[salary@(1995) -> 120].
      X[gotRaise@(Y1, Y2) -> yes] <-
        X[salary@(Y1) -> 100], X[salary@(Y2) -> 120].
      |}
  in
  check_holds "derived arg method" p "john[gotRaise@(1994, 1995) -> yes]"

(* ------------------------------------------------------------------ *)
(* Recursion shapes *)

let test_mutual_recursion () =
  let p =
    load
      {|
      n0[next -> n1]. n1[next -> n2]. n2[next -> n3]. n3[next -> n4].
      n0[evenFrom -> yes].
      X[oddFrom -> yes]  <- Y[evenFrom -> yes], Y[next -> X].
      X[evenFrom -> yes] <- Y[oddFrom -> yes],  Y[next -> X].
      |}
  in
  check_answers "even nodes" p "X[evenFrom -> yes]" [ "n0"; "n2"; "n4" ];
  check_answers "odd nodes" p "X[oddFrom -> yes]" [ "n1"; "n3" ]

let test_mutual_recursion_demand () =
  let text =
    {|
    n0[next -> n1]. n1[next -> n2]. n2[next -> n3]. n3[next -> n4].
    n0[evenFrom -> yes].
    X[oddFrom -> yes]  <- Y[evenFrom -> yes], Y[next -> X].
    X[evenFrom -> yes] <- Y[oddFrom -> yes],  Y[next -> X].
    |}
  in
  let p = Program.of_string text in
  let answer, report = Program.query_demand_string p "n4[evenFrom -> R]" in
  Alcotest.(check bool) "no fallback" true
    (report.Program.d_fallback = None);
  Alcotest.(check int) "n4 is even-reachable" 1 (List.length answer.rows)

let test_same_generation () =
  (* the classic non-linear recursion *)
  let p =
    load
      {|
      root[par -> top]. a[par -> root]. b[par -> root].
      a1[par -> a]. b1[par -> b].
      X[sg ->> {X}] <- X[par -> P].
      X[sg ->> {Y}] <- X[par -> XP], XP[sg ->> {YP}], Y[par -> YP].
      |}
  in
  check_holds "siblings same generation" p "a[sg ->> {b}]";
  check_holds "cousins same generation" p "a1[sg ->> {b1}]";
  check_fails "different generations" p "a[sg ->> {b1}]"

let test_diamond_derivation_no_duplicates () =
  (* two derivation paths for the same fact: set semantics, single tuple *)
  let p =
    load
      {|
      x : a. x : b.
      x : c <- x : a.
      x : c <- x : b.
      |}
  in
  let st = Pathlog.Store.stats (Program.store p) in
  Alcotest.(check int) "isa edges" 3 st.isa_edges

(* ------------------------------------------------------------------ *)
(* Strata and evaluation options *)

let test_three_strata () =
  (* s2 waits for the completion of s1; done waits for s2 *)
  let p =
    Program.of_string
      {|
      a[s1 ->> {m}].
      c[h ->> {m}].
      b[s2 ->> {Y}] <- c[h ->> a..s1], a[s1 ->> {Y}].
      e[h2 ->> {m}].
      d[done -> yes] <- e[h2 ->> b..s2].
      |}
  in
  ignore (Program.run p);
  Alcotest.(check int) "exactly 3 strata" 3 (Array.length (Program.strata p));
  check_holds "cascaded inclusions" p "d[done -> yes]"

let test_naive_with_negation () =
  let config = { Fixpoint.default_config with mode = Fixpoint.Naive } in
  let p =
    Program.of_string ~config
      {|
      a : emp[sal -> 10]. b : emp[sal -> 20].
      X : poor <- X : emp, not X[sal -> 20].
      |}
  in
  ignore (Program.run p);
  check_answers "naive + negation" p "X : poor" [ "a" ]

let test_hilog_virtual_flag () =
  (* with the flag on, a variable method ranges over skolems too *)
  let config =
    { Fixpoint.default_config with hilog_virtual = true; max_objects = 500 }
  in
  let p =
    Program.of_string ~config
      {|
      a : person[city -> c].
      X.address[city -> X.city] <- X : person.
      found[m -> M] <- a.address[M -> c].
      |}
  in
  ignore (Program.run p);
  check_answers "skolem-valued method found" p "found[m -> M]" [ "city" ]

let test_max_rounds_exact_boundary () =
  (* terminates in exactly 3 rounds: budget 3 must be enough *)
  let config = { Fixpoint.default_config with max_rounds = 5 } in
  let p =
    Program.of_string ~config
      {|
      a[kids ->> {b}]. b[kids ->> {c}].
      X[desc ->> {Y}] <- X[kids ->> {Y}].
      X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
      |}
  in
  ignore (Program.run p);
  check_answers "fits the budget" p "a[desc ->> {X}]" [ "b"; "c" ]

(* ------------------------------------------------------------------ *)
(* Head corner cases *)

let test_deep_head_path () =
  (* chained skolems: X.a.b creates two objects *)
  let p = load "root.a.b[mark -> yes]." in
  check_holds "nested skolems" p "root.a.b[mark -> yes]";
  Alcotest.(check int) "two skolems" 2
    (List.length (Pathlog.Universe.skolems (Program.universe p)))

let test_head_args_path () =
  let p = load "conf.room@(2026)[floor -> 3]." in
  check_answers "skolem with argument" p "conf.room@(2026)[floor -> F]"
    [ "3" ];
  check_fails "different argument, different object" p
    "conf.room@(2027)[floor -> F]"

let test_head_isa_chain () =
  let p = load "x : a : b." in
  (* (x : a) : b asserts both memberships of x *)
  check_holds "x : a" p "x : a";
  check_holds "x : b" p "x : b"

let test_conflicting_rules_raise () =
  match
    load
      {|
      a[v -> 1]. b[v -> 2].
      out[r -> V] <- X[v -> V].
      |}
  with
  | exception Pathlog.Err.Functional_conflict _ -> ()
  | _ -> Alcotest.fail "expected conflict: out.r gets two values"

let test_isa_head_via_variable_class () =
  let p =
    load
      {|
      a[kind -> vip].
      X : C <- X[kind -> C].
      |}
  in
  check_holds "derived membership with variable class" p "a : vip"

(* ------------------------------------------------------------------ *)
(* Query/answer API details *)

let test_query_column_order () =
  let p = load "x[a -> 1; b -> 2]." in
  let answer = Program.query_string p "x[b -> B], x[a -> A]" in
  Alcotest.(check (list string)) "first-occurrence order" [ "B"; "A" ]
    answer.columns

let test_query_duplicate_elimination () =
  let p = load "x[a -> 1]. y[a -> 1]." in
  let answer = Program.query_string p "X[a -> V], Y[a -> V]" in
  (* 2 x 2 combinations, all distinct rows *)
  Alcotest.(check int) "distinct rows" 4 (List.length answer.rows)

let test_embedded_query_order () =
  let p = load "a : c. ?- a : c. ?- X : c." in
  Alcotest.(check int) "two embedded" 2
    (List.length (Program.embedded_queries p))

let test_pp_answer () =
  let p = load "a : c." in
  let yes = Program.query_string p "a : c" in
  Alcotest.(check string) "ground yes" "yes"
    (Format.asprintf "%a" (Program.pp_answer p) yes);
  let no = Program.query_string p "b : c" in
  Alcotest.(check string) "ground no" "no"
    (Format.asprintf "%a" (Program.pp_answer p) no)

let test_store_dump_is_loadable_program () =
  let p = load "x : c[color -> red]. x[tags ->> {a, b}]." in
  let dumped = String.concat "\n" (Helpers.model p) in
  (* every dumped line is itself a parsable statement *)
  let reparsed = Pathlog.Parser.program dumped in
  Alcotest.(check int) "four facts dumped" 4 (List.length reparsed)

(* ------------------------------------------------------------------ *)
(* O2SQL extras *)

let test_o2sql_path_operand () =
  let p =
    load
      {|
      y1[producedBy -> acme]. acme[president -> boss1].
      y1[owner -> boss1].
      y1 : widget.
      |}
  in
  let store = Program.store p in
  let q =
    {
      Pathlog.O2sql.select = [ "Y" ];
      ranges = [ In_class ("Y", "widget") ];
      conds =
        [
          Eq
            ( { root = "Y"; steps = [ "owner" ] },
              Ppath { root = "Y"; steps = [ "producedBy"; "president" ] } );
        ];
    }
  in
  Alcotest.(check int) "path = path condition" 1
    (List.length (Pathlog.O2sql.eval store q))

let test_o2sql_int_operand () =
  let p = load "w : widget[size -> 5]." in
  let store = Program.store p in
  let q =
    {
      Pathlog.O2sql.select = [ "W" ];
      ranges = [ In_class ("W", "widget") ];
      conds = [ Eq ({ root = "W"; steps = [ "size" ] }, Const_int 5) ];
    }
  in
  Alcotest.(check int) "int operand" 1 (List.length (Pathlog.O2sql.eval store q))

let test_o2sql_empty_class () =
  let p = load "x : other." in
  let store = Program.store p in
  let q =
    {
      Pathlog.O2sql.select = [ "W" ];
      ranges = [ In_class ("W", "widget") ];
      conds = [];
    }
  in
  Alcotest.(check int) "empty range" 0 (List.length (Pathlog.O2sql.eval store q))

(* ------------------------------------------------------------------ *)
(* Genealogy oracle cross-check *)

let desc_count_matches_closure =
  QCheck.Test.make ~name:"derived desc tuples = oracle closure size" ~count:15
    QCheck.(int_range 1 200)
    (fun seed ->
      let shape =
        Pathlog.Genealogy.Random_forest { people = 14; max_kids = 3; seed }
      in
      let p =
        Program.create
          (Pathlog.Genealogy.statements shape @ Pathlog.Genealogy.desc_rules)
      in
      ignore (Program.run p);
      let derived =
        List.length (Program.query_string p "X[desc ->> {Y}]").rows
      in
      let oracle =
        List.fold_left
          (fun acc (_, d) -> acc + List.length d)
          0
          (Pathlog.Genealogy.closure shape)
      in
      derived = oracle)

let suite =
  [
    Alcotest.test_case "salary by year" `Quick test_salary_by_year;
    Alcotest.test_case "multi-arity method" `Quick
      test_multi_arity_same_method;
    Alcotest.test_case "string objects" `Quick test_string_objects;
    Alcotest.test_case "negative integers" `Quick test_negative_integers;
    Alcotest.test_case "int vs name distinct" `Quick test_int_vs_name_distinct;
    Alcotest.test_case "rule with arg methods" `Quick
      test_rule_with_arg_methods;
    Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
    Alcotest.test_case "mutual recursion demand" `Quick
      test_mutual_recursion_demand;
    Alcotest.test_case "same generation" `Quick test_same_generation;
    Alcotest.test_case "diamond derivation dedup" `Quick
      test_diamond_derivation_no_duplicates;
    Alcotest.test_case "three strata" `Quick test_three_strata;
    Alcotest.test_case "naive with negation" `Quick test_naive_with_negation;
    Alcotest.test_case "hilog virtual flag" `Quick test_hilog_virtual_flag;
    Alcotest.test_case "max rounds boundary" `Quick
      test_max_rounds_exact_boundary;
    Alcotest.test_case "deep head path" `Quick test_deep_head_path;
    Alcotest.test_case "head args path" `Quick test_head_args_path;
    Alcotest.test_case "head isa chain" `Quick test_head_isa_chain;
    Alcotest.test_case "conflicting rules raise" `Quick
      test_conflicting_rules_raise;
    Alcotest.test_case "isa head variable class" `Quick
      test_isa_head_via_variable_class;
    Alcotest.test_case "query column order" `Quick test_query_column_order;
    Alcotest.test_case "query duplicate elimination" `Quick
      test_query_duplicate_elimination;
    Alcotest.test_case "embedded query order" `Quick test_embedded_query_order;
    Alcotest.test_case "pp answer" `Quick test_pp_answer;
    Alcotest.test_case "dump is loadable" `Quick
      test_store_dump_is_loadable_program;
    Alcotest.test_case "o2sql path operand" `Quick test_o2sql_path_operand;
    Alcotest.test_case "o2sql int operand" `Quick test_o2sql_int_operand;
    Alcotest.test_case "o2sql empty class" `Quick test_o2sql_empty_class;
    qtest desc_count_matches_closure;
  ]

(* appended: parts-explosion workload *)

let test_parts_closure_matches_oracle () =
  let cfg = { Pathlog.Parts.default with parts = 40 } in
  let p =
    Program.create (Pathlog.Parts.statements cfg @ Pathlog.Parts.contains_rules)
  in
  ignore (Program.run p);
  List.iter
    (fun (i, contained) ->
      let got =
        answers p (Printf.sprintf "%s[contains ->> {X}]" (Pathlog.Parts.part i))
      in
      let want =
        List.sort compare (List.map Pathlog.Parts.part contained)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "contains of part%d" i)
        want got)
    (Pathlog.Parts.closure cfg)

let test_parts_quantities () =
  let cfg = { Pathlog.Parts.default with parts = 30 } in
  let p = Program.create (Pathlog.Parts.statements cfg) in
  ignore (Program.run p);
  (* every sub edge has exactly one quantity, and it is an integer 1..9 *)
  let pairs = (Program.query_string p "X[sub ->> {Y}]").rows in
  List.iter
    (fun row ->
      match row with
      | [ x; y ] ->
        let u = Program.universe p in
        let q =
          Program.query_string p
            (Printf.sprintf "%s[qty@(%s) -> Q]"
               (Pathlog.Universe.to_string u x)
               (Pathlog.Universe.to_string u y))
        in
        Alcotest.(check int) "one quantity" 1 (List.length q.rows);
        (match q.rows with
        | [ [ qv ] ] -> (
          match Pathlog.Universe.descriptor u qv with
          | Pathlog.Universe.Int n ->
            Alcotest.(check bool) "1..9" true (n >= 1 && n <= 9)
          | _ -> Alcotest.fail "quantity should be an integer")
        | _ -> Alcotest.fail "unexpected rows")
      | _ -> Alcotest.fail "two columns")
    pairs

let suite =
  suite
  @ [
      Alcotest.test_case "parts closure vs oracle" `Quick
        test_parts_closure_matches_oracle;
      Alcotest.test_case "parts quantities" `Quick test_parts_quantities;
    ]
