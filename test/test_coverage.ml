(* Remaining behavioural corners: valuation cartesian products, the
   production engine under conflicts, goal-directed point queries, lexer
   line accounting, normalisation of rules, Entail conjunctions, Randprog
   determinism. *)

open Helpers
module Program = Pathlog.Program
module Valuation = Pathlog.Valuation
module Production = Pathlog.Production

(* ------------------------------------------------------------------ *)
(* Valuation: cartesian products over set-valued sub-references *)

let test_valuation_set_method_position () =
  (* the method position itself can be set valued in a path *)
  let p =
    load
      {|
      box[methods ->> {a, b}].
      x[a -> r1]. x[b -> r2].
      |}
  in
  (* x.(box..methods): apply every method in the set *)
  check_answers "set-valued method position" p "x.(box..methods)[R]"
    [ "r1"; "r2" ]

let test_valuation_multiple_set_args () =
  let p =
    load
      {|
      t[pair@(a, c) -> ac]. t[pair@(a, d) -> ad].
      t[pair@(b, c) -> bc]. t[pair@(b, d) -> bd].
      s1[members ->> {a, b}]. s2[members ->> {c, d}].
      |}
  in
  (* both argument positions range over sets: full cartesian product *)
  check_answers "cartesian product of arguments" p
    "t.pair@(s1..members, s2..members)[R]"
    [ "ac"; "ad"; "bc"; "bd" ]

let test_entail_literals_conjunction () =
  let p = load "x[a -> 1]. x[b -> 2]." in
  let store = Program.store p in
  let env = Valuation.Env.empty in
  Alcotest.(check bool) "both hold" true
    (Pathlog.Entail.literals store env
       (Pathlog.Parser.literals "x[a -> 1], x[b -> 2]"));
  Alcotest.(check bool) "one fails" false
    (Pathlog.Entail.literals store env
       (Pathlog.Parser.literals "x[a -> 1], x[b -> 3]"));
  Alcotest.(check bool) "negation flips" true
    (Pathlog.Entail.literals store env
       (Pathlog.Parser.literals "x[a -> 1], not x[b -> 3]"))

(* ------------------------------------------------------------------ *)
(* Production engine corners *)

let test_production_conflict_surfaces () =
  let p = load "a : t. b : t." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "clash";
          condition = Pathlog.Parser.literals "X : t";
          actions = [ Assert (Pathlog.Parser.reference "out[v -> X]") ];
          priority = 0;
        };
      ]
  in
  (* first firing sets out.v; the second must conflict *)
  match Production.run eng with
  | exception Pathlog.Err.Functional_conflict _ -> ()
  | _ -> Alcotest.fail "expected a functional conflict from the second firing"

let test_production_multiple_actions () =
  let p = load "a : t." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "multi";
          condition = Pathlog.Parser.literals "X : t";
          actions =
            [
              Assert (Pathlog.Parser.reference "X : seen");
              Assert (Pathlog.Parser.reference "X[count -> 1]");
              Message "done";
            ];
          priority = 0;
        };
      ]
  in
  Alcotest.(check int) "one firing" 1 (Production.run eng);
  check_holds "first action" p "a : seen";
  check_holds "second action" p "a[count -> 1]";
  Alcotest.(check int) "message + firing logged" 2
    (List.length (Production.log eng))

let test_production_declaration_order_tiebreak () =
  let p = load "t : trigger." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "first";
          condition = Pathlog.Parser.literals "t : trigger";
          actions = [ Message "first" ];
          priority = 1;
        };
        {
          p_name = "second";
          condition = Pathlog.Parser.literals "t : trigger";
          actions = [ Message "second" ];
          priority = 1;
        };
      ]
  in
  ignore (Production.run eng);
  let messages =
    List.filter_map (fun (e : Production.event) -> e.e_message)
      (Production.log eng)
  in
  Alcotest.(check (list string)) "declaration order breaks ties"
    [ "first"; "second" ] messages

(* ------------------------------------------------------------------ *)
(* Goal-directed corners, answered through demand and checked against
   full materialisation *)

let small_tc =
  {|
  a[kids ->> {b}]. b[kids ->> {c}].
  X[desc ->> {Y}] <- X[kids ->> {Y}].
  X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
  |}

(* Ground yes/no and result-bound queries, and a rule-free program. *)
let test_edb_only () =
  let rows, report =
    Test_demand.demand_rows "a[r ->> {b}]. b[r ->> {c}]." "a[r ->> {X}]"
  in
  Alcotest.(check int) "one answer" 1 (List.length rows);
  Alcotest.(check int) "no magic rules needed" 0 report.Program.d_magic_rules

let test_ground_query () =
  Test_demand.check_count "ground yes" 1 small_tc "a[desc ->> {c}]";
  Test_demand.check_count "ground no" 0 small_tc "c[desc ->> {a}]"

let test_result_bound_pattern () =
  Test_demand.check_count "two ancestors" 2 small_tc "X[desc ->> {c}]";
  Test_demand.check_count "paul's two ancestors" 2 Test_demand.desc_text
    "X[desc ->> {paul}]"

(* ------------------------------------------------------------------ *)
(* Lexer/parser positions *)

let test_lexer_lines_across_strings () =
  match Pathlog.Parser.program "x[a -> \"line\nbreak\"].\ny[b !" with
  | exception Pathlog.Parser.Error (pos, _) ->
    (* the error is on the line after the two-line string *)
    Alcotest.(check int) "line number" 3 pos.line
  | _ -> Alcotest.fail "expected a parse error"

let test_parser_error_position_column () =
  match Pathlog.Parser.statement "x[a -> ]." with
  | exception Pathlog.Parser.Error (pos, _) ->
    Alcotest.(check int) "column of ']'" 8 pos.col
  | _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Normalisation of rules and statements *)

let test_normalize_rule () =
  let r src =
    match Pathlog.Parser.statement src with
    | Syntax.Ast.Rule r -> r
    | Syntax.Ast.Query _ -> Alcotest.fail "rule expected"
  in
  let n1 =
    Pathlog.Normalize.rule (r "X[d ->> {Y}] <- (X)[b -> 2][a -> 1].")
  in
  let n2 = Pathlog.Normalize.rule (r "X[d ->> {Y}] <- X[a -> 1; b -> 2].") in
  Alcotest.(check bool) "rule bodies normalise equal" true
    (n1 = n2)

let test_normalized_program_same_model () =
  (* normalising every rule preserves the computed model *)
  let text =
    {|
    peter[kids ->> {tim}]. tim[kids ->> {sally}].
    X[desc ->> {Y}] <- (X)[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc.self[kids ->> {Y}].
    |}
  in
  let p1 = load text in
  let statements = Pathlog.Parser.program text in
  let normalized =
    List.map
      (function
        | Syntax.Ast.Rule r -> Syntax.Ast.Rule (Pathlog.Normalize.rule r)
        | Syntax.Ast.Query q -> Syntax.Ast.Query q)
      statements
  in
  let p2 = Program.create normalized in
  ignore (Program.run p2);
  Alcotest.(check (list string)) "same model" (Helpers.model p1)
    (Helpers.model p2)

(* ------------------------------------------------------------------ *)
(* Random program generator *)

let test_randprog_deterministic () =
  let a = Pathlog.Randprog.generate Pathlog.Randprog.default in
  let b = Pathlog.Randprog.generate Pathlog.Randprog.default in
  Alcotest.(check string) "same seed same program" a b;
  let c =
    Pathlog.Randprog.generate { Pathlog.Randprog.default with seed = 2 }
  in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_randprog_parses () =
  for seed = 1 to 50 do
    let text =
      Pathlog.Randprog.generate { Pathlog.Randprog.default with seed }
    in
    match Pathlog.Parser.program text with
    | _ -> ()
    | exception Pathlog.Parser.Error (pos, msg) ->
      Alcotest.failf "seed %d unparsable at %a: %s\n%s" seed
        Pathlog.Token.pp_pos pos msg text
  done

let suite =
  [
    Alcotest.test_case "set-valued method position" `Quick
      test_valuation_set_method_position;
    Alcotest.test_case "multiple set args" `Quick
      test_valuation_multiple_set_args;
    Alcotest.test_case "entail conjunction" `Quick
      test_entail_literals_conjunction;
    Alcotest.test_case "production conflict surfaces" `Quick
      test_production_conflict_surfaces;
    Alcotest.test_case "production multiple actions" `Quick
      test_production_multiple_actions;
    Alcotest.test_case "production declaration tiebreak" `Quick
      test_production_declaration_order_tiebreak;
    Alcotest.test_case "topdown EDB only" `Quick test_edb_only;
    Alcotest.test_case "topdown ground query" `Quick test_ground_query;
    Alcotest.test_case "topdown result-bound pattern" `Quick
      test_result_bound_pattern;
    Alcotest.test_case "lexer lines across strings" `Quick
      test_lexer_lines_across_strings;
    Alcotest.test_case "parser error column" `Quick
      test_parser_error_position_column;
    Alcotest.test_case "normalize rule" `Quick test_normalize_rule;
    Alcotest.test_case "normalized program same model" `Quick
      test_normalized_program_same_model;
    Alcotest.test_case "randprog deterministic" `Quick
      test_randprog_deterministic;
    Alcotest.test_case "randprog parses" `Quick test_randprog_parses;
  ]

(* appended: anonymous variables *)

let test_anonymous_variables () =
  let p =
    load
      {|
      a[kids ->> {b}]. b[kids ->> {c}]. lone : person.
      X : parent <- X[kids ->> {Y}].
      |}
  in
  (* each _ is independent; the query has one named column *)
  let answer =
    Program.query_string p "X[kids ->> {_}], _[kids ->> {c}]"
  in
  Alcotest.(check (list string)) "only X named" [ "X" ] answer.columns;
  (* X in {a, b} (has kids), second _ must be b: both a and b qualify *)
  Alcotest.(check int) "both parents" 2 (List.length answer.rows);
  (* with a SHARED variable instead, only b[kids->>{c}] and b[kids->>{..}]
     coincide *)
  let shared = Program.query_string p "X[kids ->> {W}], W[kids ->> {c}]" in
  Alcotest.(check int) "shared variable restricts" 1 (List.length shared.rows)

let test_anonymous_rejected_in_head () =
  (match Program.of_string "x[a -> _] <- x : c." with
  | exception Program.Invalid msg ->
    Alcotest.(check bool) "mentions anonymous" true
      (contains ~sub:"anonymous" msg)
  | _ -> Alcotest.fail "anonymous head must be rejected");
  match Program.of_string "ok : t <- x : c, not x[a -> _]." with
  | exception Program.Invalid _ -> ()
  | _ -> Alcotest.fail "anonymous under not must be rejected"

let test_anonymous_in_body_ok () =
  let p =
    load
      {|
      a[kids ->> {b}]. lone : person.
      X : parent <- X[kids ->> {_}].
      |}
  in
  check_answers "parent via anonymous" p "X : parent" [ "a" ]

let suite =
  suite
  @ [
      Alcotest.test_case "anonymous variables" `Quick
        test_anonymous_variables;
      Alcotest.test_case "anonymous rejected in head/not" `Quick
        test_anonymous_rejected_in_head;
      Alcotest.test_case "anonymous in body" `Quick test_anonymous_in_body_ok;
    ]
