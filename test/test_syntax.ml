(* Lexer, parser, pretty-printer, scalarity and well-formedness tests. *)

open Helpers
module Ast = Pathlog.Ast
module Parser = Pathlog.Parser
module Pretty = Pathlog.Pretty
module Scalarity = Pathlog.Scalarity
module Wellformed = Pathlog.Wellformed

let reference = Parser.reference
let statement = Parser.statement

(* ------------------------------------------------------------------ *)
(* Lexer *)

let tokens src =
  List.map fst (Syntax.Lexer.tokenize src)

let test_lexer_dot_disambiguation () =
  (* path dot before identifiers; statement end before space/eof *)
  Alcotest.(check int) "a.b." 5 (List.length (tokens "a.b."));
  (match tokens "a.b." with
  | [ NAME "a"; DOT; NAME "b"; END; EOF ] -> ()
  | _ -> Alcotest.fail "expected NAME DOT NAME END EOF");
  (match tokens "a. b" with
  | [ NAME "a"; END; NAME "b"; EOF ] -> ()
  | _ -> Alcotest.fail "dot before space ends statement");
  (match tokens "3." with
  | [ INT 3; END; EOF ] -> ()
  | _ -> Alcotest.fail "int then end");
  match tokens "a.(m)" with
  | [ NAME "a"; DOT; LPAREN; NAME "m"; RPAREN; EOF ] -> ()
  | _ -> Alcotest.fail "dot before paren is a path dot" 

let test_lexer_tokens () =
  (match tokens "x..y" with
  | [ NAME "x"; DOTDOT; NAME "y"; EOF ] -> ()
  | _ -> Alcotest.fail "dotdot");
  (match tokens "a -> b ->> c => d =>> e" with
  | [ NAME "a"; ARROW; NAME "b"; DARROW; NAME "c"; SIG_ARROW; NAME "d";
      SIG_DARROW; NAME "e"; EOF ] -> ()
  | _ -> Alcotest.fail "arrows");
  (match tokens "X : c :: d" with
  | [ VAR "X"; COLON; NAME "c"; COLONCOLON; NAME "d"; EOF ] -> ()
  | _ -> Alcotest.fail "colons");
  (match tokens "?- not x <- y" with
  | [ QUERY; NOT; NAME "x"; IMPLIED; NAME "y"; EOF ] -> ()
  | _ -> Alcotest.fail "rule tokens");
  (match tokens "m@(1, -2)" with
  | [ NAME "m"; AT; LPAREN; INT 1; COMMA; INT (-2); RPAREN; EOF ] -> ()
  | _ -> Alcotest.fail "args and negative int");
  (match tokens {|"a\"b\n"|} with
  | [ STRING "a\"b\n"; EOF ] -> ()
  | _ -> Alcotest.fail "string escapes");
  match tokens "a % comment here\nb" with
  | [ NAME "a"; NAME "b"; EOF ] -> ()
  | _ -> Alcotest.fail "comments"

let test_lexer_errors () =
  let expect_error src =
    match Syntax.Lexer.tokenize src with
    | exception Syntax.Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("lexer accepted " ^ src)
  in
  expect_error "\"unterminated";
  expect_error "a & b";
  expect_error "= x";
  expect_error "< y";
  expect_error "-x";
  (* '?' alone is the optional operator since regular paths landed *)
  match tokens "? z" with
  | [ QMARK; NAME "z"; EOF ] -> ()
  | _ -> Alcotest.fail "'?' should lex as the optional operator"

let test_lexer_positions () =
  match Syntax.Lexer.tokenize "a.\n  !" with
  | exception Syntax.Lexer.Error (pos, _) ->
    Alcotest.(check int) "line" 2 pos.line;
    Alcotest.(check int) "col" 3 pos.col
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Parser: structures *)

let test_parse_paper_reference () =
  (* reference (2.1) of the paper *)
  let r =
    reference
      "X : employee[age -> 30; city -> newYork]..vehicles : \
       automobile[cylinders -> 4].color[Z]"
  in
  (* outermost is the selector filter [Z] -> [self -> Z] *)
  match r with
  | Ast.Filter { f_meth = Name "self"; f_rhs = Rscalar (Var "Z"); f_recv; _ }
    -> (
    match f_recv with
    | Ast.Path { p_sep = Dot; p_meth = Name "color"; _ } -> ()
    | _ -> Alcotest.fail "expected .color")
  | _ -> Alcotest.fail "expected selector filter"

let test_parse_left_assoc () =
  (* x : c.m parses as (x : c).m *)
  match reference "x : c.m" with
  | Ast.Path { p_recv = Ast.Isa _; p_meth = Name "m"; _ } -> ()
  | _ -> Alcotest.fail "expected (x : c).m"

let test_parse_paren_class () =
  (* L : (integer.list) keeps the parenthesised path as the class *)
  match reference "L : (integer.list)" with
  | Ast.Isa { cls = Ast.Paren (Ast.Path _); _ } -> ()
  | _ -> Alcotest.fail "expected paren class"

let test_parse_semicolon_filters () =
  let a = reference "m[x -> 1; y -> 2]" in
  let b = reference "m[x -> 1][y -> 2]" in
  Alcotest.(check bool) "sugar equal" true (Ast.equal_reference a b)

let test_parse_selector_sugar () =
  let a = reference "x.color[Z]" in
  let b = reference "x.color[self -> Z]" in
  Alcotest.(check bool) "selector = self filter" true (Ast.equal_reference a b)

let test_parse_args () =
  match reference "john.salary@(1994)" with
  | Ast.Path { p_args = [ Ast.Int_lit 1994 ]; _ } -> ()
  | _ -> Alcotest.fail "expected one int argument"

let test_parse_set_arg () =
  match reference "p1.paidFor@(p1..vehicles)" with
  | Ast.Path { p_args = [ Ast.Path { p_sep = Dotdot; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "expected set-valued argument"

let test_parse_rule_and_query () =
  (match statement "h[x -> 1] <- b1, not b2." with
  | Ast.Rule { body = [ Pos _; Neg _ ]; _ } -> ()
  | _ -> Alcotest.fail "rule with negation");
  match statement "?- a, b." with
  | Ast.Query [ Pos _; Pos _ ] -> ()
  | _ -> Alcotest.fail "query"

let test_parse_explicit_set () =
  (match reference "p2[friends ->> {p3, p4}]" with
  | Ast.Filter { f_rhs = Rset_enum [ Ast.Name "p3"; Ast.Name "p4" ]; _ } -> ()
  | _ -> Alcotest.fail "set enum");
  match reference "p2[friends ->> p1..assistants]" with
  | Ast.Filter { f_rhs = Rset_ref (Ast.Path { p_sep = Dotdot; _ }); _ } -> ()
  | _ -> Alcotest.fail "set ref"

let test_parse_higher_order () =
  match reference "X[(M.tc) ->> {Y}]" with
  | Ast.Filter { f_meth = Ast.Paren (Ast.Path { p_meth = Name "tc"; _ }); _ }
    -> ()
  | _ -> Alcotest.fail "computed method position"

let test_parse_errors () =
  let expect_error src =
    match Parser.statement src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("parser accepted " ^ src)
  in
  expect_error "x[y -> ].";
  expect_error "x[.";
  expect_error "x : .";
  expect_error "x..";
  expect_error "?- .";
  expect_error "x[a.b -> 1].";  (* non-simple method position *)
  expect_error "x[Y@(1)].";     (* selector with arguments *)
  expect_error "x. trailing";
  expect_error "x"              (* missing statement end *)

let test_parse_program () =
  let prog =
    Parser.program
      "a : b. % fact\n?- a : b.\nX[d ->> {Y}] <- X[k ->> {Y}].\n"
  in
  Alcotest.(check int) "three statements" 3 (List.length prog)

(* ------------------------------------------------------------------ *)
(* Pretty: round trip *)

let roundtrip_statement src =
  let stmt = statement src in
  let printed = Pretty.statement_to_string stmt in
  let again = statement printed in
  Alcotest.(check bool) ("roundtrip: " ^ src) true (Ast.equal_statement stmt again)

let test_roundtrip_catalogue () =
  List.iter roundtrip_statement
    [
      "X : employee[age -> 30; city -> newYork]..vehicles : \
       automobile[cylinders -> 4].color[Z].";
      "p2[friends ->> {p3, p4}].";
      "p2[friends ->> p1..assistants].";
      "john.salary@(1994).";
      "X[(M.tc) ->> {Y}] <- X..(M.tc)[M ->> {Y}].";
      "?- peter[(kids.tc) ->> {X}].";
      "automobile :: vehicle.";
      "employee[age => integer].";
      "employee[vehicles =>> vehicle].";
      "X.address[street -> X.street; city -> X.city] <- X : person.";
      "Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].";
      "L : (integer.list).";
      "mary.spouse[boss -> mary[age -> 25]].age.";
      "x[m -> \"a string \\\"quoted\\\"\"].";
      "x[m -> -5].";
      "?- not p1[age -> 30], p1 : employee.";
      "p1.paidFor@(p1..vehicles, 3).";
    ]

let roundtrip_property =
  QCheck.Test.make ~name:"pretty/parse roundtrip on random references"
    ~count:500
    (arbitrary_reference ~allow_vars:true)
    (fun r ->
      let printed = Pretty.reference_to_string r in
      match Parser.reference printed with
      | r' -> Ast.equal_reference r r'
      | exception Parser.Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Scalarity: Definition 2 *)

let scal src = Scalarity.of_reference (reference src)

let test_scalarity () =
  let check_scal name src expected =
    Alcotest.(check bool) name true (scal src = expected)
  in
  check_scal "name" "p1" Scalar;
  check_scal "scalar path" "p1.age" Scalar;
  check_scal "set path" "p1..assistants" Set_valued;
  check_scal "scalar on set" "p1..assistants.salary" Set_valued;
  check_scal "set on set" "p1..assistants..projects" Set_valued;
  check_scal "molecule inherits recv" "p1..assistants[salary -> 1000]"
    Set_valued;
  check_scal "molecule scalar recv" "p2[friends ->> p1..assistants]" Scalar;
  check_scal "isa inherits recv" "p1..assistants : emp" Set_valued;
  check_scal "paren passthrough" "(p1..assistants)" Set_valued;
  check_scal "set arg makes path set" "p1.paidFor@(p1..vehicles)" Set_valued;
  check_scal "selector keeps scalarity" "X..vehicles.color[Z]" Set_valued

(* ------------------------------------------------------------------ *)
(* Well-formedness: Definition 3, heads, safety *)

let test_wellformed_accepts () =
  List.iter
    (fun src ->
      match Wellformed.check_reference (reference src) with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "rejected %s: %a" src Wellformed.pp_error e)
    [
      "p1..assistants[salary -> 1000]";
      "p2[friends ->> p1..assistants]";
      "p2[friends ->> {p3, p4}]";
      "p1..assistants.salary";
      "p1.paidFor@(p1..vehicles)";
      "L : (integer.list)";
    ]

let test_wellformed_rejects () =
  let expect_reject src =
    match Wellformed.check_reference (reference src) with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("accepted ill-formed " ^ src)
  in
  (* formula (4.5) of the paper: set-valued result of a scalar method *)
  expect_reject "p2[boss -> p1..assistants]";
  (* set-valued reference as a filter argument *)
  expect_reject "p2[m@(p1..assistants) -> x]";
  (* set-valued class *)
  expect_reject "L : (p1..assistants)";
  (* scalar rhs of ->> must be an explicit set *)
  expect_reject "p2[friends ->> p3]";
  (* signature arrows are not formulas *)
  expect_reject "x[m -> y[age => integer]]"

let test_head_conditions () =
  let expect_reject src =
    match Wellformed.check_rule (match statement src with
      | Ast.Rule r -> r
      | Ast.Query _ -> Alcotest.fail "expected rule") with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("accepted bad rule " ^ src)
  in
  (* set-valued head *)
  expect_reject "X..assistants[a -> 1] <- X : emp.";
  (* unsafe head variable *)
  expect_reject "X[a -> Y] <- X : emp.";
  (* negated variable unbound *)
  expect_reject "ok[a -> 1] <- not X : emp.";
  (* fine: bound head vars *)
  match
    Wellformed.check_rule
      (match statement "X[a -> Y] <- X : emp[b -> Y]." with
      | Ast.Rule r -> r
      | Ast.Query _ -> assert false)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected good rule: %a" Wellformed.pp_error e

let test_signature_extraction () =
  (match Wellformed.signature_of_statement (statement "c[m => r].") with
  | Some (_, _, [], _, Scalar) -> ()
  | _ -> Alcotest.fail "scalar signature");
  (match Wellformed.signature_of_statement (statement "c[m@(a) =>> r].") with
  | Some (_, _, [ _ ], _, Set_valued) -> ()
  | _ -> Alcotest.fail "set signature with arg");
  match Wellformed.signature_of_statement (statement "c[m -> r].") with
  | None -> ()
  | Some _ -> Alcotest.fail "plain fact is not a signature"

let wellformed_generated =
  QCheck.Test.make ~name:"generated references are well-formed" ~count:300
    (arbitrary_reference ~allow_vars:true)
    (fun r -> Wellformed.check_reference r = Ok ())

(* The lexer/parser never crash on arbitrary input: they either produce a
   program or raise their own documented exceptions. *)
let parser_total_on_garbage =
  QCheck.Test.make ~name:"parser is total (errors, never crashes)" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.printable)
    (fun src ->
      match Parser.program src with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception _ -> false)

(* Fuzz with syntax-flavoured fragments, which reach deeper parser states
   than uniform printable noise. *)
let parser_total_on_fragments =
  let fragment =
    QCheck.Gen.oneofl
      [ "x"; "X"; "42"; "."; ".."; "["; "]"; "{"; "}"; "("; ")"; "->";
        "->>"; "=>"; ":"; "::"; "<-"; "?-"; ","; ";"; "@"; "not"; " ";
        "self"; "\"s\""; "%c\n" ]
  in
  QCheck.Test.make ~name:"parser is total on token soup" ~count:500
    (QCheck.make
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 25) fragment)))
    (fun src ->
      match Parser.program src with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception _ -> false)

(* Whole-program round trip via the pretty-printer. *)
let program_roundtrip =
  QCheck.Test.make ~name:"program pretty/parse roundtrip" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 6)
            (map
               (fun r -> Syntax.Ast.Rule { head = r; body = [] })
               (Helpers.gen_reference ~allow_vars:false))))
    (fun prog ->
      let printed = Syntax.Pretty.program_to_string prog in
      match Parser.program printed with
      | prog' -> List.for_all2 Ast.equal_statement prog prog'
      | exception Parser.Error _ -> false)

let vars_of_reference_order () =
  let r = reference "X[a -> Y].b[Z -> X]" in
  Alcotest.(check (list string))
    "first-occurrence order" [ "X"; "Y"; "Z" ]
    (Ast.vars_of_reference r)

(* The sentinel lexer against the character-at-a-time lexer it replaced
   ([Lexer_oracle]): the same tokens and positions, or the same error at
   the same position, on the shipped corpus, on Randprog text, on random
   bytes and on fragments that reach every error path. *)
let lex_outcome tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception Syntax.Lexer.Error (pos, msg) -> Error (`Lex (pos, msg))
  | exception Lexer_oracle.Error (pos, msg) -> Error (`Lex (pos, msg))
  | exception e -> Error (`Exn (Printexc.to_string e))

let lexers_agree src =
  lex_outcome Syntax.Lexer.tokenize src = lex_outcome Lexer_oracle.tokenize src

let test_lexer_oracle_corpus () =
  List.iter
    (fun file ->
      Alcotest.(check bool) file true (lexers_agree (Test_programs.read_file file)))
    (Test_analysis.corpus_files ());
  for seed = 1 to 50 do
    let text =
      Pathlog.Randprog.generate
        { Pathlog.Randprog.seed; facts = 10 + seed; rules = 1 + (seed mod 7) }
    in
    Alcotest.(check bool) (Printf.sprintf "randprog %d" seed) true
      (lexers_agree text)
  done

let lexer_oracle_bytes =
  QCheck.Test.make ~name:"sentinel lexer = oracle on random bytes"
    ~count:1000
    QCheck.(string_gen_of_size (Gen.int_range 0 80) Gen.char)
    lexers_agree

let lexer_oracle_fragments =
  let fragment =
    QCheck.Gen.oneofl
      [ "x"; "Y_1"; "42"; "-7"; "-"; "."; ".."; ".("; ".\""; "["; "]"; "{";
        "}"; "("; ")"; "->"; "->>"; "="; "=>"; "=>>"; "<"; "<-"; ":"; "::";
        "?"; "?-"; "*"; "+"; "|"; ","; ";"; "@"; "not"; " "; "\t"; "\r";
        "\n"; "%c"; "%\000"; "\000"; "\""; "\\"; "\\n"; "\\q";
        "\\\000"; "99999999999999999999"; "\xff" ]
  in
  QCheck.Test.make ~name:"sentinel lexer = oracle on token soup" ~count:1000
    (QCheck.make
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 30) fragment)))
    lexers_agree

let suite =
  [
    Alcotest.test_case "lexer dot disambiguation" `Quick
      test_lexer_dot_disambiguation;
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "sentinel lexer = oracle, corpus and Randprog" `Quick
      test_lexer_oracle_corpus;
    qtest lexer_oracle_bytes;
    qtest lexer_oracle_fragments;
    Alcotest.test_case "parse paper reference" `Quick test_parse_paper_reference;
    Alcotest.test_case "parse left assoc" `Quick test_parse_left_assoc;
    Alcotest.test_case "parse paren class" `Quick test_parse_paren_class;
    Alcotest.test_case "parse filter sugar" `Quick test_parse_semicolon_filters;
    Alcotest.test_case "parse selector sugar" `Quick test_parse_selector_sugar;
    Alcotest.test_case "parse args" `Quick test_parse_args;
    Alcotest.test_case "parse set arg" `Quick test_parse_set_arg;
    Alcotest.test_case "parse rule and query" `Quick test_parse_rule_and_query;
    Alcotest.test_case "parse explicit set" `Quick test_parse_explicit_set;
    Alcotest.test_case "parse higher order" `Quick test_parse_higher_order;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse program" `Quick test_parse_program;
    Alcotest.test_case "roundtrip catalogue" `Quick test_roundtrip_catalogue;
    qtest roundtrip_property;
    Alcotest.test_case "scalarity (Definition 2)" `Quick test_scalarity;
    Alcotest.test_case "wellformed accepts" `Quick test_wellformed_accepts;
    Alcotest.test_case "wellformed rejects (Definition 3)" `Quick
      test_wellformed_rejects;
    Alcotest.test_case "head conditions" `Quick test_head_conditions;
    Alcotest.test_case "signature extraction" `Quick test_signature_extraction;
    qtest wellformed_generated;
    qtest parser_total_on_garbage;
    qtest parser_total_on_fragments;
    qtest program_roundtrip;
    Alcotest.test_case "vars order" `Quick vars_of_reference_order;
  ]
