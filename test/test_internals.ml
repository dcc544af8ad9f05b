(* White-box tests of internal structures: flattening details, rule
   dependency analysis, stratification, IR printing, plan explanation and
   the AST builders. *)

open Helpers
module Ir = Pathlog.Ir
module Flatten = Pathlog.Flatten
module Rule = Pathlog.Rule
module Program = Pathlog.Program

let store_of p = Program.store p

let compile p src =
  match Pathlog.Parser.statement src with
  | Syntax.Ast.Rule r -> Rule.compile (store_of p) r
  | Syntax.Ast.Query _ -> Alcotest.fail "expected a rule"

(* ------------------------------------------------------------------ *)
(* Flatten internals *)

let test_subset_outer_and_locals () =
  let p = load "x[m -> y]." in
  let q =
    Flatten.literals (store_of p)
      (Pathlog.Parser.literals "W[friends ->> V..assistants]")
  in
  match q.atoms with
  | [ Ir.A_subset s ] ->
    (* V is named (outer); the member slot is local *)
    let v_slot = List.assoc "V" q.named in
    Alcotest.(check bool) "V is outer" true (List.mem v_slot s.s_outer);
    (match s.member with
    | Ir.V m -> Alcotest.(check bool) "member is local" true (List.mem m s.s_locals)
    | Ir.Const _ -> Alcotest.fail "member should be a variable");
    Alcotest.(check int) "one sub atom" 1 (List.length s.sub_atoms)
  | _ -> Alcotest.fail "expected a single subset atom"

let test_negation_outer () =
  let p = load "x[m -> y]." in
  let q =
    Flatten.literals (store_of p)
      (Pathlog.Parser.literals "X[m -> R], not X[m -> y]")
  in
  match q.atoms with
  | [ Ir.A_scalar _; Ir.A_neg n ] ->
    let x_slot = List.assoc "X" q.named in
    Alcotest.(check bool) "X outer in negation" true
      (List.mem x_slot n.n_outer)
  | _ -> Alcotest.fail "expected scalar + negation"

let test_shared_slots_across_literals () =
  let p = load "x[m -> y]." in
  let q =
    Flatten.literals (store_of p)
      (Pathlog.Parser.literals "X[a -> Y], Y[b -> Z], Z[c -> X]")
  in
  Alcotest.(check int) "three named vars" 3 (List.length q.named);
  Alcotest.(check int) "three atoms" 3 (List.length q.atoms)

(* ------------------------------------------------------------------ *)
(* Rule dependency analysis *)

let test_rule_defines_and_reads () =
  let p = load "x[m -> y]." in
  let r = compile p "X[power -> Y] <- X : automobile.engine[power -> Y]." in
  let store = store_of p in
  let power = Pathlog.Store.name store "power" in
  let engine = Pathlog.Store.name store "engine" in
  let automobile = Pathlog.Store.name store "automobile" in
  Alcotest.(check bool) "defines power" true
    (List.mem (Ir.R_scalar power) r.defines);
  Alcotest.(check bool) "reads engine" true
    (List.mem (Ir.R_scalar engine) r.reads);
  Alcotest.(check bool) "reads isa automobile" true
    (List.mem (Ir.R_isa_c automobile) r.reads);
  Alcotest.(check bool) "reads power (its own relation)" true
    (List.mem (Ir.R_scalar power) r.reads);
  Alcotest.(check (list string)) "no completion reads" []
    (List.map (fun _ -> "x") r.completion_reads);
  Alcotest.(check bool) "not any-reading" false r.reads_any

let test_rule_head_path_defines () =
  let p = load "x[m -> y]." in
  let r = compile p "X.boss[worksFor -> D] <- X : emp[worksFor -> D]." in
  let store = store_of p in
  let boss = Pathlog.Store.name store "boss" in
  let works = Pathlog.Store.name store "worksFor" in
  Alcotest.(check bool) "defines boss (skolemisable)" true
    (List.mem (Ir.R_scalar boss) r.defines);
  Alcotest.(check bool) "defines worksFor" true
    (List.mem (Ir.R_scalar works) r.defines)

let test_rule_higher_order_reads_any () =
  let p = load "x[m -> y]." in
  let r = compile p "X[(M.tc) ->> {Y}] <- X[M ->> {Y}]." in
  Alcotest.(check bool) "reads any" true r.reads_any;
  Alcotest.(check bool) "defines any" true (List.mem Ir.R_any r.defines)

let test_rule_completion_reads () =
  let p = load "x[m -> y]." in
  let r = compile p "ok[is -> yes] <- p2[friends ->> p1..assistants]." in
  let store = store_of p in
  let assistants = Pathlog.Store.name store "assistants" in
  let friends = Pathlog.Store.name store "friends" in
  Alcotest.(check bool) "completion-reads assistants" true
    (List.mem (Ir.R_set assistants) r.completion_reads);
  Alcotest.(check bool) "reads friends (monotone)" true
    (List.mem (Ir.R_set friends) r.reads);
  Alcotest.(check bool) "friends is not a completion read" false
    (List.mem (Ir.R_set friends) r.completion_reads)

let test_rule_class_edges () =
  let p = load "x[m -> y]." in
  let r = compile p "manager :: employee." in
  Alcotest.(check int) "one static class edge" 1 (List.length r.class_edges)

let test_seedable_atoms () =
  let p = load "x[m -> y]." in
  let r = compile p "X[d ->> {Y}] <- X[k ->> {Y}], X : c, not X[z -> w]." in
  (* member and isa atoms are seedable; the negation is not *)
  Alcotest.(check int) "two seedable" 2 (List.length r.seedable)

(* ------------------------------------------------------------------ *)
(* IR printing (debug surface) *)

let test_ir_pp () =
  let p = load "x[m -> y]." in
  let store = store_of p in
  let q =
    Flatten.literals store
      (Pathlog.Parser.literals "X : c, X[m -> Y], not X[z -> w]")
  in
  let u = Pathlog.Store.universe store in
  let text = Format.asprintf "%a" (Ir.pp_query u) q in
  Alcotest.(check bool) "shows isa" true (contains ~sub:"isa(" text);
  Alcotest.(check bool) "shows scalar" true (contains ~sub:"scalar(" text);
  Alcotest.(check bool) "shows negation" true (contains ~sub:"not (" text);
  Alcotest.(check bool) "shows named vars" true (contains ~sub:"X=_" text)

(* ------------------------------------------------------------------ *)
(* Plan explanation *)

let test_explain_covers_all_atoms () =
  let p = load "a[kids ->> {b}]." in
  let store = store_of p in
  let q =
    Flatten.literals store
      (Pathlog.Parser.literals
         "X[kids ->> {Y}], not Y[kids ->> {X}], X[friends ->> a..kids]")
  in
  Alcotest.(check int) "one line per atom" (List.length q.atoms)
    (List.length (Pathlog.Solve.explain store q))

(* ------------------------------------------------------------------ *)
(* AST builders mirror the parser *)

let test_builders_equal_parser () =
  let open Syntax.Build in
  let built =
    rule
      (var "X" |->> ("desc", [ var "Y" ]))
      [ pos (dotdot (var "X") "desc" |->> ("kids", [ var "Y" ])) ]
  in
  let parsed =
    Pathlog.Parser.statement "X[desc ->> {Y}] <- X..desc[kids ->> {Y}]."
  in
  Alcotest.(check bool) "rule equal" true
    (Syntax.Ast.equal_statement built parsed);
  let built_fact =
    fact (obj "e1" @: "employee" |-> ("age", int 30) |-> ("city", obj "ny"))
  in
  let parsed_fact =
    Pathlog.Parser.statement "e1 : employee[age -> 30; city -> ny]."
  in
  Alcotest.(check bool) "fact equal" true
    (Syntax.Ast.equal_statement built_fact parsed_fact);
  let built_sig = scalar_sig "employee" "age" "integer" in
  let parsed_sig = Pathlog.Parser.statement "employee[age => integer]." in
  Alcotest.(check bool) "signature equal" true
    (Syntax.Ast.equal_statement built_sig parsed_sig)

let test_builder_set_sig_and_paren () =
  let open Syntax.Build in
  let built = set_sig "employee" "vehicles" "vehicle" in
  let parsed =
    Pathlog.Parser.statement "employee[vehicles =>> vehicle]."
  in
  Alcotest.(check bool) "set signature equal" true
    (Syntax.Ast.equal_statement built parsed);
  let built_ho =
    fact
      (Syntax.Ast.Filter
         {
           f_recv = var "X";
           f_meth = paren (dot (var "M") "tc");
           f_args = [];
           f_rhs = Rset_enum [ var "Y" ];
         })
  in
  ignore built_ho  (* just type-checks the higher-order shape *)

(* ------------------------------------------------------------------ *)
(* Fixpoint statistics *)

let test_fixpoint_stats_fields () =
  let p =
    Program.of_string
      {|
      a[kids ->> {b}]. b[kids ->> {c}].
      X[desc ->> {Y}] <- X[kids ->> {Y}].
      X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
      |}
  in
  let s = Program.run p in
  Alcotest.(check int) "one stratum" 1 s.strata;
  Alcotest.(check bool) "some rounds" true (s.rounds >= 2);
  Alcotest.(check bool) "firings >= insertions" true
    (s.firings >= s.insertions);
  Alcotest.(check int) "insertions = model tuples" 5 s.insertions;
  let text = Format.asprintf "%a" Pathlog.Fixpoint.pp_stats s in
  Alcotest.(check bool) "stats printable" true (contains ~sub:"rounds" text)

let suite =
  [
    Alcotest.test_case "subset outer/locals" `Quick test_subset_outer_and_locals;
    Alcotest.test_case "negation outer" `Quick test_negation_outer;
    Alcotest.test_case "shared slots" `Quick test_shared_slots_across_literals;
    Alcotest.test_case "rule defines/reads" `Quick test_rule_defines_and_reads;
    Alcotest.test_case "head path defines" `Quick test_rule_head_path_defines;
    Alcotest.test_case "higher-order reads any" `Quick
      test_rule_higher_order_reads_any;
    Alcotest.test_case "completion reads" `Quick test_rule_completion_reads;
    Alcotest.test_case "class edges" `Quick test_rule_class_edges;
    Alcotest.test_case "seedable atoms" `Quick test_seedable_atoms;
    Alcotest.test_case "ir pp" `Quick test_ir_pp;
    Alcotest.test_case "explain covers atoms" `Quick
      test_explain_covers_all_atoms;
    Alcotest.test_case "builders equal parser" `Quick
      test_builders_equal_parser;
    Alcotest.test_case "builder set sig / paren" `Quick
      test_builder_set_sig_and_paren;
    Alcotest.test_case "fixpoint stats" `Quick test_fixpoint_stats_fields;
  ]
