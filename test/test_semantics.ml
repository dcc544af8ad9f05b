(* Valuation (Definition 4), entailment (Definition 5), flattening and the
   solver — including differential tests of the three evaluators. *)

open Helpers
module Ir = Pathlog.Ir
module Valuation = Pathlog.Valuation
module Entail = Pathlog.Entail
module Flatten = Pathlog.Flatten
module Solve = Pathlog.Solve
module Conjunctive = Pathlog.Conjunctive
module Set = Pathlog.Obj_id.Set

(* A small world shared by the valuation tests (facts only). *)
let world () =
  load
    {|
    automobile :: vehicle.
    john : employee[age -> 30; city -> newYork].
    john[vehicles ->> {a1, v1}].
    a1 : automobile[cylinders -> 4; color -> red].
    v1 : vehicle[color -> blue].
    mary : employee[age -> 25; spouse -> john].
    p1[assistants ->> {x1, x2}].
    x1[salary -> 1000]. x2[salary -> 900].
    x1[projects ->> {prA}]. x2[projects ->> {prA, prB}].
    john[salary@(1994) -> 100].
    |}

let eval_strings p env_list src =
  let store = Pathlog.Program.store p in
  let u = Pathlog.Store.universe store in
  let env =
    Valuation.env_of_list
      (List.map (fun (v, name) -> (v, Pathlog.Store.name store name)) env_list)
  in
  Valuation.eval store env (Pathlog.Parser.reference src)
  |> Set.elements
  |> List.map (Pathlog.Universe.to_string u)
  |> List.sort compare

let check_eval p ?(env = []) src expected =
  Alcotest.(check (list string))
    src
    (List.sort compare expected)
    (eval_strings p env src)

(* ------------------------------------------------------------------ *)

let test_valuation_simple () =
  let p = world () in
  check_eval p "john" [ "john" ];
  check_eval p "john.age" [ "30" ];
  check_eval p "john.spouse" [];  (* undefined: empty, hence false *)
  check_eval p "mary.spouse.age" [ "30" ];
  check_eval p "john..vehicles" [ "a1"; "v1" ]

let test_valuation_sets () =
  let p = world () in
  (* scalar method mapped over a set (section 4.2) *)
  check_eval p "p1..assistants.salary" [ "1000"; "900" ];
  (* set method over a set: union, no nested sets *)
  check_eval p "p1..assistants..projects" [ "prA"; "prB" ];
  (* filter restricting a set *)
  check_eval p "p1..assistants[salary -> 1000]" [ "x1" ]

let test_valuation_molecules () =
  let p = world () in
  check_eval p "john[age -> 30]" [ "john" ];
  check_eval p "john[age -> 31]" [];
  check_eval p "john[age -> mary.spouse.age]" [ "john" ];
  check_eval p "a1 : automobile" [ "a1" ];
  check_eval p "a1 : vehicle" [ "a1" ];  (* inheritance *)
  check_eval p "v1 : automobile" [];
  check_eval p "john[vehicles ->> {a1}]" [ "john" ];
  check_eval p "john[vehicles ->> {a1, v1}]" [ "john" ];
  check_eval p "john[vehicles ->> {mary}]" [];
  (* set-reference rhs: subset semantics *)
  check_eval p "john[vehicles ->> john..vehicles]" [ "john" ]

let test_valuation_self () =
  let p = world () in
  check_eval p "john.self" [ "john" ];
  check_eval p "john.self.age" [ "30" ];
  check_eval p "john.age[self -> 30]" [ "30" ];
  check_eval p "john..vehicles.self" [ "a1"; "v1" ]

let test_valuation_args () =
  let p = world () in
  check_eval p "john.salary@(1994)" [ "100" ];
  check_eval p "john.salary@(1995)" []

let test_valuation_two_dim () =
  let p = world () in
  check_eval p
    "john : employee[age -> 30]..vehicles : automobile[cylinders -> 4].color"
    [ "red" ];
  check_eval p
    "john : employee[age -> 31]..vehicles : automobile[cylinders -> 4].color"
    []

let test_valuation_env () =
  let p = world () in
  check_eval p ~env:[ ("X", "john") ] "X.age" [ "30" ];
  check_eval p ~env:[ ("X", "mary") ] "X.age" [ "25" ];
  match eval_strings p [] "X.age" with
  | exception Valuation.Unbound_variable "X" -> ()
  | _ -> Alcotest.fail "expected unbound variable"

let test_entailment () =
  let p = world () in
  let store = Pathlog.Program.store p in
  let env = Valuation.Env.empty in
  let e src = Entail.reference store env (Pathlog.Parser.reference src) in
  Alcotest.(check bool) "john.age entailed" true (e "john.age");
  Alcotest.(check bool) "bachelor spouse false" false (e "john.spouse");
  Alcotest.(check bool)
    "set ref true if nonempty" true
    (e "p1..assistants[salary -> 1000]");
  Alcotest.(check bool)
    "negation" true
    (Entail.literal store env
       (Syntax.Ast.Neg (Pathlog.Parser.reference "john.spouse")))

let test_rule_holds () =
  let p = world () in
  let store = Pathlog.Program.store p in
  let rule src =
    match Pathlog.Parser.statement src with
    | Syntax.Ast.Rule r -> r
    | Syntax.Ast.Query _ -> assert false
  in
  Alcotest.(check bool)
    "tautology holds" true
    (Entail.rule_holds store (rule "X[age -> A] <- X[age -> A]."));
  Alcotest.(check bool)
    "false rule violated" false
    (Entail.rule_holds store (rule "X[age -> 31] <- X[age -> 30]."));
  match Entail.find_violation store (rule "X[age -> 31] <- X[age -> 30].") with
  | Some (("X", o) :: _) ->
    Alcotest.(check string)
      "witness is john" "john"
      (Pathlog.Universe.to_string (Pathlog.Program.universe p) o)
  | _ -> Alcotest.fail "expected a violation witness"

(* ------------------------------------------------------------------ *)
(* Flattening *)

let test_flatten_shapes () =
  let p = world () in
  let store = Pathlog.Program.store p in
  let flat src =
    let q, _ = Flatten.reference store (Pathlog.Parser.reference src) in
    q
  in
  let atoms src = List.length (flat src).atoms in
  Alcotest.(check int) "name has no atoms" 0 (atoms "john");
  Alcotest.(check int) "path" 1 (atoms "john.age");
  (* isa + age + vehicles + isa + color + the selector equality *)
  Alcotest.(check int) "2-dim reference" 6
    (atoms "X : employee[age -> 30]..vehicles : automobile.color[Z]");
  (* self is compiled away *)
  Alcotest.(check int) "self path free" 0 (atoms "john.self");
  Alcotest.(check int) "self filter is eq" 1 (atoms "john[self -> X]");
  (* subset atom carries a sub-query *)
  let q = flat "p2[friends ->> p1..assistants]" in
  (match q.atoms with
  | [ Ir.A_subset s ] ->
    Alcotest.(check int) "sub atoms" 1 (List.length s.sub_atoms)
  | _ -> Alcotest.fail "expected one subset atom");
  (* named variables keep first-occurrence order *)
  let q = flat "X[a -> Y].b[Z -> X]" in
  Alcotest.(check (list string))
    "named order" [ "X"; "Y"; "Z" ]
    (List.map fst q.named)

let test_flatten_counts_match_paper () =
  (* the paper's query 1.4 needs 2 XSQL paths = 6 flat conditions; the
     PathLog reference 2.1 flattens to exactly those *)
  let p = world () in
  let store = Pathlog.Program.store p in
  Alcotest.(check int)
    "2.1 flattens to 6 conjuncts" 6
    (Pathlog.Translate.conjunct_count store
       (Pathlog.Parser.reference
          "X : employee..vehicles : automobile[cylinders -> 4].color[Z]"))

(* ------------------------------------------------------------------ *)
(* Solver vs valuation vs naive conjunctive: differential testing *)

let query_via_solve p lits =
  let store = Pathlog.Program.store p in
  let q = Flatten.literals store lits in
  sorted_rows (Solve.named_solutions store q)

let query_via_conjunctive p lits =
  let store = Pathlog.Program.store p in
  let q = Flatten.literals store lits in
  sorted_rows (Conjunctive.named_solutions store q)

let query_via_source_order p lits =
  let store = Pathlog.Program.store p in
  let q = Flatten.literals store lits in
  plan_rows ~plan:(identity_plan store q) store q

let catalogue_queries =
  [
    "X : employee";
    "X : vehicle";
    "X.age[Y]";
    "X[age -> 30]";
    "X..vehicles[color -> red]";
    "X : employee..vehicles : automobile[cylinders -> 4].color[Z]";
    "X[salary -> 1000]";
    "p1[assistants ->> {X[salary -> 1000]}]";
    "p2[friends ->> p1..assistants]";
    "X[vehicles ->> {Y}], Y[color -> C]";
    "not john.spouse, john.age[A]";
    "X[M ->> {Y}]";
    "X.age[A], not X[city -> newYork]";
  ]

let test_differential_catalogue () =
  let p = world () in
  List.iter
    (fun src ->
      let lits = Pathlog.Parser.literals src in
      let a = query_via_solve p lits in
      let b = query_via_conjunctive p lits in
      let c = query_via_source_order p lits in
      Alcotest.(check (list (list int))) ("solve=conj: " ^ src) b a;
      Alcotest.(check (list (list int))) ("compiled=source: " ^ src) c a)
    catalogue_queries

(* On random fact bases and random ground references, the solver agrees
   with the direct valuation of Definition 4. *)
let solver_matches_valuation =
  QCheck.Test.make ~name:"solver result set = Definition 4 valuation"
    ~count:100
    QCheck.(pair arbitrary_loadable_base (arbitrary_reference ~allow_vars:false))
    (fun (p, r) ->
      match Pathlog.Wellformed.check_reference r with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let store = Pathlog.Program.store p in
        let expected =
          Valuation.eval store Valuation.Env.empty r |> Set.elements
        in
        let q, result = Flatten.reference store r in
        let got = ref Set.empty in
        Solve.iter store q ~f:(fun binding ->
            match result with
            | Ir.Const o -> got := Set.add o !got
            | Ir.V i -> got := Set.add binding.(i) !got);
        Set.elements !got = expected)

(* Random queries with variables: greedy solver = naive conjunctive. *)
let solver_matches_conjunctive =
  QCheck.Test.make ~name:"greedy solver = naive conjunctive evaluator"
    ~count:60
    QCheck.(pair arbitrary_loadable_base (arbitrary_reference ~allow_vars:true))
    (fun (p, r) ->
      match Pathlog.Wellformed.check_reference r with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let store = Pathlog.Program.store p in
        let q = Flatten.literals store [ Syntax.Ast.Pos r ] in
        (* keep the search bounded *)
        QCheck.assume (q.nvars <= 5);
        sorted_rows (Solve.named_solutions store q)
        = sorted_rows (Conjunctive.named_solutions store q))

(* Every permutation is a sound plan — the claim [compile_plan]'s cache
   rests on. A random permutation of a random query over a random base,
   and of a catalogue query (negation, set inclusion, a variable method)
   over the shared world, must both answer like the naive evaluator. *)
let permuted_plan_matches_conjunctive =
  let world = lazy (world ()) in
  QCheck.Test.make ~name:"permuted plan = naive conjunctive"
    ~count:60
    QCheck.(
      triple arbitrary_loadable_base
        (arbitrary_reference ~allow_vars:true)
        (int_bound 1_000_000))
    (fun (p, r, seed) ->
      let rand = Random.State.make [| seed |] in
      let agrees store q =
        plan_rows ~plan:(random_plan rand store q) store q
        = sorted_rows (Conjunctive.named_solutions store q)
      in
      let src =
        List.nth catalogue_queries (seed mod List.length catalogue_queries)
      in
      let w = Pathlog.Program.store (Lazy.force world) in
      agrees w (Flatten.literals w (Pathlog.Parser.literals src))
      &&
      match Pathlog.Wellformed.check_reference r with
      | Error _ -> true
      | Ok () ->
        let store = Pathlog.Program.store p in
        let q = Flatten.literals store [ Syntax.Ast.Pos r ] in
        (* keep the search bounded *)
        q.nvars > 5 || agrees store q)

let test_solve_limit () =
  let p = world () in
  let store = Pathlog.Program.store p in
  let q = Flatten.literals store (Pathlog.Parser.literals "X.age[A]") in
  Alcotest.(check int)
    "limit 1" 1
    (List.length (Solve.named_solutions ~limit:1 store q));
  Alcotest.(check bool) "satisfiable" true (Solve.satisfiable store q);
  Alcotest.(check int) "count" 2 (Solve.count store q)

let test_solve_unconstrained_variable () =
  let p = load "a[m -> b]." in
  let store = Pathlog.Program.store p in
  let q = Flatten.literals store (Pathlog.Parser.literals "X") in
  (* a bare variable ranges over the whole universe *)
  Alcotest.(check int)
    "universe enumeration"
    (Pathlog.Universe.cardinality (Pathlog.Store.universe store))
    (List.length (Solve.named_solutions store q))

let test_seeded_solve () =
  (* seeds restrict the first atom to the bucket suffix *)
  let p = load "a[m -> r1]. b[m -> r2]. c[m -> r3]." in
  let store = Pathlog.Program.store p in
  let q = Flatten.literals store (Pathlog.Parser.literals "X[m -> Y]") in
  let all = Solve.named_solutions store q in
  Alcotest.(check int) "all three" 3 (List.length all);
  let seeded = ref [] in
  Solve.iter ~seed:{ seed_atom = 0; seed_from = 2 } store q ~f:(fun b ->
      seeded := Array.to_list b :: !seeded);
  Alcotest.(check int) "suffix only" 1 (List.length !seeded)

let suite =
  [
    Alcotest.test_case "valuation simple" `Quick test_valuation_simple;
    Alcotest.test_case "valuation sets" `Quick test_valuation_sets;
    Alcotest.test_case "valuation molecules" `Quick test_valuation_molecules;
    Alcotest.test_case "valuation self" `Quick test_valuation_self;
    Alcotest.test_case "valuation args" `Quick test_valuation_args;
    Alcotest.test_case "valuation two dimensions" `Quick test_valuation_two_dim;
    Alcotest.test_case "valuation env" `Quick test_valuation_env;
    Alcotest.test_case "entailment (Definition 5)" `Quick test_entailment;
    Alcotest.test_case "rule_holds model check" `Quick test_rule_holds;
    Alcotest.test_case "flatten shapes" `Quick test_flatten_shapes;
    Alcotest.test_case "flatten counts (paper 1.4)" `Quick
      test_flatten_counts_match_paper;
    Alcotest.test_case "differential catalogue" `Quick
      test_differential_catalogue;
    qtest solver_matches_valuation;
    qtest solver_matches_conjunctive;
    qtest permuted_plan_matches_conjunctive;
    Alcotest.test_case "solve limit/count" `Quick test_solve_limit;
    Alcotest.test_case "solve unconstrained var" `Quick
      test_solve_unconstrained_variable;
    Alcotest.test_case "seeded solve" `Quick test_seeded_solve;
  ]
