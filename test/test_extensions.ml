(* Extensions beyond the core deductive language: production rules
   (section 2/7 orthogonality claim), the static type lint, model
   persistence, incremental facts and plan explanation. *)

open Helpers
module Program = Pathlog.Program
module Production = Pathlog.Production

(* ------------------------------------------------------------------ *)
(* Production rules *)

let lits = Pathlog.Parser.literals
let reference = Pathlog.Parser.reference

let test_production_basic () =
  let p = load "a : emp[sal -> 10]. b : emp[sal -> 20]." in
  let store = Program.store p in
  let eng =
    Production.create store
      [
        {
          p_name = "mark-rich";
          condition = lits "X : emp[sal -> 20]";
          actions = [ Assert (reference "X : rich") ];
          priority = 0;
        };
      ]
  in
  let fired = Production.run eng in
  Alcotest.(check int) "one firing" 1 fired;
  check_answers "asserted" p "X : rich" [ "b" ]

let test_production_refractoriness () =
  (* the same instantiation never fires twice, even though its condition
     stays true *)
  let p = load "a : emp." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "noop";
          condition = lits "X : emp";
          actions = [ Assert (reference "X : seen") ];
          priority = 0;
        };
      ]
  in
  Alcotest.(check int) "fires once" 1 (Production.run eng);
  Alcotest.(check bool) "quiescent" false (Production.step eng)

let test_production_priority () =
  let p = load "t : trigger." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "low";
          condition = lits "t : trigger";
          actions = [ Message "low" ];
          priority = 1;
        };
        {
          p_name = "high";
          condition = lits "t : trigger";
          actions = [ Message "high" ];
          priority = 5;
        };
      ]
  in
  ignore (Production.run eng);
  let messages =
    List.filter_map (fun (e : Production.event) -> e.e_message)
      (Production.log eng)
  in
  Alcotest.(check (list string)) "priority order" [ "high"; "low" ] messages

let test_production_chaining () =
  (* firings enable further firings: forward chaining to quiescence *)
  let p = load "n0[next -> n1]. n1[next -> n2]. n2[next -> n3]. n0 : reach." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "step";
          condition = lits "X : reach, X[next -> Y]";
          actions = [ Assert (reference "Y : reach") ];
          priority = 0;
        };
      ]
  in
  ignore (Production.run eng);
  check_answers "chained" p "X : reach" [ "n0"; "n1"; "n2"; "n3" ]

let test_production_virtual_objects () =
  (* the assert action creates virtual objects exactly like rule heads *)
  let p = load "joe : person[city -> metropolis]." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "make-address";
          condition = lits "X : person";
          actions = [ Assert (reference "X.address[city -> X.city]") ];
          priority = 0;
        };
      ]
  in
  ignore (Production.run eng);
  check_answers "virtual via production" p "joe.address[city -> C]"
    [ "metropolis" ]

let test_production_message_bindings () =
  let p = load "a : emp. b : emp." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "notify";
          condition = lits "X : emp";
          actions = [ Message "seen" ];
          priority = 0;
        };
      ]
  in
  ignore (Production.run eng);
  let with_bindings =
    List.filter (fun (e : Production.event) -> e.e_message = Some "seen")
      (Production.log eng)
  in
  Alcotest.(check int) "two notifications" 2 (List.length with_bindings);
  List.iter
    (fun (e : Production.event) ->
      Alcotest.(check (list string)) "binds X" [ "X" ]
        (List.map fst e.e_bindings))
    with_bindings

let test_production_rejects_bad_rules () =
  let p = load "a : emp." in
  let bad () =
    Production.create (Program.store p)
      [
        {
          p_name = "bad";
          condition = lits "X : emp";
          actions = [ Assert (reference "Y : rich") ];
          (* Y unbound *)
          priority = 0;
        };
      ]
  in
  match bad () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of unsafe production rule"

let test_production_max_steps () =
  let p = load "a : emp. b : emp. c : emp." in
  let eng =
    Production.create (Program.store p)
      [
        {
          p_name = "r";
          condition = lits "X : emp";
          actions = [];
          priority = 0;
        };
      ]
  in
  Alcotest.(check int) "bounded" 2 (Production.run ~max_steps:2 eng)

(* the orthogonality claim: assert-only production rules reach the same
   model as the deductive engine *)
let production_equals_deductive =
  QCheck.Test.make ~name:"production fixpoint = deductive minimal model"
    ~count:15
    QCheck.(int_range 1 100)
    (fun seed ->
      let facts =
        Pathlog.Genealogy.statements
          (Pathlog.Genealogy.Random_forest { people = 10; max_kids = 2; seed })
      in
      (* deductive *)
      let p1 = Program.create (facts @ Pathlog.Genealogy.desc_rules) in
      ignore (Program.run p1);
      let deductive = model p1 in
      (* production: same two rules as assert actions *)
      let p2 = Program.create facts in
      ignore (Program.run p2);
      let eng =
        Production.create (Program.store p2)
          [
            {
              p_name = "base";
              condition = lits "X[kids ->> {Y}]";
              actions = [ Assert (reference "X[desc ->> {Y}]") ];
              priority = 0;
            };
            {
              p_name = "step";
              condition = lits "X..desc[kids ->> {Y}]";
              actions = [ Assert (reference "X[desc ->> {Y}]") ];
              priority = 0;
            };
          ]
      in
      ignore (Production.run eng);
      let production = model p2 in
      deductive = production)

(* ------------------------------------------------------------------ *)
(* Static type lint *)

let test_lint_flags_contradiction () =
  let p =
    Program.of_string
      {|
      employee[boss => employee].
      d1 : dept.
      X[boss -> Y] <- X : employee, Y : dept, X[managedBy -> Y].
      |}
  in
  Alcotest.(check int) "one warning" 1 (List.length (Program.lint_types p))

let test_lint_accepts_consistent () =
  let p =
    Program.of_string
      {|
      employee[boss => employee].
      X[boss -> Y] <- X : employee, Y : employee, X[managedBy -> Y].
      |}
  in
  Alcotest.(check int) "no warning" 0 (List.length (Program.lint_types p))

let test_lint_uses_static_hierarchy () =
  (* Y : manager and manager :: employee satisfies boss => employee *)
  let p =
    Program.of_string
      {|
      manager :: employee.
      employee[boss => employee].
      X[boss -> Y] <- X : employee, Y : manager, X[managedBy -> Y].
      |}
  in
  Alcotest.(check int) "hierarchy-closed" 0 (List.length (Program.lint_types p))

let test_lint_silent_when_unknown () =
  (* no class information about Y: the lint stays quiet *)
  let p =
    Program.of_string
      {|
      employee[boss => employee].
      X[boss -> Y] <- X : employee, X[managedBy -> Y].
      |}
  in
  Alcotest.(check int) "no info no warning" 0
    (List.length (Program.lint_types p))

(* ------------------------------------------------------------------ *)
(* Persistence: dump/reload round-trip *)

let test_dump_reload_roundtrip () =
  let p =
    load
      {|
      alice : person[street -> mainSt; city -> springfield].
      bob : person[street -> elmSt; city -> springfield].
      X.address[street -> X.street; city -> X.city] <- X : person.
      |}
  in
  let p2 = load (String.concat "\n" (model p)) in
  Alcotest.(check (list string)) "model fixpoint" (model p) (model p2);
  (* skolems reload as the same path-denoted objects *)
  check_answers "virtual object survives" p2 "alice.address[street -> S]"
    [ "mainSt" ]

(* Virtual objects in method, class and argument position, beside the
   genealogy closure: Program 6.4's hilog [(M.tc)] rules, an asserted
   class [(kids.tc)], a head path [X.(kids.tc)] and [@(...)] arguments
   holding virtual objects. *)
let virtual_positions =
  {|
  X[(M.tc) ->> {Y}] <- X[M ->> {Y}].
  X[(M.tc) ->> {Y}] <- X..(M.tc)[M ->> {Y}].
  o : (kids.tc).
  o[(kids.tc) ->> {p0}].
  X.(kids.tc)[v -> 1] <- X[kids ->> {Y}].
  X[via@(X.(kids.tc), Y) ->> {Y}] <- X[(desc.tc) ->> {Y}].
  |}

(* Both dumps reload to the same model at jobs 1 and 4: the model
   renderer's lines reload to themselves, and [Live.dump_source]
   (extensional facts plus rules) rebuilds the same model. *)
let dump_reload_random =
  QCheck.Test.make ~name:"dump/reload is a fixpoint (random genealogies)"
    ~count:15
    QCheck.(int_range 1 100)
    (fun seed ->
      let genealogy =
        Pathlog.Pretty.program_to_string
          (Pathlog.Genealogy.statements
             (Pathlog.Genealogy.Random_forest
                { people = 12; max_kids = 3; seed })
          @ Pathlog.Genealogy.desc_rules)
      in
      List.for_all
        (fun jobs ->
          let config = { Pathlog.Fixpoint.default_config with jobs } in
          let load text =
            let p = Program.of_string ~config text in
            ignore (Program.run p);
            p
          in
          let p = load (genealogy ^ virtual_positions) in
          let lines = model p in
          let source = Pathlog.Live.dump_source (Pathlog.Live.attach p) in
          model (load (String.concat "\n" lines)) = lines
          && model (load source) = lines)
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Incremental facts: an ASSERT batch on a live program *)

let desc_text =
  {|
  X[desc ->> {Y}] <- X[kids ->> {Y}].
  X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
  |}

let test_assert_fact_incremental () =
  let p = load ("a[kids ->> {b}]." ^ desc_text) in
  check_answers "before" p "a[desc ->> {X}]" [ "b" ];
  let live = Pathlog.Live.attach p in
  let s = Pathlog.Live.assert_batch live "b[kids ->> {c}]." in
  Alcotest.(check (list string))
    "one tuple and its consequences"
    [ "a[desc ->> {c}]"; "b[desc ->> {c}]"; "b[kids ->> {c}]" ]
    s.added;
  check_answers "after" p "a[desc ->> {X}]" [ "b"; "c" ];
  (* incremental = from scratch *)
  let fresh = load ("a[kids ->> {b}]. b[kids ->> {c}]." ^ desc_text) in
  Alcotest.(check (list string)) "same model" (model fresh) (model p)

let test_assert_rejects_nonground () =
  let live = Pathlog.Live.attach (load "a : c.") in
  match Pathlog.Live.assert_batch live "X : c." with
  | exception Pathlog.Live.Rejected _ -> ()
  | _ -> Alcotest.fail "expected rejection of non-ground fact"

(* ------------------------------------------------------------------ *)
(* Plan explanation *)

let test_explain_shapes () =
  let p =
    load
      {|
      m1 : manager. m1[vehicles ->> {v1}]. v1[color -> red].
      |}
  in
  let plan =
    Program.explain_string p "X : manager..vehicles[color -> red]"
  in
  Alcotest.(check int) "three steps" 3 (List.length plan);
  Alcotest.(check bool) "mentions an access path" true
    (List.for_all (fun line -> contains ~sub:"[" line) plan)

let test_explain_matches_query () =
  (* explain never changes answers; sanity on the manager query *)
  let p =
    Program.create (Pathlog.Company.statements (Pathlog.Company.scaled 30))
  in
  ignore (Program.run p);
  let q =
    "X : manager..vehicles[color -> red].producedBy[city -> city1; \
     president -> X]"
  in
  let before = answers p q in
  let _plan = Program.explain_string p q in
  Alcotest.(check (list string)) "unchanged" before (answers p q)

let suite =
  [
    Alcotest.test_case "production basic" `Quick test_production_basic;
    Alcotest.test_case "production refractoriness" `Quick
      test_production_refractoriness;
    Alcotest.test_case "production priority" `Quick test_production_priority;
    Alcotest.test_case "production chaining" `Quick test_production_chaining;
    Alcotest.test_case "production virtual objects" `Quick
      test_production_virtual_objects;
    Alcotest.test_case "production message bindings" `Quick
      test_production_message_bindings;
    Alcotest.test_case "production rejects bad rules" `Quick
      test_production_rejects_bad_rules;
    Alcotest.test_case "production max steps" `Quick test_production_max_steps;
    qtest production_equals_deductive;
    Alcotest.test_case "lint flags contradiction" `Quick
      test_lint_flags_contradiction;
    Alcotest.test_case "lint accepts consistent" `Quick
      test_lint_accepts_consistent;
    Alcotest.test_case "lint uses static hierarchy" `Quick
      test_lint_uses_static_hierarchy;
    Alcotest.test_case "lint silent when unknown" `Quick
      test_lint_silent_when_unknown;
    Alcotest.test_case "dump/reload roundtrip" `Quick
      test_dump_reload_roundtrip;
    qtest dump_reload_random;
    Alcotest.test_case "assert fact incremental" `Quick
      test_assert_fact_incremental;
    Alcotest.test_case "assert rejects nonground" `Quick
      test_assert_rejects_nonground;
    Alcotest.test_case "explain shapes" `Quick test_explain_shapes;
    Alcotest.test_case "explain matches query" `Quick
      test_explain_matches_query;
  ]

(* ------------------------------------------------------------------ *)
(* What-if analysis: a Live batch on a scratch copy, reloaded from the
   live source, so the model being asked about is never touched. *)

let tc_text = "peter[kids ->> {tim, mary}]. tim[kids ->> {sally}]." ^ desc_text

let scratch_copy live =
  Pathlog.Live.attach
    (Program.of_string (Pathlog.Live.dump_source live))

(* The model facts the batch would add and remove. *)
let what_if ?(retract = false) live text =
  let apply =
    if retract then Pathlog.Live.retract_batch else Pathlog.Live.assert_batch
  in
  let s = apply (scratch_copy live) text in
  (s.added, s.removed)

let test_what_if_add () =
  let live = Pathlog.Live.attach (load tc_text) in
  let added, removed = what_if live "sally[kids ->> {zoe}]." in
  Alcotest.(check (list string)) "nothing removed" [] removed;
  (* new base fact + derived desc facts for sally, tim and peter *)
  Alcotest.(check bool) "kids fact added" true
    (List.mem "sally[kids ->> {zoe}]" added);
  Alcotest.(check bool) "peter's closure extended" true
    (List.mem "peter[desc ->> {zoe}]" added);
  Alcotest.(check int) "exactly 4 new facts" 4 (List.length added)

let test_what_if_retract () =
  let live = Pathlog.Live.attach (load tc_text) in
  let added, removed =
    what_if ~retract:true live "tim[kids ->> {sally}]."
  in
  Alcotest.(check (list string)) "nothing added" [] added;
  Alcotest.(check bool) "base fact gone" true
    (List.mem "tim[kids ->> {sally}]" removed);
  Alcotest.(check bool) "derived support gone" true
    (List.mem "peter[desc ->> {sally}]" removed);
  Alcotest.(check bool) "unrelated facts kept" false
    (List.mem "peter[desc ->> {tim}]" removed)

let test_what_if_does_not_mutate () =
  let live = Pathlog.Live.attach (load tc_text) in
  let before = model (Pathlog.Live.program live) in
  let source = Pathlog.Live.dump_source live in
  ignore (what_if live "x[kids ->> {y}].");
  Alcotest.(check (list string)) "base model untouched" before
    (model (Pathlog.Live.program live));
  Alcotest.(check string) "base source untouched" source
    (Pathlog.Live.dump_source live)

let test_rebuild_composes () =
  let live = Pathlog.Live.attach (load tc_text) in
  let copy = scratch_copy live in
  ignore (Pathlog.Live.assert_batch copy "sally[kids ->> {zoe}].");
  let copy = scratch_copy copy in
  ignore (Pathlog.Live.retract_batch copy "sally[kids ->> {zoe}].");
  Alcotest.(check (list string)) "add then retract = identity"
    (model (Pathlog.Live.program live))
    (model (Pathlog.Live.program copy))

let suite =
  suite
  @ [
      Alcotest.test_case "what-if add" `Quick test_what_if_add;
      Alcotest.test_case "what-if retract" `Quick test_what_if_retract;
      Alcotest.test_case "what-if does not mutate" `Quick
        test_what_if_does_not_mutate;
      Alcotest.test_case "rebuild composes" `Quick test_rebuild_composes;
    ]
