(* Provenance recording and proof trees. *)

open Helpers
module Program = Pathlog.Program
module Provenance = Pathlog.Provenance
module Fact = Pathlog.Fact

let tc_program () =
  load
    {|
    peter[kids ->> {tim, mary}].
    tim[kids ->> {sally}].
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
    |}

let test_extensional_leaf () =
  let p = tc_program () in
  match Program.why_string p "peter[kids ->> {tim}]" with
  | Some { source = Extensional; support = []; _ } -> ()
  | Some _ -> Alcotest.fail "expected an extensional leaf"
  | None -> Alcotest.fail "fact not recorded"

let test_derived_one_step () =
  let p = tc_program () in
  match Program.why_string p "peter[desc ->> {tim}]" with
  | Some { source = Derived { rule; _ }; support = [ leaf ]; _ } ->
    Alcotest.(check bool) "base rule" true
      (contains ~sub:"X[kids ->> {Y}]"
         (Pathlog.Pretty.rule_to_string rule.source));
    Alcotest.(check (list string)) "env vars" [ "X"; "Y" ]
      (List.sort compare (List.map fst rule.body.named));
    (match leaf.source with
    | Extensional -> ()
    | Derived _ -> Alcotest.fail "support should be the extensional fact")
  | Some _ -> Alcotest.fail "expected one support fact"
  | None -> Alcotest.fail "fact not recorded"

let test_derived_recursive_chain () =
  let p = tc_program () in
  match Program.why_string p "peter[desc ->> {sally}]" with
  | Some proof ->
    let rec depth (pr : Provenance.proof) =
      1 + List.fold_left (fun acc c -> max acc (depth c)) 0 pr.support
    in
    Alcotest.(check bool) "recursive proof at least 3 deep" true
      (depth proof >= 3);
    (* the printed tree mentions both rules and both base facts *)
    let text =
      Format.asprintf "%a"
        (Provenance.pp_proof (Program.universe p))
        proof
    in
    Alcotest.(check bool) "mentions recursive rule" true
      (contains ~sub:"X..desc[kids ->> {Y}]" text);
    Alcotest.(check bool) "mentions tim's kids" true
      (contains ~sub:"tim[kids ->> {sally}]   (fact)" text)
  | None -> Alcotest.fail "fact not recorded"

let test_isa_support_chain () =
  let p =
    load
      {|
      automobile :: vehicle.
      a1 : automobile.
      X : wheeled <- X : vehicle.
      |}
  in
  (* a1 : wheeled is derived via the transitive membership a1 : vehicle,
     whose support is the two direct edges *)
  match Program.why_string p "a1 : wheeled" with
  | Some proof ->
    let text =
      Format.asprintf "%a" (Provenance.pp_proof (Program.universe p)) proof
    in
    Alcotest.(check bool) "edge a1:automobile in support" true
      (contains ~sub:"a1 : automobile" text);
    Alcotest.(check bool) "edge automobile:vehicle in support" true
      (contains ~sub:"automobile : vehicle" text)
  | None -> Alcotest.fail "fact not recorded"

let test_skolem_provenance () =
  let p =
    load
      {|
      joe : person[city -> metropolis].
      X.address[city -> X.city] <- X : person.
      |}
  in
  match Program.why_string p "joe.address[city -> metropolis]" with
  | Some { source = Derived { rule; _ }; _ } ->
    Alcotest.(check bool) "derived by the address rule" true
      (contains ~sub:"X.address" (Pathlog.Pretty.rule_to_string rule.source))
  | Some { source = Extensional; _ } -> Alcotest.fail "should be derived"
  | None -> Alcotest.fail "fact not recorded"

let test_why_unknown_fact () =
  let p = tc_program () in
  Alcotest.(check bool) "unknown fact" true
    (Program.why_string p "mary[kids ->> {peter}]" = None)

let test_why_rejects_open_reference () =
  let p = tc_program () in
  match Program.why_string p "X[kids ->> {Y}]" with
  | exception Program.Invalid _ -> ()
  | _ -> Alcotest.fail "expected rejection of non-ground why"

let test_fact_of_reference () =
  let p = tc_program () in
  let store = Program.store p in
  let fact src = Fact.of_reference store (Pathlog.Parser.reference src) in
  (match fact "peter[kids ->> {tim}]" with
  | Some (Fact.F_set _) -> ()
  | _ -> Alcotest.fail "set fact");
  (match fact "a : c" with
  | Some (Fact.F_isa _) -> ()
  | _ -> Alcotest.fail "isa fact");
  (match fact "x[m -> y]" with
  | Some (Fact.F_scalar _) -> ()
  | _ -> Alcotest.fail "scalar fact");
  (* explicit sets with two elements are not a single fact *)
  (match fact "x[m ->> {a, b}]" with
  | None -> ()
  | Some _ -> Alcotest.fail "two-element set is not one fact");
  match fact "X : c" with
  | None -> ()
  | Some _ -> Alcotest.fail "variables are not ground"

let test_provenance_size () =
  let p = tc_program () in
  (* kids: 3 tuples, desc: 4 derived *)
  Alcotest.(check int) "all inserted tuples recorded" 7
    (Provenance.size (Program.provenance p))

let test_asserted_fact_provenance () =
  let p = load "a : c." in
  let live = Pathlog.Live.attach p in
  ignore (Pathlog.Live.assert_batch live "b : c." : Pathlog.Live.batch_stats);
  match Program.why_string p "b : c" with
  | Some { source = Extensional; _ } -> ()
  | _ -> Alcotest.fail "incrementally added fact should be extensional"

(* Every derived fact in a random-program model has a proof tree whose
   leaves are extensional. *)
let all_facts_explainable =
  QCheck.Test.make ~name:"every model fact has a well-founded proof"
    ~count:10
    QCheck.(int_range 1 50)
    (fun seed ->
      let p =
        Program.create
          (Pathlog.Genealogy.statements
             (Pathlog.Genealogy.Random_forest
                { people = 8; max_kids = 2; seed })
          @ Pathlog.Genealogy.desc_rules)
      in
      ignore (Program.run p);
      let store = Program.store p in
      let ok = ref true in
      let check_fact fact =
        match Provenance.explain store (Program.provenance p) fact with
        | None -> ok := false
        | Some proof ->
          let rec leaves_extensional (pr : Provenance.proof) =
            match (pr.source, pr.support) with
            | Provenance.Extensional, [] -> true
            | Provenance.Extensional, _ :: _ -> false
            | Provenance.Derived _, children ->
              children <> [] && List.for_all leaves_extensional children
          in
          if not (leaves_extensional proof) then ok := false
      in
      List.iter
        (fun m ->
          Oodb.Vec.iter
            (fun (e : Pathlog.Store.mentry) ->
              check_fact
                (Fact.F_set
                   { meth = m; recv = e.recv; args = e.args; res = e.res }))
            (Pathlog.Store.set_bucket store m))
        (Pathlog.Store.set_meths store);
      !ok)

let suite =
  [
    Alcotest.test_case "extensional leaf" `Quick test_extensional_leaf;
    Alcotest.test_case "derived one step" `Quick test_derived_one_step;
    Alcotest.test_case "derived recursive chain" `Quick
      test_derived_recursive_chain;
    Alcotest.test_case "isa support chain" `Quick test_isa_support_chain;
    Alcotest.test_case "skolem provenance" `Quick test_skolem_provenance;
    Alcotest.test_case "why unknown fact" `Quick test_why_unknown_fact;
    Alcotest.test_case "why rejects open reference" `Quick
      test_why_rejects_open_reference;
    Alcotest.test_case "fact of reference" `Quick test_fact_of_reference;
    Alcotest.test_case "provenance size" `Quick test_provenance_size;
    Alcotest.test_case "asserted fact provenance" `Quick
      test_asserted_fact_provenance;
    qtest all_facts_explainable;
  ]
