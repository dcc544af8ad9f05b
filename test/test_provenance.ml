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

(* ------------------------------------------------------------------ *)
(* Sources kept in store records = a table keyed by boxed facts *)

module Store = Pathlog.Store
module Live = Pathlog.Live

type op =
  | Insert of int
  | Remove of int
  | Record of int * int
  | Repoint of int * int

(* A small vocabulary, so inserts, removals and re-inserts of one fact
   meet: scalar and set tuples with and without arguments, and class
   edges (a scalar conflict or an isa cycle inserts nothing). *)
let vocabulary st =
  let o = Store.name st in
  let objs = [ o "a"; o "b"; o "c" ] in
  let app meth args recv res = { Fact.meth; recv; args; res } in
  let apps meth args =
    List.concat_map (fun r -> List.map (app meth args r) objs) objs
  in
  Array.of_list
    (List.map
       (fun a -> Fact.F_scalar a)
       (apps (o "m") [] @ apps (o "m") [ o "a" ])
    @ List.map (fun a -> Fact.F_set a) (apps (o "s") [] @ apps (o "s") [ o "b" ])
    @ List.concat_map
        (fun x ->
          List.filter_map
            (fun y -> if x = y then None else Some (Fact.F_isa (x, y)))
            objs)
        objs)

let insert st = function
  | Fact.F_isa (x, y) -> ignore (Store.add_isa st x y : Store.isa_insert)
  | Fact.F_scalar { meth; recv; args; res } ->
    ignore (Store.add_scalar st ~meth ~recv ~args ~res : Store.scalar_insert)
  | Fact.F_set { meth; recv; args; res } ->
    ignore (Store.add_set st ~meth ~recv ~args ~res : Store.set_insert)

let remove st = function
  | Fact.F_isa (x, y) -> Store.remove_isa st x y
  | Fact.F_scalar { meth; recv; args; res } ->
    Store.remove_scalar st ~meth ~recv ~args ~res
  | Fact.F_set { meth; recv; args; res } ->
    Store.remove_set st ~meth ~recv ~args ~res

let in_store st f =
  let found = ref false in
  Fact.iter_live st (fun g -> if Fact.equal f g then found := true);
  !found

let same_source a b =
  match (a, b) with
  | None, None | Some Provenance.Extensional, Some Provenance.Extensional ->
    true
  | Some (Provenance.Derived d), Some (Provenance.Derived d') -> d == d'
  | _ -> false

let op_gen n =
  QCheck.Gen.(
    let fact = int_bound (n - 1) and src = int_bound 3 in
    frequency
      [
        (4, map (fun f -> Insert f) fact);
        (2, map (fun f -> Remove f) fact);
        (3, map2 (fun f s -> Record (f, s)) fact src);
        (2, map2 (fun f s -> Repoint (f, s)) fact src);
      ])

let show_op = function
  | Insert f -> Printf.sprintf "insert %d" f
  | Remove f -> Printf.sprintf "remove %d" f
  | Record (f, s) -> Printf.sprintf "record %d %d" f s
  | Repoint (f, s) -> Printf.sprintf "repoint %d %d" f s

(* Random inserts, removals and re-inserts with record and repoint:
   after every step each fact of the vocabulary looks up the same
   in the store's records as in the oracle, the sizes agree, and the
   store's audit (which checks that dead records hold no source) is
   clean. The oracle forgets a fact on its removal, and records only
   live facts, as the engine does. *)
let store_records_equal_oracle =
  let rule =
    List.hd (Program.rules (load "X[s ->> {Y}] <- X[m -> Y]."))
  in
  let sources =
    Array.init 4 (fun i ->
        if i = 0 then Provenance.Extensional
        else Provenance.Derived { rule; binding = [| i |] })
  in
  let n = Array.length (vocabulary (Store.create ())) in
  QCheck.Test.make ~name:"store-kept provenance = fact-keyed oracle" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) (op_gen n)))
    (fun ops ->
      let st = Store.create () in
      let facts = vocabulary st in
      let prov = Provenance.create st
      and oracle = Provenance_oracle.create () in
      let live f = in_store st facts.(f) in
      List.for_all
        (fun op ->
          (match op with
          | Insert f -> insert st facts.(f)
          | Remove f ->
            if remove st facts.(f) then
              Provenance_oracle.forget oracle facts.(f)
          | Record (f, s) ->
            Provenance.record prov facts.(f) sources.(s);
            if live f then Provenance_oracle.record oracle facts.(f) sources.(s)
          | Repoint (f, s) ->
            Provenance.repoint prov facts.(f) sources.(s);
            if live f then
              Provenance_oracle.repoint oracle facts.(f) sources.(s));
          Array.for_all
            (fun f ->
              same_source (Provenance.lookup prov f)
                (Provenance_oracle.lookup oracle f))
            facts
          && Provenance.size prov = Provenance_oracle.size oracle
          && Store.check_invariants st = [])
        ops)

let unrecorded = function Store.Unrecorded -> true | _ -> false

let tc_live () =
  Live.attach
    (load
       {|
       a[edge ->> {b}]. b[edge ->> {c}].
       X[tc ->> {Y}] <- X[edge ->> {Y}].
       X[tc ->> {Y}] <- X..tc[edge ->> {Y}].
       |})

(* The records of [recv..meth] that hold [res], dead ones included. *)
let set_records st recv meth res =
  let o = Store.name st in
  Oodb.Vec.to_list (Store.set_recv_index st ~meth:(o meth) ~recv:(o recv))
  |> List.filter (fun (e : Store.mentry) -> Pathlog.Obj_id.equal e.res (o res))

let test_dead_record_unrecorded () =
  let live = tc_live () in
  let st = Live.store live in
  (match set_records st "a" "tc" "c" with
  | [ e ] ->
    Alcotest.(check bool) "derived record holds its source" false
      (unrecorded e.why)
  | _ -> Alcotest.fail "one record of a[tc ->> {c}]");
  ignore (Live.retract_batch live "b[edge ->> {c}]." : Live.batch_stats);
  match set_records st "a" "tc" "c" with
  | [ e ] ->
    Alcotest.(check bool) "record is dead" false (Store.live e);
    Alcotest.(check bool) "dead record holds no source" true (unrecorded e.why)
  | _ -> Alcotest.fail "the retracted fact keeps its one record"

let test_reasserted_recorded_once () =
  let live = tc_live () in
  let st = Live.store live in
  ignore (Live.retract_batch live "b[edge ->> {c}]." : Live.batch_stats);
  ignore (Live.assert_batch live "b[edge ->> {c}]." : Live.batch_stats);
  List.iter
    (fun (recv, meth, res) ->
      let records = set_records st recv meth res in
      Alcotest.(check int) (recv ^ " " ^ meth ^ ": records") 2
        (List.length records);
      Alcotest.(check int) (recv ^ " " ^ meth ^ ": recorded once") 1
        (List.length
           (List.filter
              (fun (e : Store.mentry) -> not (unrecorded e.why))
              records));
      Alcotest.(check int) (recv ^ " " ^ meth ^ ": live once") 1
        (List.length (List.filter Store.live records)))
    [ ("b", "edge", "c"); ("a", "tc", "c"); ("b", "tc", "c") ];
  Alcotest.(check int) "size counts live facts" (Store.size st)
    (Provenance.size (Program.provenance (Live.program live)))

let test_support_after_cycles () =
  let live = tc_live () in
  for i = 1 to 6 do
    let fact = if i mod 2 = 0 then "a[edge ->> {b}]." else "b[edge ->> {c}]." in
    ignore (Live.retract_batch live fact : Live.batch_stats);
    Alcotest.(check (list string)) "after retract" [] (Live.check_support live);
    ignore (Live.assert_batch live fact : Live.batch_stats);
    Alcotest.(check (list string)) "after re-assert" []
      (Live.check_support live)
  done;
  Alcotest.(check (list string)) "store audit" []
    (Store.check_invariants (Live.store live))

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
    qtest store_records_equal_oracle;
    Alcotest.test_case "a retracted fact's dead record holds no source"
      `Quick test_dead_record_unrecorded;
    Alcotest.test_case "a re-asserted fact is recorded once" `Quick
      test_reasserted_recorded_once;
    Alcotest.test_case "support holds after retract/re-assert cycles" `Quick
      test_support_after_cycles;
  ]
