(* Unit and property tests for the object-store substrate. *)

open Helpers
module Store = Pathlog.Store
module Universe = Pathlog.Universe
module Obj_id = Pathlog.Obj_id
module Vec = Oodb.Vec

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check (list int)) "to_list" (List.init 100 Fun.id) (Vec.to_list v);
  let seen = ref [] in
  Vec.iter_from (fun x -> seen := x :: !seen) v 97;
  Alcotest.(check (list int)) "iter_from suffix" [ 99; 98; 97 ] !seen;
  Alcotest.(check int) "fold" 4950 (Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 7) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x < 0) v)

let test_vec_get_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "negative" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3))

let vec_roundtrip =
  QCheck.Test.make ~name:"Vec.of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let vec_stable_indices =
  QCheck.Test.make ~name:"Vec push keeps earlier indices stable" ~count:100
    QCheck.(list small_nat)
    (fun xs ->
      let v = Vec.create () in
      List.for_all
        (fun x ->
          let i = Vec.length v in
          Vec.push v x;
          Vec.get v i = x)
        xs)

(* ------------------------------------------------------------------ *)
(* Universe *)

let test_interning () =
  let u = Universe.create () in
  let a = Universe.name u "alpha" in
  let a' = Universe.name u "alpha" in
  let b = Universe.name u "beta" in
  Alcotest.(check bool) "idempotent" true (Obj_id.equal a a');
  Alcotest.(check bool) "distinct names distinct" false (Obj_id.equal a b);
  let i = Universe.int u 42 in
  let i' = Universe.int u 42 in
  Alcotest.(check bool) "ints interned" true (Obj_id.equal i i');
  let s = Universe.str u "42" in
  Alcotest.(check bool) "string 42 distinct from int 42" false
    (Obj_id.equal i s);
  Alcotest.(check int) "cardinality" 4 (Universe.cardinality u)

let test_skolems () =
  let u = Universe.create () in
  let boss = Universe.name u "boss" in
  let p1 = Universe.name u "p1" in
  let sk = Universe.skolem u ~meth:boss ~recv:p1 ~args:[] in
  let sk' = Universe.skolem u ~meth:boss ~recv:p1 ~args:[] in
  Alcotest.(check bool) "deterministic" true (Obj_id.equal sk sk');
  Alcotest.(check bool) "is_skolem" true (Universe.is_skolem u sk);
  Alcotest.(check bool) "name not skolem" false (Universe.is_skolem u p1);
  Alcotest.(check string) "prints as path" "p1.boss" (Universe.to_string u sk);
  let arg = Universe.int u 1994 in
  let sk2 = Universe.skolem u ~meth:boss ~recv:p1 ~args:[ arg ] in
  Alcotest.(check bool) "args distinguish" false (Obj_id.equal sk sk2);
  Alcotest.(check string)
    "prints with args" "p1.boss@(1994)"
    (Universe.to_string u sk2);
  Alcotest.(check (list int)) "skolems in order" [ sk; sk2 ] (Universe.skolems u)

let test_string_printing () =
  let u = Universe.create () in
  let s = Universe.str u "hi there" in
  Alcotest.(check string) "quoted" "\"hi there\"" (Universe.to_string u s)

(* ------------------------------------------------------------------ *)
(* Store: class hierarchy *)

let test_isa_closure () =
  let st = Store.create () in
  let n = Store.name st in
  Alcotest.(check bool)
    "add edge" true
    (Store.add_isa st (n "automobile") (n "vehicle") = Store.IAdded);
  Alcotest.(check bool)
    "duplicate" true
    (Store.add_isa st (n "automobile") (n "vehicle") = Store.IDuplicate);
  ignore (Store.add_isa st (n "a1") (n "automobile"));
  Alcotest.(check bool)
    "transitive member" true
    (Store.is_member st (n "a1") (n "vehicle"));
  Alcotest.(check bool)
    "strict: not a member of itself" false
    (Store.is_member st (n "vehicle") (n "vehicle"));
  Alcotest.(check bool)
    "no reverse" false
    (Store.is_member st (n "vehicle") (n "a1"));
  Alcotest.(check int)
    "members closure" 2
    (Obj_id.Set.cardinal (Store.members st (n "vehicle")));
  Alcotest.(check int)
    "classes closure" 2
    (Obj_id.Set.cardinal (Store.classes_of st (n "a1")))

let test_isa_cycle_rejected () =
  let st = Store.create () in
  let n = Store.name st in
  ignore (Store.add_isa st (n "a") (n "b"));
  ignore (Store.add_isa st (n "b") (n "c"));
  Alcotest.(check bool)
    "cycle detected" true
    (Store.add_isa st (n "c") (n "a") = Store.ICycle);
  Alcotest.(check bool)
    "self loop is duplicate" true
    (Store.add_isa st (n "a") (n "a") = Store.IDuplicate)

let test_isa_diamond () =
  let st = Store.create () in
  let n = Store.name st in
  ignore (Store.add_isa st (n "d") (n "b"));
  ignore (Store.add_isa st (n "d") (n "c"));
  ignore (Store.add_isa st (n "b") (n "a"));
  ignore (Store.add_isa st (n "c") (n "a"));
  Alcotest.(check int)
    "diamond ancestors" 3
    (Obj_id.Set.cardinal (Store.classes_of st (n "d")));
  Alcotest.(check int)
    "diamond members" 3
    (Obj_id.Set.cardinal (Store.members st (n "a")))

let test_cache_invalidation () =
  let st = Store.create () in
  let n = Store.name st in
  ignore (Store.add_isa st (n "x") (n "mid"));
  Alcotest.(check int)
    "before" 1
    (Obj_id.Set.cardinal (Store.classes_of st (n "x")));
  ignore (Store.add_isa st (n "mid") (n "top"));
  Alcotest.(check int)
    "after new edge above" 2
    (Obj_id.Set.cardinal (Store.classes_of st (n "x")))

let test_builtin_value_classes () =
  let st = Store.create () in
  let i42 = Store.int st 42 in
  let s = Store.str st "hello" in
  let integer = Store.name st "integer" in
  let string_ = Store.name st "string" in
  Alcotest.(check bool) "42 : integer" true (Store.is_member st i42 integer);
  Alcotest.(check bool) "42 not string" false (Store.is_member st i42 string_);
  Alcotest.(check bool) "str : string" true (Store.is_member st s string_);
  let nm = Store.name st "someobj" in
  Alcotest.(check bool) "name not integer" false (Store.is_member st nm integer)

(* ------------------------------------------------------------------ *)
(* Store: method tables *)

let test_scalar_methods () =
  let st = Store.create () in
  let n = Store.name st in
  let add r = Store.add_scalar st ~meth:(n "age") ~recv:(n r) ~args:[] in
  Alcotest.(check bool) "added" true (add "bob" ~res:(Store.int st 30) = Added);
  Alcotest.(check bool)
    "duplicate" true
    (add "bob" ~res:(Store.int st 30) = Duplicate);
  (match add "bob" ~res:(Store.int st 31) with
  | Conflict existing ->
    Alcotest.(check bool)
      "conflict carries existing" true
      (Obj_id.equal existing (Store.int st 30))
  | Added | Duplicate -> Alcotest.fail "expected conflict");
  Alcotest.(check (option int))
    "lookup" (Some (Store.int st 30))
    (Store.scalar_lookup st ~meth:(n "age") ~recv:(n "bob") ~args:[]);
  Alcotest.(check (option int))
    "lookup miss" None
    (Store.scalar_lookup st ~meth:(n "age") ~recv:(n "eve") ~args:[]);
  Alcotest.(check int) "bucket" 1 (Vec.length (Store.scalar_bucket st (n "age")));
  Alcotest.(check int)
    "inverse" 1
    (Vec.length (Store.scalar_inverse st ~meth:(n "age") ~res:(Store.int st 30)));
  Alcotest.(check (list int)) "meths" [ n "age" ] (Store.scalar_meths st)

let test_scalar_args () =
  let st = Store.create () in
  let n = Store.name st in
  let y1994 = Store.int st 1994 in
  let y1995 = Store.int st 1995 in
  ignore
    (Store.add_scalar st ~meth:(n "salary") ~recv:(n "john") ~args:[ y1994 ]
       ~res:(Store.int st 100));
  ignore
    (Store.add_scalar st ~meth:(n "salary") ~recv:(n "john") ~args:[ y1995 ]
       ~res:(Store.int st 120));
  Alcotest.(check (option int))
    "args distinguish" (Some (Store.int st 100))
    (Store.scalar_lookup st ~meth:(n "salary") ~recv:(n "john") ~args:[ y1994 ]);
  Alcotest.(check int)
    "two entries one bucket" 2
    (Vec.length (Store.scalar_bucket st (n "salary")))

let test_set_methods () =
  let st = Store.create () in
  let n = Store.name st in
  let add r = Store.add_set st ~meth:(n "kids") ~recv:(n "peter") ~args:[] ~res:(n r) in
  Alcotest.(check bool) "added" true (add "tim" = SAdded);
  Alcotest.(check bool) "dup" true (add "tim" = SDuplicate);
  Alcotest.(check bool) "second" true (add "mary" = SAdded);
  Alcotest.(check int)
    "set lookup" 2
    (Obj_id.Set.cardinal
       (Store.set_lookup st ~meth:(n "kids") ~recv:(n "peter") ~args:[]));
  Alcotest.(check int)
    "empty set elsewhere" 0
    (Obj_id.Set.cardinal
       (Store.set_lookup st ~meth:(n "kids") ~recv:(n "tim") ~args:[]));
  Alcotest.(check int) "bucket len" 2 (Vec.length (Store.set_bucket st (n "kids")))

let test_stats_and_pp () =
  let st = Store.create () in
  let n = Store.name st in
  ignore (Store.add_isa st (n "a") (n "b"));
  ignore
    (Store.add_scalar st ~meth:(n "m") ~recv:(n "a") ~args:[] ~res:(n "b"));
  ignore (Store.add_set st ~meth:(n "s") ~recv:(n "a") ~args:[] ~res:(n "b"));
  let s = Store.stats st in
  Alcotest.(check int) "isa" 1 s.isa_edges;
  Alcotest.(check int) "scalar" 1 s.scalar_tuples;
  Alcotest.(check int) "set" 1 s.set_tuples;
  let text = String.concat "\n" (Pathlog.Fact.model st) in
  Alcotest.(check bool) "pp has isa" true (contains ~sub:"a : b." text);
  Alcotest.(check bool) "pp has scalar" true (contains ~sub:"a[m -> b]." text);
  Alcotest.(check bool) "pp has set" true (contains ~sub:"a[s ->> {b}]." text)

(* ------------------------------------------------------------------ *)
(* Signatures *)

let test_signature_check () =
  let st = Store.create () in
  let n = Store.name st in
  ignore (Store.add_isa st (n "bob") (n "employee"));
  ignore
    (Store.add_scalar st ~meth:(n "age") ~recv:(n "bob") ~args:[]
       ~res:(Store.int st 30));
  let sigs = Pathlog.Signature.create () in
  Pathlog.Signature.add sigs
    {
      cls = n "employee";
      meth = n "age";
      arg_classes = [];
      result_class = n "integer";
      scalarity = Scalar;
    };
  Alcotest.(check int)
    "ok" 0
    (List.length (Pathlog.Signature.check st sigs ~mode:`Lenient));
  (* violate: a non-integer age *)
  ignore (Store.add_isa st (n "eve") (n "employee"));
  ignore
    (Store.add_scalar st ~meth:(n "age") ~recv:(n "eve") ~args:[]
       ~res:(n "notanumber"));
  Alcotest.(check int)
    "violation found" 1
    (List.length (Pathlog.Signature.check st sigs ~mode:`Lenient))

let test_signature_inheritance () =
  let st = Store.create () in
  let n = Store.name st in
  ignore (Store.add_isa st (n "manager") (n "employee"));
  ignore (Store.add_isa st (n "ann") (n "manager"));
  ignore
    (Store.add_scalar st ~meth:(n "age") ~recv:(n "ann") ~args:[]
       ~res:(n "old"));
  let sigs = Pathlog.Signature.create () in
  Pathlog.Signature.add sigs
    {
      cls = n "employee";
      meth = n "age";
      arg_classes = [];
      result_class = n "integer";
      scalarity = Scalar;
    };
  (* ann is a manager, manager :: employee, so the signature applies *)
  Alcotest.(check int)
    "inherited signature catches" 1
    (List.length (Pathlog.Signature.check st sigs ~mode:`Lenient))

let test_signature_strict_mode () =
  let st = Store.create () in
  let n = Store.name st in
  ignore
    (Store.add_scalar st ~meth:(n "whatever") ~recv:(n "x") ~args:[]
       ~res:(n "y"));
  let sigs = Pathlog.Signature.create () in
  Alcotest.(check int)
    "lenient ignores uncovered" 0
    (List.length (Pathlog.Signature.check st sigs ~mode:`Lenient));
  Alcotest.(check int)
    "strict flags uncovered" 1
    (List.length (Pathlog.Signature.check st sigs ~mode:`Strict))

(* ------------------------------------------------------------------ *)

let isa_closure_transitivity =
  QCheck.Test.make ~name:"isa closure is transitive" ~count:50
    arbitrary_loadable_base (fun p ->
      let st = Pathlog.Program.store p in
      let u = Pathlog.Store.universe st in
      let card = Universe.cardinality u in
      let ok = ref true in
      for o = 0 to card - 1 do
        Obj_id.Set.iter
          (fun c ->
            Obj_id.Set.iter
              (fun c' -> if not (Store.is_member st o c') then ok := false)
              (Store.classes_of st c))
          (Store.classes_of st o)
      done;
      !ok)

let members_vs_classes_duality =
  QCheck.Test.make ~name:"o in members(c) iff c in classes_of(o)" ~count:50
    arbitrary_loadable_base (fun p ->
      let st = Pathlog.Program.store p in
      let card = Universe.cardinality (Pathlog.Store.universe st) in
      let ok = ref true in
      for o = 0 to card - 1 do
        for c = 0 to card - 1 do
          let down = Obj_id.Set.mem o (Store.members st c) in
          let up = Obj_id.Set.mem c (Store.classes_of st o) in
          if down <> up then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Store invariants *)

let test_invariants_clean_store () =
  let p =
    load
      {|
      automobile :: vehicle.
      a1 : automobile[color -> red].
      a1[tags ->> {fast, loud}].
      |}
  in
  Alcotest.(check (list string)) "no violations" []
    (Store.check_invariants (Pathlog.Program.store p))

let invariants_after_random_runs =
  QCheck.Test.make ~name:"store invariants hold after random evaluations"
    ~count:25
    QCheck.(int_range 1 500)
    (fun seed ->
      let stmts =
        Pathlog.Genealogy.statements
          (Pathlog.Genealogy.Random_forest { people = 15; max_kids = 3; seed })
        @ Pathlog.Genealogy.desc_rules
        @ Pathlog.Company.statements { (Pathlog.Company.scaled 10) with seed }
      in
      let p = Pathlog.Program.create stmts in
      ignore (Pathlog.Program.run p);
      Store.check_invariants (Pathlog.Program.store p) = [])

let invariants_after_loadable_bases =
  QCheck.Test.make ~name:"store invariants hold on random fact bases"
    ~count:40 arbitrary_loadable_base (fun p ->
      Store.check_invariants (Pathlog.Program.store p) = [])

let suite =
  [
    Alcotest.test_case "vec basics" `Quick test_vec_basic;
    Alcotest.test_case "vec bounds" `Quick test_vec_get_bounds;
    qtest vec_roundtrip;
    qtest vec_stable_indices;
    Alcotest.test_case "interning" `Quick test_interning;
    Alcotest.test_case "skolems" `Quick test_skolems;
    Alcotest.test_case "string printing" `Quick test_string_printing;
    Alcotest.test_case "isa closure" `Quick test_isa_closure;
    Alcotest.test_case "isa cycles" `Quick test_isa_cycle_rejected;
    Alcotest.test_case "isa diamond" `Quick test_isa_diamond;
    Alcotest.test_case "cache invalidation" `Quick test_cache_invalidation;
    Alcotest.test_case "builtin value classes" `Quick test_builtin_value_classes;
    Alcotest.test_case "scalar methods" `Quick test_scalar_methods;
    Alcotest.test_case "scalar args" `Quick test_scalar_args;
    Alcotest.test_case "set methods" `Quick test_set_methods;
    Alcotest.test_case "stats and pp" `Quick test_stats_and_pp;
    Alcotest.test_case "signature check" `Quick test_signature_check;
    Alcotest.test_case "signature inheritance" `Quick test_signature_inheritance;
    Alcotest.test_case "signature strict" `Quick test_signature_strict_mode;
    qtest isa_closure_transitivity;
    qtest members_vs_classes_duality;
    Alcotest.test_case "invariants clean store" `Quick
      test_invariants_clean_store;
    qtest invariants_after_random_runs;
    qtest invariants_after_loadable_bases;
  ]
