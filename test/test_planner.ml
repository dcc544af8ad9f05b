(* The compiled query planner, receiver-keyed store indexes, incremental
   hierarchy closure and the sealed shared empty bucket. *)

open Helpers
module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint
module Solve = Pathlog.Solve
module Store = Pathlog.Store
module Flatten = Pathlog.Flatten
module Ir = Pathlog.Ir
module Vec = Pathlog.Vec

let store_of = Program.store

(* ------------------------------------------------------------------ *)
(* Planner equivalence: Naive and Seminaive must produce identical models,
   and the compiled plan must answer like a random permutation of the
   query's atoms, on random rule programs. *)

let model_facts p = Pathlog.Fact.model (Program.store p)

let load_with mode text =
  let config = { Fixpoint.default_config with mode } in
  let p = Program.of_string ~config text in
  ignore (Program.run p);
  p

(* Covers every relation Randprog emits, scalar and set, plus membership. *)
let equivalence_queries =
  [ "X[r ->> {Y}]"; "X[s ->> {Y}]"; "X[t ->> {Y}]"; "X[f -> Y]"; "X : ca" ]

let rows p q =
  List.sort_uniq compare
    (List.map (Program.row_to_string p) (Program.query_string p q).rows)

(* [q]'s answers under a random permutation plan, rendered like [rows]. *)
let permuted_rows rand p q =
  let store = store_of p in
  let flat = Flatten.literals store (Program.parse_query q) in
  List.sort_uniq compare
    (List.map (Program.row_to_string p)
       (plan_rows ~plan:(random_plan rand store flat) store flat))

let orders_agree =
  QCheck.Test.make ~name:"naive = seminaive = permuted plans"
    ~count:60
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 10_000))
    (fun seed ->
      let text =
        Pathlog.Randprog.generate
          { Pathlog.Randprog.seed; facts = 12; rules = 4 }
      in
      match load_with Fixpoint.Naive text with
      | exception _ -> QCheck.assume_fail () (* e.g. scalar conflict *)
      | p_naive ->
        let p_semi = load_with Fixpoint.Seminaive text in
        let rand = Random.State.make [| seed |] in
        model_facts p_naive = model_facts p_semi
        && List.for_all
             (fun q ->
               rows p_naive q = rows p_semi q
               && rows p_semi q = permuted_rows rand p_semi q)
             equivalence_queries)

(* Recursive program deriving isa edges round by round: exercises the
   seeded A_isa delta path against the incrementally maintained closure. *)
let test_derived_isa_fixpoint () =
  let text =
    {|
    o1[next -> o2]. o2[next -> o3]. o3[next -> o4]. o4[next -> o5].
    o5 : reach.
    X : reach <- X[next -> Y], Y : reach.
    |}
  in
  let p = load_with Fixpoint.Seminaive text in
  List.iter
    (fun o -> check_holds (o ^ " reachable") p (o ^ " : reach"))
    [ "o1"; "o2"; "o3"; "o4" ];
  let p_naive = load_with Fixpoint.Naive text in
  Alcotest.(check (list string))
    "same model as naive" (model_facts p_naive) (model_facts p);
  Alcotest.(check (list string))
    "invariants" []
    (Store.check_invariants (store_of p))

(* ------------------------------------------------------------------ *)
(* Compiled plan structure *)

let test_compile_plan_structure () =
  let p = load "a : ca. a[f -> b]. a[r ->> {b}]. b[r ->> {c}]." in
  let store = store_of p in
  let q =
    Flatten.literals store
      (Pathlog.Parser.literals "X : ca, X[f -> Y], X[r ->> {Z}]")
  in
  let n = List.length q.atoms in
  let plan = Solve.compile_plan store q in
  Alcotest.(check int) "unseeded" (-1) plan.Solve.plan_seed;
  Alcotest.(check int) "covers all atoms" n (Array.length plan.Solve.plan_perm);
  Alcotest.(check (list int))
    "a permutation" (List.init n Fun.id)
    (List.sort compare (Array.to_list plan.Solve.plan_perm));
  let sp = Solve.compile_plan ~seed_atom:1 store q in
  Alcotest.(check int) "seed recorded" 1 sp.Solve.plan_seed;
  Alcotest.(check int) "rest only" (n - 1) (Array.length sp.Solve.plan_perm);
  Alcotest.(check bool)
    "seed not repeated" false
    (Array.exists (Int.equal 1) sp.Solve.plan_perm)

let test_plan_mismatch_rejected () =
  let p = load "a[f -> b]. a[g -> c]." in
  let store = store_of p in
  let q =
    Flatten.literals store (Pathlog.Parser.literals "X[f -> Y], X[g -> Z]")
  in
  let rejected ?seed msg plan =
    Alcotest.check_raises msg
      (Invalid_argument "Solve.iter: plan does not match query/seed")
      (fun () -> Solve.iter ?seed ~plan store q ~f:ignore)
  in
  let seeded = Solve.compile_plan ~seed_atom:0 store q in
  rejected "seeded plan without a seed" seeded;
  rejected "too short" (plan_of store [| 0 |]);
  rejected "out of range" (plan_of store [| 0; 2 |]);
  rejected "negative index" (plan_of store [| -1; 1 |]);
  rejected "seed repeated in the rest"
    ~seed:{ Solve.seed_atom = 0; seed_from = 0 }
    { seeded with Solve.plan_perm = [| 0 |] };
  (* a repeated atom leaves another out, silently dropping its
     constraint: [Y : k] would never run and [c] would answer too *)
  let p = load "a[f -> b]. c[f -> d]. b : k." in
  let store = store_of p in
  let q =
    Flatten.literals store (Pathlog.Parser.literals "X[f -> Y], Y : k")
  in
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Solve.iter: plan does not match query/seed")
    (fun () -> Solve.iter ~plan:(plan_of store [| 0; 0 |]) store q ~f:ignore);
  Alcotest.(check int) "a valid plan finds the one answer" 1
    (List.length (plan_rows ~plan:(plan_of store [| 1; 0 |]) store q))

let test_plan_stale () =
  let p = load "a[f -> b]." in
  let store = store_of p in
  let q = Flatten.literals store (Pathlog.Parser.literals "X[f -> Y]") in
  let plan = Solve.compile_plan store q in
  Alcotest.(check bool) "fresh" false (Solve.plan_stale store plan);
  let meth = Store.name store "f" in
  let res = Store.name store "b" in
  for i = 0 to 99 do
    ignore
      (Store.add_scalar store ~meth
         ~recv:(Store.name store (Printf.sprintf "n%d" i))
         ~args:[] ~res)
  done;
  Alcotest.(check bool) "stale after 2x growth" true
    (Solve.plan_stale store plan)

(* [explain] prints the compiled plan's atoms in its execution order. *)
let test_explain_compiled_is_greedy_simulation () =
  let p =
    load "m1 : manager. m1[vehicles ->> {v1}]. v1[color -> red]."
  in
  let store = store_of p in
  let q =
    Flatten.literals store
      (Pathlog.Parser.literals "X : manager..vehicles[color -> red]")
  in
  let atoms = Array.of_list q.atoms in
  let perm = (Solve.compile_plan store q).plan_perm in
  let u = Store.universe store in
  let lines = Solve.explain store q in
  Alcotest.(check bool) "reordered, not as written" true
    (Array.to_list perm <> List.init (Array.length atoms) Fun.id);
  Alcotest.(check int) "one line per atom" (Array.length atoms)
    (List.length lines);
  List.iteri
    (fun i line ->
      let atom = Format.asprintf "%a" (Ir.pp_atom u) atoms.(perm.(i)) in
      Alcotest.(check string)
        (Printf.sprintf "step %d is the plan's" i)
        atom
        (String.sub line 0 (min (String.length line) (String.length atom))))
    lines

(* [explain ~predicted] annotates the plan [run] executes; it never
   reorders it. On the paper's rule (2.4) the estimates alone would put
   the inverse-index scan on [city] first. *)
let test_explain_predicted_annotates_executed_plan () =
  let p =
    Program.of_string
      (Test_programs.read_file (Test_programs.find_program "addresses.plg"))
  in
  let st = store_of p in
  let absint =
    Pathlog.Absint.analyze ~facts:(Program.facts p) st (Program.rules p)
  in
  ignore (Program.run p);
  let q = "X.address[city -> springfield]" in
  let plain = Program.explain_string p q in
  let annotated =
    Program.explain_string ~predicted:(Pathlog.Absint.predicted absint st) p q
  in
  Alcotest.(check int) "one line per atom" (List.length plain)
    (List.length annotated);
  Alcotest.(check bool) "address is scanned first" true
    (String.starts_with ~prefix:"scalar(address;" (List.hd plain));
  List.iter2
    (fun line ann ->
      let n = String.length line in
      Alcotest.(check string) "same atom, same access path" line
        (String.sub ann 0 (min n (String.length ann)));
      let suffix = String.sub ann n (String.length ann - n) in
      Alcotest.(check bool)
        (Printf.sprintf "%S is a ~N annotation" suffix)
        true
        (Scanf.sscanf_opt suffix "  ~%u tuples%!" Fun.id <> None))
    plain annotated

let test_explain_receiver_index_path () =
  let p = load "bob[salary@(1994) -> 100]. bob[salary@(1995) -> 120]." in
  let store = store_of p in
  let q =
    Flatten.literals store (Pathlog.Parser.literals "bob[salary@(Y) -> S]")
  in
  let lines = Solve.explain store q in
  Alcotest.(check bool) "receiver index access path" true
    (List.exists (contains ~sub:"receiver index scan on salary") lines)

(* A set atom bound at receiver, arguments and result is a membership
   probe: one unification step however large the receiver's set (a
   magic guard's receiver holds every demand set), against a poll every
   [poll_interval] steps for a scan. *)
let test_bound_member_probe () =
  let st = Store.create () in
  let m = Store.name st "g" and d = Store.name st "d" in
  let n = 4 * Solve.poll_interval in
  for i = 0 to n - 1 do
    ignore
      (Store.add_set st ~meth:m ~recv:d ~args:[]
         ~res:(Store.name st (Printf.sprintf "x%d" i)))
  done;
  let atom res =
    {
      Ir.atoms =
        [
          Ir.A_member
            { meth = Ir.Const m; recv = Ir.Const d; args = []; res };
        ];
      nvars = 1;
      named = (match res with Ir.V _ -> [ ("X", 0) ] | Ir.Const _ -> []);
    }
  in
  let polls = ref 0 in
  let interrupt () = incr polls in
  let holds o =
    Solve.satisfiable ~interrupt st
      (atom (Ir.Const (Store.name st o)))
  in
  Alcotest.(check bool) "member" true (holds (Printf.sprintf "x%d" (n - 1)));
  Alcotest.(check bool) "non-member" false (holds "y");
  Alcotest.(check int) "probes never reach a poll" 0 !polls;
  Alcotest.(check int) "scan enumerates the set" n
    (List.length
       (Solve.named_solutions ~interrupt st
          (atom (Ir.V 0))));
  Alcotest.(check bool) "scan polls the budget" true (!polls >= 4)

(* A bound-result atom is priced by the tuples per distinct result, like
   a bound receiver by the tuples per receiver: a [boss] edge with a
   bound result has about one receiver, so the planner takes it before
   enumerating a large one-receiver set. *)
let test_bound_result_cost () =
  let st = Store.create () in
  let boss = Store.name st "boss" and g = Store.name st "g" in
  let d = Store.name st "d" in
  let node i = Store.name st (Printf.sprintf "n%d" i) in
  for i = 0 to 3999 do
    ignore
      (Store.add_scalar st ~meth:boss ~recv:(node i) ~args:[]
         ~res:(node (i + 1)))
  done;
  for i = 0 to 499 do
    ignore (Store.add_set st ~meth:g ~recv:d ~args:[] ~res:(node (8 * i)))
  done;
  Alcotest.(check int) "distinct boss results" 4000
    (Store.scalar_res_keys st boss);
  Alcotest.(check int) "distinct g results" 500 (Store.set_res_keys st g);
  let q =
    {
      Ir.atoms =
        [
          Ir.A_member
            { meth = Ir.Const g; recv = Ir.Const d; args = []; res = Ir.V 0 };
          Ir.A_scalar
            {
              meth = Ir.Const boss;
              recv = Ir.V 0;
              args = [];
              res = Ir.Const (node 17);
            };
        ];
      nvars = 1;
      named = [ ("X", 0) ];
    }
  in
  let plan = Solve.compile_plan st q in
  Alcotest.(check (list int)) "inverse index first, then the probe" [ 1; 0 ]
    (Array.to_list plan.Solve.plan_perm);
  Alcotest.(check (list (list int))) "answer" [ [ node 16 ] ]
    (Solve.named_solutions st q);
  Alcotest.(check (list string)) "invariants" [] (Store.check_invariants st)

(* ------------------------------------------------------------------ *)
(* Receiver-keyed secondary indexes *)

let test_recv_index_scalar () =
  let st = Store.create () in
  let m = Store.name st "attr" in
  for r = 0 to 49 do
    let recv = Store.name st (Printf.sprintf "r%d" r) in
    for a = 0 to 3 do
      ignore
        (Store.add_scalar st ~meth:m ~recv ~args:[ Store.int st a ]
           ~res:(Store.int st (r + a)))
    done
  done;
  let recv7 = Store.name st "r7" in
  Alcotest.(check int) "this receiver's tuples" 4
    (Vec.length (Store.scalar_recv_index st ~meth:m ~recv:recv7));
  Alcotest.(check int) "distinct receivers" 50 (Store.scalar_recv_keys st m);
  Alcotest.(check int) "missing receiver is empty" 0
    (Vec.length
       (Store.scalar_recv_index st ~meth:m ~recv:(Store.name st "zz")));
  Alcotest.(check int) "unknown method is empty" 0
    (Store.scalar_recv_keys st (Store.name st "nope"));
  Alcotest.(check (list string)) "invariants" [] (Store.check_invariants st)

let test_recv_index_set_query () =
  let st = Store.create () in
  let m = Store.name st "items" in
  for r = 0 to 19 do
    let recv = Store.name st (Printf.sprintf "p%d" r) in
    for a = 0 to 4 do
      ignore
        (Store.add_set st ~meth:m ~recv ~args:[ Store.int st a ]
           ~res:(Store.int st ((100 * r) + a)))
    done
  done;
  (* bound receiver, open argument and result: the receiver index must
     return exactly this receiver's tuples *)
  let q =
    {
      Ir.atoms =
        [
          Ir.A_member
            {
              meth = Ir.Const m;
              recv = Ir.Const (Store.name st "p3");
              args = [ Ir.V 0 ];
              res = Ir.V 1;
            };
        ];
      nvars = 2;
      named = [ ("A", 0); ("X", 1) ];
    }
  in
  Alcotest.(check int) "five rows (compiled)" 5
    (List.length (Solve.named_solutions st q));
  Alcotest.(check int) "five rows (source order)" 5
    (List.length (plan_rows ~plan:(identity_plan st q) st q));
  Alcotest.(check int) "distinct set receivers" 20 (Store.set_recv_keys st m);
  Alcotest.(check (list string)) "invariants" [] (Store.check_invariants st)

(* 0-ary methods keep the packed fast path consistent with everything *)
let test_zero_ary_fast_path () =
  let st = Store.create () in
  let m = Store.name st "color" in
  let a = Store.name st "a" and red = Store.name st "red" in
  Alcotest.(check bool) "added" true
    (Store.add_scalar st ~meth:m ~recv:a ~args:[] ~res:red = Store.Added);
  Alcotest.(check bool) "duplicate" true
    (Store.add_scalar st ~meth:m ~recv:a ~args:[] ~res:red = Store.Duplicate);
  (match Store.add_scalar st ~meth:m ~recv:a ~args:[] ~res:a with
  | Store.Conflict existing ->
    Alcotest.(check int) "conflict reports holder" red existing
  | Store.Added | Store.Duplicate -> Alcotest.fail "conflict not detected");
  Alcotest.(check (option int))
    "lookup" (Some red)
    (Store.scalar_lookup st ~meth:m ~recv:a ~args:[]);
  Alcotest.(check (list string)) "invariants" [] (Store.check_invariants st)

(* ------------------------------------------------------------------ *)
(* Incremental hierarchy closure *)

let test_incremental_closure_matches_fresh () =
  let st = Store.create () in
  let obj i = Store.name st (Printf.sprintf "c%d" i) in
  let edges = ref [] in
  let add o c =
    ignore (Store.add_isa st (obj o) (obj c));
    edges := (o, c) :: !edges
  in
  (* binary-tree shape, warming the closure caches as it grows *)
  for i = 1 to 40 do
    add i (i / 2);
    if i mod 3 = 0 then
      ignore (Pathlog.Obj_id.Set.cardinal (Store.classes_of st (obj i)));
    if i mod 4 = 0 then
      ignore (Pathlog.Obj_id.Set.cardinal (Store.members st (obj 0)))
  done;
  (* cross edges after the caches are warm *)
  add 33 2;
  add 12 5;
  (* an equivalent store built without any interleaved queries *)
  let fresh = Store.create () in
  let fobj i = Store.name fresh (Printf.sprintf "c%d" i) in
  List.iter
    (fun (o, c) -> ignore (Store.add_isa fresh (fobj o) (fobj c)))
    (List.rev !edges);
  for i = 0 to 40 do
    Alcotest.(check int)
      (Printf.sprintf "ancestors of c%d" i)
      (Pathlog.Obj_id.Set.cardinal (Store.classes_of fresh (fobj i)))
      (Pathlog.Obj_id.Set.cardinal (Store.classes_of st (obj i)));
    Alcotest.(check int)
      (Printf.sprintf "descendants of c%d" i)
      (Pathlog.Obj_id.Set.cardinal (Store.members fresh (fobj i)))
      (Pathlog.Obj_id.Set.cardinal (Store.members st (obj i)))
  done;
  (* cycle rejection still sees the updated closure *)
  Alcotest.(check bool) "cycle rejected" true
    (Store.add_isa st (obj 0) (obj 40) = Store.ICycle);
  (* the invariant audit recomputes every cached closure from scratch *)
  Alcotest.(check (list string)) "invariants" [] (Store.check_invariants st)

(* ------------------------------------------------------------------ *)
(* Sealed shared empty bucket *)

let test_sealed_empty_bucket () =
  let st = Store.create () in
  let missing = Store.scalar_bucket st (Store.name st "nope") in
  Alcotest.(check int) "empty" 0 (Vec.length missing);
  Alcotest.check_raises "push on the shared empty bucket raises"
    (Invalid_argument "Vec.push: sealed vector") (fun () ->
      Vec.push missing
        {
          Store.recv = 0;
          args = [];
          res = 0;
          dead = max_int;
          why = Store.Unrecorded;
        });
  Alcotest.check_raises "clear on the shared empty bucket raises"
    (Invalid_argument "Vec.clear: sealed vector") (fun () ->
      Vec.clear missing);
  (* other miss results are unaffected *)
  Alcotest.(check int) "set-side miss still empty" 0
    (Vec.length (Store.set_bucket st (Store.name st "other")))

let suite =
  [
    qtest orders_agree;
    Alcotest.test_case "derived isa fixpoint (compiled)" `Quick
      test_derived_isa_fixpoint;
    Alcotest.test_case "compile_plan structure" `Quick
      test_compile_plan_structure;
    Alcotest.test_case "plan mismatch rejected" `Quick
      test_plan_mismatch_rejected;
    Alcotest.test_case "plan staleness" `Quick test_plan_stale;
    Alcotest.test_case "explain: compiled = greedy simulation" `Quick
      test_explain_compiled_is_greedy_simulation;
    Alcotest.test_case "explain ~predicted annotates the executed plan"
      `Quick test_explain_predicted_annotates_executed_plan;
    Alcotest.test_case "explain: receiver index path" `Quick
      test_explain_receiver_index_path;
    Alcotest.test_case "bound set member is a probe" `Quick
      test_bound_member_probe;
    Alcotest.test_case "bound-result cost by distinct results" `Quick
      test_bound_result_cost;
    Alcotest.test_case "receiver index: scalar" `Quick test_recv_index_scalar;
    Alcotest.test_case "receiver index: set query" `Quick
      test_recv_index_set_query;
    Alcotest.test_case "0-ary fast path" `Quick test_zero_ary_fast_path;
    Alcotest.test_case "incremental closure = fresh closure" `Quick
      test_incremental_closure_matches_fresh;
    Alcotest.test_case "sealed empty bucket" `Quick test_sealed_empty_bucket;
  ]
