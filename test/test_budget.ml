(* Cooperative budgets: deadlines, caps and cancellation must stop an
   evaluation mid-flight, leave a sound partial model behind, and do all
   of that identically under the parallel engine. *)

module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint
module Budget = Pathlog.Budget
module Solve = Pathlog.Solve
module Flatten = Pathlog.Flatten

(* A divergent skolem generator: every `pair` spawns two fresh `pair`s,
   so only a budget (or the hard divergence guard) can stop it. The hard
   guards are pushed out of the way so the budget is what fires. *)
let runaway = "p0 : pair. X.left : pair <- X : pair. X.right : pair <- X : pair."

let runaway_config ~jobs =
  {
    Fixpoint.default_config with
    max_rounds = 1_000_000;
    max_objects = 1_000_000_000;
    jobs;
  }

(* ------------------------------------------------------------------ *)
(* Unit behaviour                                                      *)

let test_unlimited () =
  let b = Budget.create () in
  Budget.check b;
  Budget.check_caps b ~derivations:max_int ~objects:max_int;
  Alcotest.(check bool) "not cancelled" false (Budget.cancelled b)

let test_cancel_token () =
  let b = Budget.create () in
  Budget.cancel b;
  Alcotest.(check bool) "cancelled" true (Budget.cancelled b);
  Alcotest.check_raises "check raises" (Budget.Exhausted Budget.Cancelled)
    (fun () -> Budget.check b)

let test_shared_token () =
  let token = Atomic.make false in
  let b1 = Budget.create ~cancel:token () in
  let b2 = Budget.create ~cancel:token () in
  Budget.cancel b1;
  Alcotest.(check bool) "b2 sees it" true (Budget.cancelled b2)

let test_expired_deadline () =
  let b = Budget.create ~deadline_in:(-0.001) () in
  Alcotest.check_raises "timeout" (Budget.Exhausted Budget.Timeout)
    (fun () -> Budget.check b)

let test_caps () =
  let b = Budget.create ~max_derivations:10 ~max_objects:100 () in
  Budget.check_caps b ~derivations:10 ~objects:100;
  Alcotest.check_raises "derivations"
    (Budget.Exhausted Budget.Derivations)
    (fun () -> Budget.check_caps b ~derivations:11 ~objects:0);
  Alcotest.check_raises "objects" (Budget.Exhausted Budget.Objects)
    (fun () -> Budget.check_caps b ~derivations:0 ~objects:101)

let test_reason_labels () =
  Alcotest.(check (list string))
    "labels"
    [ "timeout"; "cancelled"; "derivations"; "objects" ]
    (List.map Budget.reason_label
       [ Budget.Timeout; Budget.Cancelled; Budget.Derivations; Budget.Objects ])

(* ------------------------------------------------------------------ *)
(* Degraded fixpoints                                                  *)

(* The deadline must stop the divergent run in wall-clock time on the
   same order as the deadline itself — generous factor for loaded CI. *)
let test_deadline_degrades ~jobs () =
  let p = Program.of_string ~config:(runaway_config ~jobs) runaway in
  let deadline = 0.1 in
  let t0 = Unix.gettimeofday () in
  let stats = Program.run ~budget:(Budget.create ~deadline_in:deadline ()) p in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    "degraded by timeout" true
    (stats.Fixpoint.degraded = Some Budget.Timeout);
  Alcotest.(check bool)
    "degraded sticks on the program" true
    (Program.degraded p = Some Budget.Timeout);
  Alcotest.(check bool)
    (Printf.sprintf "stopped in bounded time (%.3fs)" elapsed)
    true
    (elapsed < 10. *. deadline);
  (* the partial model is sound: the seed fact survives, and everything
     derived is a pair reachable from it *)
  Alcotest.(check bool) "seed fact present" true (Pathlog.holds p "p0 : pair")

let test_precancelled_run ~jobs () =
  let p = Program.of_string ~config:(runaway_config ~jobs) runaway in
  let b = Budget.create () in
  Budget.cancel b;
  let stats = Program.run ~budget:b p in
  Alcotest.(check bool)
    "degraded by cancellation" true
    (stats.Fixpoint.degraded = Some Budget.Cancelled)

let test_derivation_cap_degrades () =
  let p = Program.of_string ~config:(runaway_config ~jobs:1) runaway in
  let stats = Program.run ~budget:(Budget.create ~max_derivations:50 ()) p in
  Alcotest.(check bool)
    "degraded by derivation cap" true
    (stats.Fixpoint.degraded = Some Budget.Derivations)

let test_clean_run_not_degraded () =
  let p = Program.of_string "a : c. b : c. X : d <- X : c." in
  let stats = Program.run ~budget:(Budget.create ~deadline_in:30. ()) p in
  Alcotest.(check bool) "stats clean" true (stats.Fixpoint.degraded = None);
  Alcotest.(check bool) "program clean" true (Program.degraded p = None);
  Alcotest.(check bool) "model complete" true (Pathlog.holds p "b : d")

(* ------------------------------------------------------------------ *)
(* Budgeted answers are a subset of unbudgeted answers (soundness of
   degradation), on random programs, sequential and parallel.           *)

let budget_subset ~jobs seed =
  let text =
    Pathlog.Randprog.generate { Pathlog.Randprog.seed; facts = 12; rules = 4 }
  in
  let full =
    match
      let p = Program.of_string text in
      ignore (Program.run p);
      p
    with
    | p -> Some p
    | exception _ -> None (* randprog conflicts: nothing to compare *)
  in
  match full with
  | None -> true
  | Some full -> (
    let config = { Fixpoint.default_config with jobs } in
    match Program.of_string ~config text with
    | exception _ -> false
    | budgeted -> (
      (* a tiny derivation cap: most runs degrade midway *)
      match
        Program.run ~budget:(Budget.create ~max_derivations:3 ()) budgeted
      with
      | exception _ -> true (* the conflict fired before the cap *)
      | _stats ->
        let added, _removed =
          Helpers.model_diff ~before:full ~after:budgeted
        in
        (* nothing may exist in the budgeted model that full evaluation
           does not derive *)
        added = []))

let qcheck_budget_subset jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "budgeted model subset of full, jobs=%d" jobs)
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000))
    (budget_subset ~jobs)

(* ------------------------------------------------------------------ *)
(* Cancellation latency: after the token is set mid-enumeration, the
   solver may deliver at most one poll interval of further solutions.   *)

let test_cancellation_latency () =
  let n = 80 in
  let b = Buffer.create 1024 in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "o%d : c. " i)
  done;
  let p = Program.of_string (Buffer.contents b) in
  ignore (Program.run p);
  let store = Program.store p in
  (* X : c, Y : c enumerates n^2 = 6400 solutions, several poll
     intervals' worth *)
  let q = Flatten.literals store (Pathlog.Parser.literals "X : c, Y : c") in
  let budget = Budget.create () in
  let interrupt =
    match Fixpoint.interrupt_of (Some budget) with
    | Some f -> f
    | None -> Alcotest.fail "budget produced no interrupt"
  in
  let seen = ref 0 in
  let after_cancel = ref 0 in
  let cancel_at = 10 in
  match
    Solve.iter ~interrupt store q ~f:(fun _ ->
        incr seen;
        if !seen = cancel_at then Budget.cancel budget
        else if !seen > cancel_at then incr after_cancel)
  with
  | () -> Alcotest.fail "enumeration was never cancelled"
  | exception Budget.Exhausted Budget.Cancelled ->
    Alcotest.(check bool)
      (Printf.sprintf "at most one poll interval after cancel (saw %d)"
         !after_cancel)
      true
      (!after_cancel <= Solve.poll_interval)
  | exception Budget.Exhausted r ->
    Alcotest.fail ("wrong exhaustion reason: " ^ Budget.reason_label r)

(* ------------------------------------------------------------------ *)
(* Query-time budgets (outside the fixpoint)                           *)

let test_query_budget () =
  let n = 120 in
  let b = Buffer.create 1024 in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "o%d : c. " i)
  done;
  let p = Program.of_string (Buffer.contents b) in
  ignore (Program.run p);
  (* an already-expired deadline: the enumeration must die at its first
     poll instead of materialising 14400 rows *)
  match
    Program.query_string ~budget:(Budget.create ~deadline_in:(-1.) ()) p
      "X : c, Y : c"
  with
  | _ -> Alcotest.fail "expired budget did not stop the query"
  | exception Budget.Exhausted Budget.Timeout -> ()

let suite =
  [
    Alcotest.test_case "budget: unlimited" `Quick test_unlimited;
    Alcotest.test_case "budget: cancel token" `Quick test_cancel_token;
    Alcotest.test_case "budget: shared token" `Quick test_shared_token;
    Alcotest.test_case "budget: expired deadline" `Quick
      test_expired_deadline;
    Alcotest.test_case "budget: caps" `Quick test_caps;
    Alcotest.test_case "budget: reason labels" `Quick test_reason_labels;
    Alcotest.test_case "deadline degrades, jobs=1" `Quick
      (test_deadline_degrades ~jobs:1);
    Alcotest.test_case "deadline degrades, jobs=4" `Quick
      (test_deadline_degrades ~jobs:4);
    Alcotest.test_case "pre-cancelled run degrades, jobs=1" `Quick
      (test_precancelled_run ~jobs:1);
    Alcotest.test_case "pre-cancelled run degrades, jobs=4" `Quick
      (test_precancelled_run ~jobs:4);
    Alcotest.test_case "derivation cap degrades" `Quick
      test_derivation_cap_degrades;
    Alcotest.test_case "clean run under budget is not degraded" `Quick
      test_clean_run_not_degraded;
    QCheck_alcotest.to_alcotest (qcheck_budget_subset 1);
    QCheck_alcotest.to_alcotest (qcheck_budget_subset 4);
    Alcotest.test_case "cancellation latency is one poll interval" `Quick
      test_cancellation_latency;
    Alcotest.test_case "query-time budget" `Quick test_query_budget;
  ]
