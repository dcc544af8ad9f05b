(* Fault injection, in process: the spec grammar, the determinism of the
   schedule, and the headline chaos property — a full evaluate-and-serve
   cycle under an armed registry never crashes, never corrupts the store,
   and every completed answer equals the fault-free run.

   The registry is process-global, so every test that arms it disarms in
   a [Fun.protect] finally. *)

module Program = Pathlog.Program
module Fault = Pathlog.Fault
module Store = Pathlog.Store
module Server = Pathlog.Server
module Client = Pathlog.Client
module Protocol = Pathlog.Protocol

let with_faults ~seed rules f =
  Fault.configure ~seed rules;
  Fun.protect ~finally:Fault.disable f

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)

let test_parse_ok () =
  match
    Fault.parse "seed=42;store_write:fail@0.01;solver_step:delay@0.5:2"
  with
  | Error msg -> Alcotest.fail msg
  | Ok (seed, rules) ->
    Alcotest.(check int) "seed" 42 seed;
    Alcotest.(check int) "rules" 2 (List.length rules);
    (match rules with
    | [ (Fault.Store_write, Fault.Fail, r1); (Fault.Solver_step, Fault.Delay d, r2) ] ->
      Alcotest.(check (float 1e-9)) "rate 1" 0.01 r1;
      Alcotest.(check (float 1e-9)) "rate 2" 0.5 r2;
      Alcotest.(check (float 1e-9)) "delay seconds" 0.002 d
    | _ -> Alcotest.fail "wrong rules")

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ spec)
      | Error _ -> ())
    [
      "bogus=1";
      "store_write";
      "store_write:fail";
      "store_write:fail@2.0";
      "store_write:fail@x";
      "nowhere:fail@0.1";
      "store_write:explode@0.1";
      "seed=x;store_write:fail@0.1";
    ]

let test_point_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fault.point_to_string p) true
        (Fault.point_of_string (Fault.point_to_string p) = Some p))
    [
      Fault.Store_write;
      Fault.Solver_step;
      Fault.Wire_read;
      Fault.Wire_write;
      Fault.Pool_dispatch;
    ]

(* ------------------------------------------------------------------ *)
(* Schedule determinism                                                *)

let schedule ~seed n =
  with_faults ~seed [ (Fault.Wire_read, Fault.Fail, 0.3) ] (fun () ->
      List.init n (fun _ -> Fault.ask Fault.Wire_read <> None))

let test_deterministic_schedule () =
  let a = schedule ~seed:7 200 in
  let b = schedule ~seed:7 200 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = schedule ~seed:8 200 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  Alcotest.(check bool)
    "rate is roughly honoured" true
    (let fired = List.length (List.filter Fun.id a) in
     fired > 30 && fired < 90)

let test_disabled_is_free () =
  Fault.disable ();
  Alcotest.(check bool) "disarmed" false (Fault.enabled ());
  Alcotest.(check (option unit)) "ask is None" None
    (Option.map ignore (Fault.ask Fault.Store_write));
  Fault.hit Fault.Solver_step;
  Alcotest.(check int) "nothing counted" 0 (Fault.injected_total ())

(* ------------------------------------------------------------------ *)
(* Faults through the engine                                           *)

let program_text =
  "a : c. b : c. X : d <- X : c. X[next -> b] <- X : c. ?- X : d."

let model_of text =
  let p = Program.of_string text in
  ignore (Program.run p);
  p

(* Transient store-write failures are absorbed by the write path's
   bounded retry: the run completes and the model is untouched. *)
let test_store_write_faults_absorbed () =
  let clean = model_of program_text in
  with_faults ~seed:3 [ (Fault.Store_write, Fault.Fail, 0.3) ] (fun () ->
      let p = model_of program_text in
      Alcotest.(check (pair (list string) (list string)))
        "model unchanged under write faults" ([], [])
        (Helpers.model_diff ~before:clean ~after:p);
      Alcotest.(check bool) "faults did fire" true (Fault.injected_total () > 0);
      Alcotest.(check (list string))
        "store invariants hold" []
        (Store.check_invariants (Program.store p)))

(* A solver-step fail fault aborts evaluation with Injected (not a crash,
   not a wrong model): rerunning on the same monotone store converges. *)
let test_solver_step_faults_recoverable () =
  let clean = model_of program_text in
  with_faults ~seed:1 [ (Fault.Solver_step, Fault.Fail, 1.0) ] (fun () ->
      let p = Program.of_string program_text in
      let rec run attempts =
        match Program.run p with
        | _ -> ()
        | exception Fault.Injected Fault.Solver_step ->
          if attempts = 0 then Fault.disable ();
          run (attempts - 1)
      in
      run 3;
      Alcotest.(check (pair (list string) (list string)))
        "model converges across injected aborts" ([], [])
        (Helpers.model_diff ~before:clean ~after:p))

(* ------------------------------------------------------------------ *)
(* The headline chaos property, in miniature (bench/chaos.ml is the
   full storm): serve under wire + dispatch faults, clients reconnect
   and retry, completed answers match, invariants hold, shutdown clean. *)

let test_mini_chaos () =
  let clean = model_of program_text in
  let expected =
    List.sort compare
      (List.map (String.concat "\t") (Pathlog.answers clean "X : d"))
  in
  with_faults ~seed:5
    [
      (Fault.Wire_write, Fault.Short, 0.05);
      (Fault.Wire_read, Fault.Fail, 0.05);
      (Fault.Pool_dispatch, Fault.Fail, 0.1);
    ]
    (fun () ->
      let config =
        { Server.default_config with workers = 2; busy_retry_after_ms = 1 }
      in
      let srv =
        Server.create ~config ~program:clean (Server.Tcp ("127.0.0.1", 0))
      in
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv)
        (fun () ->
          let addr = Server.address srv in
          let completed = ref 0 in
          let conn = ref (Client.connect addr) in
          for _ = 1 to 100 do
            let rec attempt tries =
              if tries > 10 then ()
              else
                match
                  Client.request_with_retry ~max_attempts:3
                    ~base_delay_s:0.001 !conn "QUERY X : d"
                with
                | Ok (Protocol.Ok (_header :: rows)) ->
                  incr completed;
                  Alcotest.(check (list string))
                    "answer equals fault-free run" expected
                    (List.sort compare rows)
                | Ok (Protocol.Ok []) ->
                  Alcotest.fail "empty OK payload"
                | Ok (Protocol.Degraded _) ->
                  Alcotest.fail "DEGRADED from a complete model"
                | Ok (Protocol.Busy _) -> ()
                | Ok (Protocol.Err _ | Protocol.Pong) ->
                  Alcotest.fail "unexpected reply"
                | Error (`Eof | `Malformed _) ->
                  Client.close !conn;
                  conn := Client.connect addr;
                  attempt (tries + 1)
            in
            attempt 0
          done;
          Client.close !conn;
          Alcotest.(check bool)
            (Printf.sprintf "most requests completed (%d)" !completed)
            true (!completed > 50);
          Alcotest.(check bool)
            "faults were injected" true
            (Fault.injected_total () > 0);
          Alcotest.(check (list string))
            "store invariants hold" []
            (Store.check_invariants (Program.store clean))))

(* ------------------------------------------------------------------ *)
(* Injected dispatch faults surface as BUSY with the retry-after hint.  *)

let test_dispatch_fault_is_busy () =
  let p = model_of program_text in
  with_faults ~seed:2 [ (Fault.Pool_dispatch, Fault.Fail, 1.0) ] (fun () ->
      let config =
        { Server.default_config with workers = 1; busy_retry_after_ms = 123 }
      in
      let srv = Server.create ~config ~program:p (Server.Tcp ("127.0.0.1", 0)) in
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv)
        (fun () ->
          let c = Client.connect (Server.address srv) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.request c "QUERY X : d" with
              | Ok (Protocol.Busy (ms, _)) ->
                Alcotest.(check int) "retry-after hint" 123 ms
              | _ -> Alcotest.fail "expected BUSY")))

let suite =
  [
    Alcotest.test_case "fault spec: parse" `Quick test_parse_ok;
    Alcotest.test_case "fault spec: rejects garbage" `Quick test_parse_errors;
    Alcotest.test_case "fault points: name round-trip" `Quick
      test_point_names_roundtrip;
    Alcotest.test_case "schedule is seed-deterministic" `Quick
      test_deterministic_schedule;
    Alcotest.test_case "disarmed registry is inert" `Quick
      test_disabled_is_free;
    Alcotest.test_case "store-write faults absorbed" `Quick
      test_store_write_faults_absorbed;
    Alcotest.test_case "solver-step faults recoverable" `Quick
      test_solver_step_faults_recoverable;
    Alcotest.test_case "mini chaos: serve under faults" `Quick
      test_mini_chaos;
    Alcotest.test_case "dispatch fault answers BUSY with hint" `Quick
      test_dispatch_fault_is_busy;
  ]
