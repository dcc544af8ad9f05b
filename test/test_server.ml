(* The query server: protocol framing, admission control, metrics,
   concurrent correctness, graceful shutdown. *)

open Helpers
module Protocol = Pathlog.Protocol
module Server = Pathlog.Server
module Client = Pathlog.Client

let test_program =
  {|
  automobile :: vehicle.
  manager :: employee.
  e1 : employee[age -> 30; city -> newYork].
  e2 : employee[age -> 45; city -> boston].
  m1 : manager[age -> 50; city -> newYork].
  e1[vehicles ->> {a1, v1}].
  a1 : automobile[cylinders -> 4; color -> red].
  v1 : vehicle[color -> blue].
  |}

(* The server's own framing of an answer (columns + tab-separated rows),
   recomputed locally to validate responses byte-for-byte. *)
let expected_payload p q =
  let a = Pathlog.Program.query_string p q in
  match a.columns with
  | [] -> [ (if a.rows = [] then "no" else "yes") ]
  | columns ->
    let u = Pathlog.Program.universe p in
    String.concat "\t" columns
    :: List.map
         (fun row ->
           String.concat "\t"
             (List.map (Pathlog.Universe.to_string u) row))
         a.rows

let with_server ?config ?(program = test_program) f =
  let p = load program in
  let srv = Server.create ?config ~program:p (Server.Tcp ("127.0.0.1", 0)) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f p srv)

let with_client srv f =
  let c = Client.connect (Server.address srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* ------------------------------------------------------------------ *)
(* Protocol unit tests (no sockets)                                    *)

let test_parse_request () =
  let ok r line =
    Alcotest.(check bool)
      line true
      (match Protocol.parse_request line with
      | Ok got -> got = r
      | Error _ -> false)
  in
  let err line =
    Alcotest.(check bool)
      line true
      (match Protocol.parse_request line with
      | Ok _ -> false
      | Error (Protocol.Badreq, _) -> true
      | Error _ -> false)
  in
  ok Protocol.Ping "PING";
  ok Protocol.Ping "  ping  ";
  ok Protocol.Stats "STATS";
  ok Protocol.Quit "quit";
  ok (Protocol.Query "X : employee") "QUERY X : employee";
  ok (Protocol.Query "X : employee") "query   X : employee";
  ok (Protocol.Why "e1 : employee") "WHY e1 : employee";
  err "";
  err "   ";
  err "FROBNICATE all the things";
  err "QUERY";
  err "WHY   "

let roundtrip reply =
  let rendered = Protocol.render_reply reply in
  let file = Filename.temp_file "plsrv" ".wire" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc rendered;
      close_out oc;
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Protocol.read_reply ic))

let test_reply_roundtrip () =
  let check name reply =
    Alcotest.(check bool) name true (roundtrip reply = Ok reply)
  in
  check "pong" Protocol.Pong;
  check "busy" (Protocol.Busy (50, "queue full"));
  check "busy zero hint" (Protocol.Busy (0, "later"));
  check "err" (Protocol.Err (Protocol.Parse, "unexpected token"));
  check "err timeout" (Protocol.Err (Protocol.Timeout, "deadline exceeded"));
  check "err cancelled" (Protocol.Err (Protocol.Cancelled, "shutting down"));
  check "ok empty" (Protocol.Ok []);
  check "ok payload" (Protocol.Ok [ "X\tZ"; "e1\tred"; "e2\tblue" ]);
  check "degraded empty" (Protocol.Degraded []);
  check "degraded payload" (Protocol.Degraded [ "X"; "p1" ]);
  (* a hint-less BUSY from an older peer parses leniently: hint 0, whole
     rest as the message *)
  Alcotest.(check bool)
    "legacy BUSY readable" true
    (let file = Filename.temp_file "plsrv" ".wire" in
     Fun.protect
       ~finally:(fun () -> Sys.remove file)
       (fun () ->
         let oc = open_out_bin file in
         output_string oc "BUSY queue full\n";
         close_out oc;
         let ic = open_in_bin file in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () ->
             Protocol.read_reply ic = Ok (Protocol.Busy (0, "queue full")))));
  (* embedded newlines are split into extra payload lines, keeping the
     frame self-describing *)
  Alcotest.(check bool)
    "newline payload reframed" true
    (roundtrip (Protocol.Ok [ "a\nb" ]) = Ok (Protocol.Ok [ "a"; "b" ]))

let test_bounded_line () =
  let file = Filename.temp_file "plsrv" ".wire" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc (String.make 100 'x' ^ "\nPING\n");
      close_out oc;
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Alcotest.(check bool)
            "oversized line detected" true
            (Protocol.input_line_bounded ic ~max:10 = Error `Toolarge);
          (* the rest of the long line was drained: the stream is still
             framed and the next request is readable *)
          Alcotest.(check bool)
            "stream stays framed" true
            (Protocol.input_line_bounded ic ~max:10 = Ok "PING");
          Alcotest.(check bool)
            "eof" true
            (Protocol.input_line_bounded ic ~max:10 = Error `Eof)))

let test_histogram () =
  let h = Pathlog.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Pathlog.Histogram.count h);
  Alcotest.(check bool)
    "empty percentile" true
    (Pathlog.Histogram.percentile h 0.99 = 0.);
  (* 100 observations: 1ms .. 100ms *)
  for i = 1 to 100 do
    Pathlog.Histogram.observe h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 100 (Pathlog.Histogram.count h);
  Alcotest.(check bool) "min" true (Pathlog.Histogram.min_s h = 0.001);
  Alcotest.(check bool) "max" true (Pathlog.Histogram.max_s h = 0.1);
  let p99 = Pathlog.Histogram.percentile h 0.99 in
  (* the true p99 is 99ms; bucketed answer must be an upper bound within
     one bucket (<= 100ms) *)
  Alcotest.(check bool)
    (Printf.sprintf "p99 bound (%f)" p99)
    true
    (p99 >= 0.099 && p99 <= 0.1);
  let p50 = Pathlog.Histogram.percentile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 bound (%f)" p50)
    true
    (p50 >= 0.05 && p50 <= 0.1);
  Alcotest.(check bool)
    "mean" true
    (abs_float (Pathlog.Histogram.mean_s h -. 0.0505) < 1e-9);
  let total_bucketed =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Pathlog.Histogram.buckets h)
  in
  Alcotest.(check int) "buckets cover all" 100 total_bucketed

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

(* Poll [cond] for up to 5 s. *)
let wait_until cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < 5. do
    Thread.delay 0.005
  done

let test_pool_sheds_and_drains backend () =
  let pool = Pathlog.Pool.create ~backend ~workers:1 ~capacity:2 () in
  let gate = Mutex.create () in
  let started = Atomic.make false and ran = Atomic.make 0 in
  let admitted = Atomic.make 0 and shed = Atomic.make 0 in
  Mutex.lock gate;
  let call job =
    Thread.create
      (fun () ->
        match Pathlog.Pool.run pool job with
        | Some () -> Atomic.incr admitted
        | None -> Atomic.incr shed)
      ()
  in
  (* the first request holds the one slot, parked on the gate; the next
     two wait for it and the rest are refused at once *)
  let first =
    call (fun () ->
        Atomic.set started true;
        Mutex.lock gate;
        Mutex.unlock gate;
        Atomic.incr ran)
  in
  wait_until (fun () -> Atomic.get started);
  let rest = List.init 10 (fun _ -> call (fun () -> Atomic.incr ran)) in
  wait_until (fun () -> Atomic.get shed >= 8);
  Thread.delay 0.05;
  Alcotest.(check int) "the rest shed" 8 (Atomic.get shed);
  Alcotest.(check int) "nothing finished behind the gate" 0 (Atomic.get ran);
  Mutex.unlock gate;
  Pathlog.Pool.shutdown pool;
  List.iter Thread.join (first :: rest);
  Alcotest.(check int)
    "workers + capacity admits exactly 3" 3 (Atomic.get admitted);
  Alcotest.(check int) "every admitted job ran" 3 (Atomic.get ran);
  Alcotest.(check bool)
    "run after shutdown refused" true
    (Pathlog.Pool.run pool (fun () -> ()) = None)

let test_pool_bounds_concurrency backend () =
  let pool = Pathlog.Pool.create ~backend ~workers:2 ~capacity:8 () in
  let in_flight = Atomic.make 0 and max_in_flight = Atomic.make 0 in
  let rec raise_max n =
    let m = Atomic.get max_in_flight in
    if n > m && not (Atomic.compare_and_set max_in_flight m n) then
      raise_max n
  in
  let job () =
    raise_max (Atomic.fetch_and_add in_flight 1 + 1);
    Thread.delay 0.02;
    Atomic.decr in_flight
  in
  let results = Array.make 8 None in
  let threads =
    List.init 8 (fun i ->
        Thread.create (fun () -> results.(i) <- Pathlog.Pool.run pool job) ())
  in
  List.iter Thread.join threads;
  Pathlog.Pool.shutdown pool;
  Alcotest.(check bool)
    "every request admitted and run" true
    (Array.for_all (( = ) (Some ())) results);
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 in flight (saw %d)" (Atomic.get max_in_flight))
    true
    (Atomic.get max_in_flight <= 2)

(* ------------------------------------------------------------------ *)
(* End-to-end over TCP loopback                                        *)

let test_server_basics () =
  with_server (fun p srv ->
      with_client srv (fun c ->
          Alcotest.(check bool) "ping" true (Client.ping c);
          (* ground queries *)
          Alcotest.(check bool)
            "ground yes" true
            (Client.query c "e1 : employee" = Ok [ "yes" ]);
          Alcotest.(check bool)
            "ground no" true
            (Client.query c "e2 : manager" = Ok [ "no" ]);
          (* a variable query, validated against local evaluation *)
          let q = "X : employee..vehicles : automobile.color[Z]" in
          Alcotest.(check bool)
            "query payload matches local evaluation" true
            (Client.query c q = Ok (expected_payload p q));
          (* WHY gives a proof tree *)
          (match Client.why c "e1 : employee" with
          | Ok (first :: _) ->
            Alcotest.(check bool)
              "proof mentions the fact" true
              (contains ~sub:"e1 : employee" first)
          | Ok [] | Error _ -> Alcotest.fail "WHY failed");
          (match Client.why c "e2 : manager" with
          | Ok lines ->
            Alcotest.(check bool)
              "unknown fact" true
              (lines = [ "not in the model" ])
          | Error _ -> Alcotest.fail "WHY on absent fact failed");
          (* errors never kill the connection *)
          (match Client.request c "QUERY ][ not a query" with
          | Ok (Protocol.Err (Protocol.Parse, _)) -> ()
          | _ -> Alcotest.fail "expected ERR PARSE");
          (match Client.request c "frobnicate" with
          | Ok (Protocol.Err (Protocol.Badreq, _)) -> ()
          | _ -> Alcotest.fail "expected ERR BADREQ");
          Alcotest.(check bool) "alive after errors" true (Client.ping c);
          (* STATS reflects the traffic *)
          match Client.stats c with
          | Error e -> Alcotest.fail ("STATS failed: " ^ e)
          | Ok lines ->
            let has prefix =
              List.exists (String.starts_with ~prefix) lines
            in
            Alcotest.(check bool) "requests_total" true
              (has "requests_total");
            Alcotest.(check bool) "per-verb counters" true
              (has "requests QUERY ok");
            Alcotest.(check bool) "error counters" true
              (has "requests QUERY error");
            Alcotest.(check bool) "latency histogram" true
              (has "latency_p99_us" && has "latency_le");
            Alcotest.(check bool) "store stats" true
              (has "store_objects" && has "store_scalar_tuples")))

let test_server_oversized_request () =
  let config = { Server.default_config with max_request_bytes = 64 } in
  with_server ~config (fun _p srv ->
      with_client srv (fun c ->
          (match Client.request c ("QUERY " ^ String.make 500 'x') with
          | Ok (Protocol.Err (Protocol.Toolarge, _)) -> ()
          | _ -> Alcotest.fail "expected ERR TOOLARGE");
          (* the oversized line was drained; the session still works *)
          Alcotest.(check bool) "alive after TOOLARGE" true (Client.ping c);
          Alcotest.(check bool)
            "still answers" true
            (Client.query c "e1 : employee" = Ok [ "yes" ])))

let test_server_parallel_clients () =
  with_server (fun p srv ->
      let queries =
        [|
          "X : employee";
          "X : vehicle";
          "a1.color[Z]";
          "e1 : employee";
          "X : employee[city -> newYork]";
          "X : manager";
          "v1.color[Z]";
          "X : employee[age -> A]";
        |]
      in
      let expected = Array.map (expected_payload p) queries in
      let failures = Atomic.make 0 in
      let client_thread k =
        with_client srv (fun c ->
            for i = 0 to 49 do
              let qi = (k + i) mod Array.length queries in
              match Client.query c queries.(qi) with
              | Ok lines when lines = expected.(qi) -> ()
              | _ -> Atomic.incr failures
            done)
      in
      let threads = List.init 8 (fun k -> Thread.create client_thread k) in
      List.iter Thread.join threads;
      Alcotest.(check int)
        "8 clients x 50 requests, zero wrong or cross-wired answers" 0
        (Atomic.get failures))

let test_server_busy_shedding () =
  (* one worker, no queue, 300ms artificial service time: while the first
     query is being served, a second request must be shed with BUSY *)
  let config =
    {
      Server.default_config with
      workers = 1;
      queue_capacity = 0;
      work_delay_s = 0.3;
    }
  in
  with_server ~config (fun _p srv ->
      let slow_result = ref None in
      let slow =
        Thread.create
          (fun () ->
            with_client srv (fun c ->
                slow_result := Some (Client.query c "e1 : employee")))
          ()
      in
      Thread.delay 0.1;
      (* the worker is busy and the queue has no room *)
      with_client srv (fun c ->
          (match Client.request c "QUERY e1 : employee" with
          | Ok (Protocol.Busy _) -> ()
          | other ->
            Alcotest.failf "expected BUSY, got %s"
              (match other with
              | Ok (Protocol.Ok _) -> "OK"
              | Ok (Protocol.Degraded _) -> "DEGRADED"
              | Ok Protocol.Pong -> "PONG"
              | Ok (Protocol.Err (c, _)) -> Protocol.code_to_string c
              | Ok (Protocol.Busy _) -> "BUSY"
              | Error _ -> "transport error"));
          (* inline verbs stay responsive under saturation *)
          Alcotest.(check bool) "ping under load" true (Client.ping c));
      Thread.join slow;
      match !slow_result with
      | Some (Ok [ "yes" ]) -> ()
      | Some (Ok lines) ->
        Alcotest.failf "slow request: unexpected payload [%s]"
          (String.concat "; " lines)
      | Some (Error msg) -> Alcotest.failf "slow request failed: %s" msg
      | None -> Alcotest.fail "slow request produced no result")

let test_server_deadline () =
  (* one worker, queue of one, 250ms service time, 50ms deadline: the
     queued request exceeds its deadline while waiting and is answered
     ERR TIMEOUT without being evaluated *)
  let config =
    {
      Server.default_config with
      workers = 1;
      queue_capacity = 1;
      work_delay_s = 0.25;
      deadline_s = Some 0.05;
    }
  in
  with_server ~config (fun _p srv ->
      let first = ref None and second = ref None in
      let t1 =
        Thread.create
          (fun () ->
            with_client srv (fun c ->
                first := Some (Client.query c "e1 : employee")))
          ()
      in
      Thread.delay 0.1;
      let t2 =
        Thread.create
          (fun () ->
            with_client srv (fun c ->
                second := Some (Client.request c "QUERY e1 : employee")))
          ()
      in
      Thread.join t1;
      Thread.join t2;
      Alcotest.(check bool)
        "first request served" true
        (!first = Some (Ok [ "yes" ]));
      match !second with
      | Some (Ok (Protocol.Err (Protocol.Timeout, _))) -> ()
      | _ -> Alcotest.fail "expected ERR TIMEOUT for the queued request")

let test_server_clean_shutdown () =
  let srv_ref = ref None in
  with_server (fun _p srv ->
      srv_ref := Some srv;
      (* an idle connection parked in read, and normal traffic *)
      let idle = Client.connect (Server.address srv) in
      with_client srv (fun c ->
          Alcotest.(check bool) "served before shutdown" true (Client.ping c));
      Server.shutdown srv;
      (* idle session was woken and closed *)
      Alcotest.(check bool)
        "idle connection closed" true
        (match Client.request idle "PING" with
        | Error `Eof -> true
        | Ok _ | Error (`Malformed _) -> false);
      Client.close idle;
      (* the listener is gone *)
      Alcotest.(check bool)
        "connect refused after shutdown" true
        (match Client.connect (Server.address srv) with
        | c ->
          Client.close c;
          false
        | exception Unix.Unix_error _ -> true));
  (* with_server's finally calls shutdown again: idempotency exercised *)
  match !srv_ref with
  | Some srv -> Server.shutdown srv
  | None -> Alcotest.fail "server was not created"

(* The accept loop wakes on the stop request itself, not on a poll, so
   a shutdown right after a served connection ends well within 50 ms.
   The median of five cycles keeps one slow host moment from failing
   it. *)
let test_shutdown_is_prompt () =
  let cycle () =
    let p = load test_program in
    let srv = Server.create ~program:p (Server.Tcp ("127.0.0.1", 0)) in
    with_client srv (fun c ->
        match Client.query c "?- e1 : employee." with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("QUERY failed: " ^ e));
    let t0 = Unix.gettimeofday () in
    Server.shutdown srv;
    Unix.gettimeofday () -. t0
  in
  let times = List.sort compare (List.init 5 (fun _ -> cycle ())) in
  let median = List.nth times 2 in
  if median > 0.05 then
    Alcotest.failf "shutdown after a served QUERY took %.0f ms (median of 5)"
      (1000. *. median)

(* A connection made after the stop, while the listener is still open,
   waits in the backlog (or is accepted by a loop that already sees the
   stop): either way it reads BUSY, not a bare close. *)
let test_shutdown_answers_backlog () =
  with_server (fun _p srv ->
      Server.request_stop srv;
      (* past the accept loop's 0.2 s poll: the loop has exited *)
      Thread.delay 0.3;
      let c = Client.connect (Server.address srv) in
      let reply = ref None in
      let th =
        Thread.create
          (fun () -> reply := Some (Client.request c "QUERY e1 : employee"))
          ()
      in
      Thread.delay 0.05;
      Server.shutdown srv;
      Thread.join th;
      Client.close c;
      match !reply with
      | Some (Ok (Protocol.Busy (_, msg))) ->
        Alcotest.(check string) "busy reason" "shutting down" msg
      | Some (Ok r) ->
        Alcotest.failf "expected BUSY, got %s" (Protocol.render_reply r)
      | Some (Error `Eof) -> Alcotest.fail "expected BUSY, got a bare close"
      | Some (Error (`Malformed m)) -> Alcotest.fail ("malformed reply: " ^ m)
      | None -> Alcotest.fail "no reply")

let test_server_unix_socket () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pathlog-test-%d.sock" (Unix.getpid ()))
  in
  let p = load test_program in
  let srv = Server.create ~program:p (Server.Unix_path path) in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () ->
      let c = Client.connect (Server.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Alcotest.(check bool) "ping over unix socket" true (Client.ping c);
          Alcotest.(check bool)
            "query over unix socket" true
            (Client.query c "e1 : employee" = Ok [ "yes" ])));
  Alcotest.(check bool)
    "socket file unlinked on shutdown" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Budgets end to end: deadlines kill mid-evaluation, shutdown cancels
   in-flight work, degraded models are marked on the wire.              *)

(* Enough nodes that the triple cross-join enumerates tens of millions
   of solutions — minutes of work, so only the deadline can end it. *)
let slow_query_program =
  let b = Buffer.create (1 lsl 16) in
  for i = 0 to 299 do
    Buffer.add_string b (Printf.sprintf "n%d : node. " i)
  done;
  Buffer.contents b

let slow_query = "X : node, Y : node, Z : node"

let test_mid_eval_timeout ~domains () =
  let deadline = 0.1 in
  let config =
    {
      Server.default_config with
      workers = (if domains then 4 else 1);
      pool_domains = domains;
      deadline_s = Some deadline;
    }
  in
  with_server ~config ~program:slow_query_program (fun _p srv ->
      with_client srv (fun c ->
          let t0 = Unix.gettimeofday () in
          let reply = Client.request c ("QUERY " ^ slow_query) in
          let elapsed = Unix.gettimeofday () -. t0 in
          (match reply with
          | Ok (Protocol.Err (Protocol.Timeout, _)) -> ()
          | _ -> Alcotest.fail "expected ERR TIMEOUT mid-evaluation");
          Alcotest.(check bool)
            (Printf.sprintf "killed within ~2x the deadline (%.3fs)" elapsed)
            true
            (elapsed < 2. *. deadline);
          (* the server is fine: the next request is served *)
          Alcotest.(check bool) "alive after kill" true (Client.ping c)))

let test_shutdown_cancels_inflight () =
  let config = { Server.default_config with workers = 1 } in
  with_server ~config ~program:slow_query_program (fun _p srv ->
      let result = ref None in
      let th =
        Thread.create
          (fun () ->
            with_client srv (fun c ->
                result := Some (Client.request c ("QUERY " ^ slow_query))))
          ()
      in
      Thread.delay 0.15;
      (* the evaluation would run for minutes; shutdown must cancel it *)
      let t0 = Unix.gettimeofday () in
      Server.shutdown srv;
      let drain = Unix.gettimeofday () -. t0 in
      Thread.join th;
      Alcotest.(check bool)
        (Printf.sprintf "drain was prompt (%.3fs)" drain)
        true (drain < 5.);
      match !result with
      | Some (Ok (Protocol.Err (Protocol.Cancelled, _))) -> ()
      | Some (Error `Eof) ->
        (* also acceptable: the reply raced the socket teardown *)
        ()
      | _ -> Alcotest.fail "expected ERR CANCELLED for the in-flight query")

(* Shutdown drains the gate: with one slot and 300ms of service time,
   the request holding the slot and the one waiting for it are both
   answered before their sessions close. *)
let test_shutdown_answers_gated ~domains () =
  let config =
    {
      Server.default_config with
      workers = 1;
      pool_domains = domains;
      work_delay_s = 0.3;
    }
  in
  with_server ~config (fun _p srv ->
      let ask result =
        Thread.create
          (fun () ->
            with_client srv (fun c ->
                result := Some (Client.request c "QUERY e1 : employee")))
          ()
      in
      let running = ref None and waiting = ref None in
      let t1 = ask running in
      Thread.delay 0.1;
      let t2 = ask waiting in
      Thread.delay 0.1;
      Server.shutdown srv;
      Thread.join t1;
      Thread.join t2;
      let answered name = function
        | Some (Ok (Protocol.Ok _ | Protocol.Err (Protocol.Cancelled, _))) ->
          ()
        | Some (Ok _) -> Alcotest.failf "%s request: unexpected reply" name
        | Some (Error _) -> Alcotest.failf "%s request: session closed" name
        | None -> Alcotest.failf "%s request: no result" name
      in
      answered "running" !running;
      answered "waiting" !waiting)

let test_degraded_marker () =
  (* a program whose materialisation was cut short by a budget: every OK
     answer over it must be marked DEGRADED on the wire, and the STATS
     counters must say so *)
  let config =
    {
      Pathlog.Fixpoint.default_config with
      max_rounds = 1_000_000;
      max_objects = 1_000_000_000;
    }
  in
  let p =
    Pathlog.Program.of_string ~config
      "p0 : pair. X.left : pair <- X : pair."
  in
  ignore
    (Pathlog.Program.run
       ~budget:(Pathlog.Budget.create ~max_derivations:20 ()) p);
  Alcotest.(check bool)
    "program is degraded" true
    (Pathlog.Program.degraded p <> None);
  let srv =
    Server.create
      ~config:{ Server.default_config with workers = 1 }
      ~program:p
      (Server.Tcp ("127.0.0.1", 0))
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () ->
      with_client srv (fun c ->
          (match Client.query_marked c "p0 : pair" with
          | Ok { Client.lines = [ "yes" ]; degraded = true } -> ()
          | Ok { Client.degraded = false; _ } ->
            Alcotest.fail "payload not marked DEGRADED"
          | Ok _ -> Alcotest.fail "unexpected payload"
          | Error msg -> Alcotest.fail msg);
          (* plain [query] accepts the marked payload transparently *)
          Alcotest.(check bool)
            "query accepts DEGRADED" true
            (Client.query c "p0 : pair" = Ok [ "yes" ]);
          match Client.stats c with
          | Error msg -> Alcotest.fail msg
          | Ok lines ->
            let has prefix =
              List.exists (String.starts_with ~prefix) lines
            in
            Alcotest.(check bool)
              "degraded_total counted" true
              (List.exists
                 (fun l ->
                   String.starts_with ~prefix:"degraded_total " l
                   && l <> "degraded_total 0")
                 lines);
            Alcotest.(check bool)
              "cancelled_total present" true (has "cancelled_total ");
            Alcotest.(check bool)
              "injected_faults present" true (has "injected_faults ")))

(* ------------------------------------------------------------------ *)
(* Live mutation: ASSERT / RETRACT / SUBSCRIBE                         *)

let tc_program =
  {|
  a[edge ->> {b}]. b[edge ->> {c}].
  X[tc ->> {Y}] <- X[edge ->> {Y}].
  X[tc ->> {Y}] <- X[edge ->> {Z}] , Z[tc ->> {Y}].
  |}

let test_live_mutation () =
  with_server ~program:tc_program (fun _p srv ->
      with_client srv (fun c ->
          (* assert: new edges extend the closure (and the a->c edge
             makes a's reach of c doubly supported) *)
          (match Client.assert_facts c "c[edge ->> {d}]. a[edge ->> {c}]." with
          | Error e -> Alcotest.fail ("ASSERT failed: " ^ e)
          | Ok r ->
            Alcotest.(check string) "assert strategy" "counting" r.strategy;
            Alcotest.(check bool) "epoch advanced" true (r.epoch > 0));
          Alcotest.(check (result (list string) string))
            "closure extended"
            (Ok [ "yes" ])
            (Client.query c "a[tc ->> {d}]");
          (* retract one support of the recursively derived closure: b's
             reach of c and d is deleted, while a's reach of c keeps a
             proof through the direct edge *)
          (match Client.retract_facts c "b[edge ->> {c}]." with
          | Error e -> Alcotest.fail ("RETRACT failed: " ^ e)
          | Ok r ->
            Alcotest.(check string) "retract strategy" "dred" r.strategy);
          Alcotest.(check (result (list string) string))
            "b's reach gone"
            (Ok [ "no" ])
            (Client.query c "b[tc ->> {d}]");
          Alcotest.(check (result (list string) string))
            "a's reach re-derived"
            (Ok [ "yes" ])
            (Client.query c "a[tc ->> {c}]");
          (* the analysis gate rejects a definite conflict atomically *)
          (match Client.assert_facts c "x[age -> 1]. x[age -> 2]." with
          | Ok _ -> Alcotest.fail "conflicting batch accepted"
          | Error e ->
            Alcotest.(check bool)
              ("ANALYSIS error: " ^ e)
              true
              (String.length e >= 8 && String.sub e 0 8 = "ANALYSIS"));
          Alcotest.(check (result (list string) string))
            "gate left no partial write"
            (Ok [ "no" ])
            (Client.query c "x[age -> 1]");
          (* retracting an absent extensional fact is refused *)
          (match Client.retract_facts c "a[edge ->> {zz}]." with
          | Ok _ -> Alcotest.fail "absent retraction accepted"
          | Error e ->
            Alcotest.(check bool)
              ("BADREQ error: " ^ e)
              true
              (String.length e >= 6 && String.sub e 0 6 = "BADREQ"));
          (* counters *)
          match Client.stats c with
          | Error e -> Alcotest.fail e
          | Ok lines ->
            let has l = List.mem l lines in
            Alcotest.(check bool) "asserts_total 1" true
              (has "asserts_total 1");
            Alcotest.(check bool) "retracts_total 1" true
              (has "retracts_total 1");
            Alcotest.(check bool) "subscriptions_active 0" true
              (has "subscriptions_active 0")))

let test_subscribe_push () =
  with_server ~program:tc_program (fun _p srv ->
      with_client srv (fun subscriber ->
          with_client srv (fun writer ->
              let sub =
                match Client.subscribe subscriber "a[tc ->> {Y}]" with
                | Ok s -> s
                | Error e -> Alcotest.fail ("SUBSCRIBE failed: " ^ e)
              in
              Alcotest.(check (list string))
                "baseline closure" [ "b"; "c" ] sub.Client.baseline;
              (* an assert batch extends the closure: DELTA + *)
              (match Client.assert_facts writer "c[edge ->> {d}]." with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
              (match Client.next_delta ~timeout_s:5.0 subscriber with
              | None -> Alcotest.fail "no DELTA after assert"
              | Some d ->
                Alcotest.(check int) "sub id" sub.Client.sub_id
                  d.Protocol.sub_id;
                Alcotest.(check (list string))
                  "appeared" [ "d" ] d.Protocol.appeared;
                Alcotest.(check (list string))
                  "vanished" [] d.Protocol.vanished);
              (* retracting a support of the recursively derived facts:
                 DELTA - for everything that lost its derivation *)
              (match Client.retract_facts writer "b[edge ->> {c}]." with
              | Ok r ->
                Alcotest.(check bool) "model shrank" true (r.removed > 0)
              | Error e -> Alcotest.fail ("RETRACT failed: " ^ e));
              (match Client.next_delta ~timeout_s:5.0 subscriber with
              | None -> Alcotest.fail "no DELTA after retract"
              | Some d ->
                Alcotest.(check (list string))
                  "appeared" [] d.Protocol.appeared;
                Alcotest.(check (list string))
                  "vanished" [ "c"; "d" ] d.Protocol.vanished);
              (* an unrelated batch produces no frame *)
              (match Client.assert_facts writer "q[edge ->> {r}]." with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
              (match Client.next_delta ~timeout_s:0.2 subscriber with
              | None -> ()
              | Some _ -> Alcotest.fail "spurious DELTA");
              (* a subscribing session can also mutate: its own DELTA
                 arrives before the ASSERT reply and is queued *)
              (match Client.assert_facts subscriber "a[edge ->> {e}]." with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
              (match Client.next_delta ~timeout_s:5.0 subscriber with
              | None -> Alcotest.fail "no DELTA for own assert"
              | Some d ->
                Alcotest.(check (list string))
                  "appeared" [ "e" ] d.Protocol.appeared);
              (* live subscription gauge *)
              match Client.stats writer with
              | Error e -> Alcotest.fail e
              | Ok lines ->
                Alcotest.(check bool)
                  "subscriptions_active 1" true
                  (List.mem "subscriptions_active 1" lines))))

let test_subscribe_ground () =
  with_server ~program:tc_program (fun _p srv ->
      with_client srv (fun subscriber ->
          with_client srv (fun writer ->
              let sub =
                match Client.subscribe subscriber "a[tc ->> {d}]" with
                | Ok s -> s
                | Error e -> Alcotest.fail ("SUBSCRIBE failed: " ^ e)
              in
              Alcotest.(check (list string))
                "not yet entailed" [] sub.Client.baseline;
              (match Client.assert_facts writer "c[edge ->> {d}]." with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
              (match Client.next_delta ~timeout_s:5.0 subscriber with
              | None -> Alcotest.fail "no DELTA"
              | Some d ->
                Alcotest.(check (list string))
                  "entailed" [ "true" ] d.Protocol.appeared);
              match Client.retract_facts writer "c[edge ->> {d}]." with
              | Error e -> Alcotest.fail ("RETRACT failed: " ^ e)
              | Ok _ -> (
                match Client.next_delta ~timeout_s:5.0 subscriber with
                | None -> Alcotest.fail "no DELTA"
                | Some d ->
                  Alcotest.(check (list string))
                    "no longer entailed" [ "true" ] d.Protocol.vanished))))

(* ------------------------------------------------------------------ *)
(* Demand mode: serve --demand                                         *)

(* Two disjoint boss chains with a transitive [up] closure; in demand
   mode, querying one chain must not materialise the other. *)
let demand_program =
  {|
  a0[boss -> a1]. a1[boss -> a2]. a2[boss -> a3].
  b0[boss -> b1]. b1[boss -> b2].
  X[up ->> {Y}] <- X[boss -> Y].
  X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].
  |}

(* Demand servers start from a parsed, {e unevaluated} program. *)
let with_demand_server ~program f =
  let p = Pathlog.parse program in
  let config = { Server.default_config with demand = true } in
  let srv = Server.create ~config ~program:p (Server.Tcp ("127.0.0.1", 0)) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f p srv)

let stat_value lines key =
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = key ->
        int_of_string_opt
          (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    lines

let test_demand_queries () =
  (* a fully materialised twin supplies the expected payloads *)
  let full = load demand_program in
  with_demand_server ~program:demand_program (fun _p srv ->
      with_client srv (fun c ->
          let check_q q =
            match Client.query c ("?- " ^ q ^ ".") with
            | Error e -> Alcotest.fail ("QUERY failed: " ^ e)
            | Ok lines ->
              Alcotest.(check (list string))
                ("demand answer agrees with full: " ^ q)
                (List.sort compare (expected_payload full ("?- " ^ q ^ ".")))
                (List.sort compare lines)
          in
          check_q "a0[up ->> {X}]";
          (* the repeat takes the ordinary read path (and the cache) *)
          check_q "a0[up ->> {X}]";
          check_q "b1[up ->> {X}]";
          match Client.stats c with
          | Error e -> Alcotest.fail ("STATS failed: " ^ e)
          | Ok lines ->
            Alcotest.(check bool) "two demanded queries" true
              (stat_value lines "demand_queries_total" = Some 2);
            Alcotest.(check bool) "no fallback" true
              (stat_value lines "demand_fallbacks_total" = Some 0);
            Alcotest.(check bool) "magic facts counted" true
              (match stat_value lines "magic_facts" with
              | Some n -> n > 0
              | None -> false)))

(* The rule-mutation-mid-subscription golden: a mutation arriving while
   only demanded fragments exist forces full materialisation (counted as
   a fallback), and the standing query still sees a correct DELTA. *)
let test_demand_mutation_fallback () =
  with_demand_server ~program:demand_program (fun _p srv ->
      with_client srv (fun subscriber ->
          with_client srv (fun writer ->
              let sub =
                match Client.subscribe subscriber "a0[up ->> {Y}]" with
                | Ok s -> s
                | Error e -> Alcotest.fail ("SUBSCRIBE failed: " ^ e)
              in
              Alcotest.(check (list string))
                "baseline from the demanded fragment"
                [ "a1"; "a2"; "a3" ] sub.Client.baseline;
              (match Client.assert_facts writer "a3[boss -> a4]." with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
              (match Client.next_delta ~timeout_s:5.0 subscriber with
              | None -> Alcotest.fail "no DELTA after assert"
              | Some d ->
                Alcotest.(check (list string))
                  "appeared" [ "a4" ] d.Protocol.appeared;
                Alcotest.(check (list string))
                  "vanished" [] d.Protocol.vanished);
              (* the store is fully materialised now: the other chain
                 answers on the plain read path *)
              (match Client.query writer "?- b0[up ->> {X}]." with
              | Error e -> Alcotest.fail ("QUERY failed: " ^ e)
              | Ok lines ->
                Alcotest.(check (list string))
                  "post-fallback answer" [ "X"; "b1"; "b2" ]
                  (List.sort compare lines));
              match Client.stats writer with
              | Error e -> Alcotest.fail ("STATS failed: " ^ e)
              | Ok lines ->
                Alcotest.(check bool) "mutation counted as fallback" true
                  (match stat_value lines "demand_fallbacks_total" with
                  | Some n -> n >= 1
                  | None -> false))))

(* --admit-cost: a query whose statically predicted derivation count
   exceeds the bound is refused with ERR COST before any evaluation —
   the result cache never even sees a lookup — while cheap queries over
   the same program are answered normally. *)
let admit_program =
  {|
  n1 : node. n2 : node. n3 : node.
  n1[edge ->> {n2}]. n2[edge ->> {n3}].
  X[trace ->> {Y}] <- X[edge ->> {Y}].
  X[edge ->> {Y}] <- X[trace ->> {Y}].
  e1 : employee[age -> 30].
  |}

let test_admit_cost () =
  (* unit: a creation cycle is predicted infinite (never materialise
     this program — its minimal model does not exist) *)
  let p =
    Pathlog.Program.of_string "p0 : pair.\nX.left : pair <- X : pair."
  in
  let st = Pathlog.Program.store p in
  let rules = Pathlog.Program.rules p in
  let t =
    Pathlog.Absint.analyze ~facts:(Pathlog.Program.facts p) st rules
  in
  (match
     Pathlog.Absint.query_cost t st rules
       (Pathlog.Program.parse_query "X : pair")
   with
  | `Infinite -> ()
  | `Bound est ->
    Alcotest.failf "creation cycle predicted finite (%d)" est);
  (* e2e over the wire *)
  let config = { Server.default_config with admit_cost = Some 10 } in
  with_server ~config ~program:admit_program (fun _p srv ->
      with_client srv (fun c ->
          (match Client.request c "QUERY X[trace ->> {Y}]" with
          | Ok (Protocol.Err (Protocol.Cost, msg)) ->
            Alcotest.(check bool)
              "message names the bound" true
              (contains ~sub:"admit-cost bound 10" msg)
          | Ok r ->
            Alcotest.failf "expected ERR COST, got %s"
              (Protocol.render_reply r)
          | Error `Eof -> Alcotest.fail "request failed: eof"
          | Error (`Malformed m) ->
            Alcotest.fail ("request failed: " ^ m));
          (* the rejection happened before evaluation: no cache lookup *)
          let cs = Server.cache_stats srv in
          Alcotest.(check int)
            "no evaluation behind the rejection" 0 (cs.hits + cs.misses);
          (* a cheap query on the same connection still evaluates *)
          match Client.query c "e1 : employee" with
          | Ok [ "yes" ] -> ()
          | Ok lines ->
            Alcotest.failf "cheap query answered oddly: %s"
              (String.concat "|" lines)
          | Error e -> Alcotest.fail ("cheap query failed: " ^ e)))

(* ------------------------------------------------------------------ *)
(* STATS keys: the golden list, in order, values ignored               *)

(* A line's key is everything before its last word (its value); the
   non-empty [latency_le BOUND] buckets vary with timing, so they fold
   into one [latency_le] key. *)
let stats_keys lines =
  let key line =
    let k =
      match String.rindex_opt line ' ' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    if String.starts_with ~prefix:"latency_le " k then "latency_le" else k
  in
  List.fold_right
    (fun line acc ->
      match acc with
      | k :: _ when k = key line -> acc
      | _ -> key line :: acc)
    lines []

let golden_stats_keys =
  [
    "uptime_s"; "connections_active"; "connections_total"; "requests_total";
    "cancelled_total"; "degraded_total"; "injected_faults"; "asserts_total";
    "retracts_total"; "subscriptions_active"; "deltas_pushed";
    "demand_queries_total"; "demand_fallbacks_total"; "reads_locked_total";
    "magic_facts"; "regex_plans_total"; "product_states_expanded";
    "requests PING ok"; "latency_count"; "latency_min_us"; "latency_mean_us";
    "latency_max_us"; "latency_p50_us"; "latency_p99_us"; "latency_le";
    "store_objects"; "store_isa_edges"; "store_scalar_tuples";
    "store_set_tuples"; "heap_words"; "top_heap_words"; "cache_hits";
    "cache_misses"; "cache_entries";
    "cache_bytes"; "cache_evictions"; "cache_stale";
  ]

let golden_wal_keys =
  [ "wal_appends_total"; "wal_bytes"; "snapshots_total"; "last_recovery_ms" ]

(* One PING, then STATS: the keys must be exactly [expected]. *)
let check_stats_keys name srv expected =
  with_client srv (fun c ->
      Alcotest.(check bool) (name ^ ": ping") true (Client.ping c);
      match Client.stats c with
      | Error e -> Alcotest.fail ("STATS failed: " ^ e)
      | Ok lines ->
        Alcotest.(check (list string)) (name ^ ": STATS keys") expected
          (stats_keys lines))

let test_stats_golden_keys () =
  with_server (fun _p srv ->
      check_stats_keys "plain" srv golden_stats_keys);
  with_demand_server ~program:demand_program (fun _p srv ->
      check_stats_keys "demand" srv golden_stats_keys);
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "plstats-%d" (Unix.getpid ()))
  in
  let rm_dir () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_dir (fun () ->
      let config = { Server.default_config with data_dir = Some dir } in
      with_server ~config (fun _p srv ->
          Server.await_ready srv;
          check_stats_keys "data_dir" srv (golden_stats_keys @ golden_wal_keys)))

(* Each name registers once, whatever its kind; a failed registration
   leaves the registry as it was. *)
let test_metrics_register_twice () =
  let m = Pathlog.Metrics.create () in
  let hits = Atomic.make 0 in
  Pathlog.Metrics.counter m "hits" hits;
  Pathlog.Metrics.readout m "cache" (fun () -> [ ("cache_size", "1") ]);
  let twice name f =
    Alcotest.check_raises name
      (Invalid_argument ("Metrics: " ^ name ^ " is already registered"))
      f
  in
  twice "hits" (fun () -> Pathlog.Metrics.counter m "hits" (Atomic.make 0));
  twice "cache" (fun () -> Pathlog.Metrics.readout m "cache" (fun () -> []));
  twice "hits" (fun () -> Pathlog.Metrics.readout m "hits" (fun () -> []));
  Atomic.incr hits;
  Alcotest.(check (list string))
    "render in registration order" [ "hits 1"; "cache_size 1" ]
    (Pathlog.Metrics.render m)

(* ------------------------------------------------------------------ *)
(* The result cache is keyed by the model version                      *)

let query_lines c q =
  match Client.query c q with
  | Ok lines -> List.sort compare lines
  | Error e -> Alcotest.failf "QUERY %s failed: %s" q e

let stats_of c =
  match Client.stats c with
  | Ok lines -> fun key -> Option.value ~default:(-1) (stat_value lines key)
  | Error e -> Alcotest.fail ("STATS failed: " ^ e)

(* A demand first sight only materialises more of the same model, so a
   cached answer for chain a stays a hit after chain b's first sight; an
   ASSERT moves the model and makes it stale. *)
let test_cache_survives_first_sight () =
  with_demand_server ~program:demand_program (fun _p srv ->
      with_client srv (fun c ->
          let a = "a0[up ->> {X}]" and b = "b0[up ->> {X}]" in
          let a_rows = query_lines c a in
          Alcotest.(check (list string))
            "chain a" [ "X"; "a1"; "a2"; "a3" ] a_rows;
          (* two repeats: the second hits even where a first sight's
             reply is not cached *)
          for _ = 1 to 2 do
            Alcotest.(check (list string))
              "repeat of a" a_rows (query_lines c a)
          done;
          let hits = (stats_of c) "cache_hits" in
          Alcotest.(check bool) "the repeat hit" true (hits >= 1);
          Alcotest.(check (list string))
            "chain b" [ "X"; "b1"; "b2" ] (query_lines c b);
          Alcotest.(check (list string))
            "a after b's first sight" a_rows (query_lines c a);
          let st = stats_of c in
          Alcotest.(check int) "a still hits" (hits + 1) (st "cache_hits");
          Alcotest.(check int) "nothing went stale" 0 (st "cache_stale");
          Alcotest.(check int) "two demanded queries" 2
            (st "demand_queries_total");
          (match Client.assert_facts c "a3[boss -> a4]." with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
          Alcotest.(check (list string))
            "a after the assert" [ "X"; "a1"; "a2"; "a3"; "a4" ]
            (query_lines c a);
          let st = stats_of c in
          Alcotest.(check int) "the assert made a stale" 1 (st "cache_stale");
          Alcotest.(check int) "no hit across the assert" (hits + 1)
            (st "cache_hits")))

(* The exact bytes of one OK reply frame, read off a raw connection. *)
let raw_frame (ic, oc) line =
  output_string oc (line ^ "\n");
  flush oc;
  let header = input_line ic in
  let n = Scanf.sscanf header "OK %d" Fun.id in
  let b = Buffer.create 64 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (header :: List.init n (fun _ -> input_line ic));
  Buffer.contents b

let with_raw srv f =
  match Server.address srv with
  | Server.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        f (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd))
  | Server.Unix_path _ -> Alcotest.fail "expected a TCP server"

let why_program =
  {|
  e1[boss -> m1]. m1[boss -> c1].
  X[up ->> {Y}] <- X[boss -> Y].
  X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].
  |}

(* A hit sends the bytes a fresh evaluation renders, for QUERY and WHY,
   before and after an ASSERT moves the model version. *)
let test_cache_hit_bytes () =
  with_server ~program:why_program (fun p srv ->
      with_raw srv (fun raw ->
          let fresh_query q =
            Protocol.render_reply (Protocol.Ok (expected_payload p q))
          in
          let fresh_why f =
            Protocol.render_reply
              (Protocol.Ok
                 (match Pathlog.Program.why_string p f with
                 | Some proof ->
                   Pathlog.Provenance.proof_lines (Pathlog.Program.universe p)
                     proof
                 | None -> [ "not in the model" ]))
          in
          let hits () = (Server.cache_stats srv).Pathlog.Qcache.hits in
          (* a miss, then a hit; both frames equal the fresh rendering *)
          let check name line fresh =
            let h = hits () in
            let miss = raw_frame raw line in
            let hit = raw_frame raw line in
            Alcotest.(check int) (name ^ ": one hit") (h + 1) (hits ());
            Alcotest.(check string) (name ^ ": miss = fresh") (fresh ()) miss;
            Alcotest.(check string) (name ^ ": hit = fresh") (fresh ()) hit
          in
          let q = "e1[up ->> {X}]" and f = "e1[up ->> {c1}]" in
          check "query" ("QUERY " ^ q) (fun () -> fresh_query q);
          check "why" ("WHY " ^ f) (fun () -> fresh_why f);
          Alcotest.(check bool) "the proof is a proof" true
            (fresh_why f <> "OK 1\nnot in the model\n");
          with_client srv (fun c ->
              match Client.assert_facts c "c1[boss -> d1]." with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
          let stale = (Server.cache_stats srv).Pathlog.Qcache.stale in
          check "query after the assert" ("QUERY " ^ q) (fun () ->
              fresh_query q);
          Alcotest.(check bool) "d1 in the answer" true
            (contains ~sub:"d1" (fresh_query q));
          check "why after the assert" ("WHY " ^ f) (fun () -> fresh_why f);
          check "new why after the assert" "WHY e1[up ->> {d1}]" (fun () ->
              fresh_why "e1[up ->> {d1}]");
          Alcotest.(check int) "both earlier entries went stale" (stale + 2)
            (Server.cache_stats srv).Pathlog.Qcache.stale))

(* In demand mode a first sight adds facts without moving the model
   version, so a WHY answered before it must not be served after it. *)
let test_demand_why_not_cached () =
  with_demand_server ~program:demand_program (fun p srv ->
      with_client srv (fun c ->
          let f = "a0[up ->> {a3}]" in
          let why () =
            match Client.why c f with
            | Ok lines -> lines
            | Error e -> Alcotest.fail ("WHY failed: " ^ e)
          in
          Alcotest.(check (list string))
            "before the first sight" [ "not in the model" ] (why ());
          ignore (query_lines c "a0[up ->> {X}]" : string list);
          let after = why () in
          Alcotest.(check bool) "after the first sight, a proof" true
            (after <> [ "not in the model" ]);
          Alcotest.(check (list string))
            "the proof a fresh evaluation gives"
            (match Pathlog.Program.why_string p f with
            | Some proof ->
              Pathlog.Provenance.proof_lines (Pathlog.Program.universe p) proof
            | None -> [ "not in the model" ])
            after))

(* Random interleavings of first sights, repeats, ASSERT and RETRACT on
   a demand server over edge chains: every reply must equal the answer
   of a fresh, fully materialised program holding the edges in force at
   that point. The queries cover the prepared demand entries: skeletons
   shared across constants and across variable names, a repeated
   constant, and a chained query whose magic rule carries its constant
   (an entry per constant). *)
let cache_chains = 3
let cache_length = 4

let cache_node c i = Printf.sprintf "k%dn%d" c i

let cache_queries =
  Array.of_list
    (List.concat_map
       (fun c ->
         [
           Printf.sprintf "%s[tc ->> {Y}]" (cache_node c 0);
           Printf.sprintf "%s[tc ->> {Y}]" (cache_node c 2);
           Printf.sprintf "X[tc ->> {%s}]" (cache_node c cache_length);
           Printf.sprintf "%s[tc ->> {Z}]" (cache_node c 1);
           Printf.sprintf "%s[tc ->> {%s}]" (cache_node c 1) (cache_node c 1);
           Printf.sprintf "%s[edge ->> {X}], X[tc ->> {Y}]" (cache_node c 0);
         ])
       (List.init cache_chains Fun.id))

let cache_program edges =
  String.concat "\n"
    (List.map (fun (a, b) -> Printf.sprintf "%s[edge ->> {%s}]." a b) edges
    @ [
        "X[tc ->> {Y}] <- X[edge ->> {Y}].";
        "X[tc ->> {Y}] <- X[edge ->> {Z}], Z[tc ->> {Y}].";
      ])

let cache_base_edges =
  List.concat_map
    (fun c ->
      List.init cache_length (fun i -> (cache_node c i, cache_node c (i + 1))))
    (List.init cache_chains Fun.id)

type cache_op = Ask of int | Toggle of (string * string)

let cache_op_gen =
  let open QCheck.Gen in
  let node =
    map2 cache_node (int_bound (cache_chains - 1)) (int_bound cache_length)
  in
  frequency
    [
      (3, map (fun i -> Ask i) (int_bound (Array.length cache_queries - 1)));
      (1, map2 (fun a b -> Toggle (a, b)) node node);
    ]

let cache_op_print = function
  | Ask i -> "QUERY " ^ cache_queries.(i)
  | Toggle (a, b) -> Printf.sprintf "toggle %s[edge ->> {%s}]" a b

let cache_interleaving =
  QCheck.Test.make ~name:"server: demand cache = fresh full model" ~count:30
    QCheck.(
      make
        ~print:(Print.list cache_op_print)
        Gen.(list_size (5 -- 30) cache_op_gen))
    (fun ops ->
      with_demand_server ~program:(cache_program cache_base_edges)
        (fun _p srv ->
          with_client srv (fun c ->
              let edges = ref cache_base_edges in
              List.iter
                (function
                  | Ask i ->
                    let q = cache_queries.(i) in
                    let fresh = load (cache_program !edges) in
                    let expected =
                      List.sort compare (expected_payload fresh q)
                    in
                    let got = query_lines c q in
                    if got <> expected then
                      QCheck.Test.fail_reportf "%s answered [%s], expected [%s]"
                        q (String.concat "; " got)
                        (String.concat "; " expected)
                  | Toggle ((a, b) as e) ->
                    let fact = Printf.sprintf "%s[edge ->> {%s}]." a b in
                    let retract = List.mem e !edges in
                    let r =
                      if retract then Client.retract_facts c fact
                      else Client.assert_facts c fact
                    in
                    (match r with
                    | Ok _ -> ()
                    | Error msg ->
                      QCheck.Test.fail_reportf "%s %s refused: %s"
                        (if retract then "RETRACT" else "ASSERT")
                        fact msg);
                    edges :=
                      if retract then List.filter (( <> ) e) !edges
                      else e :: !edges)
                ops;
              true)))

let suite =
  [
    Alcotest.test_case "protocol: parse requests" `Quick test_parse_request;
    Alcotest.test_case "protocol: reply round-trip" `Quick
      test_reply_roundtrip;
    Alcotest.test_case "protocol: bounded request lines" `Quick
      test_bounded_line;
    Alcotest.test_case "histogram: percentiles and bounds" `Quick
      test_histogram;
    Alcotest.test_case "pool: sheds at capacity, drains on shutdown" `Quick
      (test_pool_sheds_and_drains Pathlog.Pool.Threads);
    Alcotest.test_case "server: verbs, errors, stats" `Quick
      test_server_basics;
    Alcotest.test_case "server: oversized requests" `Quick
      test_server_oversized_request;
    Alcotest.test_case "server: 8 parallel clients, disjoint answers"
      `Quick test_server_parallel_clients;
    Alcotest.test_case "server: BUSY shedding under a tiny pool" `Quick
      test_server_busy_shedding;
    Alcotest.test_case "server: per-request deadlines" `Quick
      test_server_deadline;
    Alcotest.test_case "server: clean shutdown" `Quick
      test_server_clean_shutdown;
    Alcotest.test_case "server: shutdown after a query is prompt" `Quick
      test_shutdown_is_prompt;
    Alcotest.test_case "server: unix-domain socket" `Quick
      test_server_unix_socket;
    Alcotest.test_case "server: mid-eval timeout, thread pool" `Quick
      (test_mid_eval_timeout ~domains:false);
    Alcotest.test_case "server: mid-eval timeout, domain pool" `Quick
      (test_mid_eval_timeout ~domains:true);
    Alcotest.test_case "server: shutdown cancels in-flight query" `Quick
      test_shutdown_cancels_inflight;
    Alcotest.test_case "server: shutdown answers running and waiting, threads"
      `Quick
      (test_shutdown_answers_gated ~domains:false);
    Alcotest.test_case "server: shutdown answers running and waiting, domains"
      `Quick
      (test_shutdown_answers_gated ~domains:true);
    Alcotest.test_case "server: DEGRADED marker and counters" `Quick
      test_degraded_marker;
    Alcotest.test_case "server: ASSERT/RETRACT with analysis gate" `Quick
      test_live_mutation;
    Alcotest.test_case "server: SUBSCRIBE pushes DELTA frames" `Quick
      test_subscribe_push;
    Alcotest.test_case "server: ground subscription true/false" `Quick
      test_subscribe_ground;
    Alcotest.test_case "server: demand-driven QUERY path" `Quick
      test_demand_queries;
    Alcotest.test_case "server: mutation mid-subscription falls back"
      `Quick test_demand_mutation_fallback;
    Alcotest.test_case "server: --admit-cost rejects with ERR COST" `Quick
      test_admit_cost;
    Alcotest.test_case "server: STATS keys, plain/demand/data_dir" `Quick
      test_stats_golden_keys;
    Alcotest.test_case "server: a cache hit sends fresh bytes, QUERY and WHY"
      `Quick test_cache_hit_bytes;
    Alcotest.test_case "server: demand WHY is not cached across a first sight"
      `Quick test_demand_why_not_cached;
    Alcotest.test_case "metrics: a name registers once" `Quick
      test_metrics_register_twice;
    Alcotest.test_case "pool: domains shed at capacity, drain on shutdown"
      `Quick
      (test_pool_sheds_and_drains Pathlog.Pool.Domains);
    Alcotest.test_case "pool: at most workers in flight, threads" `Quick
      (test_pool_bounds_concurrency Pathlog.Pool.Threads);
    Alcotest.test_case "pool: at most workers in flight, domains" `Quick
      (test_pool_bounds_concurrency Pathlog.Pool.Domains);
    Alcotest.test_case "server: shutdown answers the backlog BUSY" `Quick
      test_shutdown_answers_backlog;
    Alcotest.test_case "server: cached answer survives a demand first sight"
      `Quick test_cache_survives_first_sight;
    QCheck_alcotest.to_alcotest cache_interleaving;
  ]
