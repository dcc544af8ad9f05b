(* Chaos harness: evaluate and serve a known workload with the fault
   registry armed at every injection point, and assert the three
   robustness invariants the fault layer promises:

   1. the server (and the in-process evaluator) never crashes — injected
      failures surface as per-request/per-connection errors only;
   2. store invariants hold after the storm (Store.check_invariants);
   3. completed, non-degraded answers equal the fault-free run — delays,
      transient write failures and torn connections must never change
      WHAT is computed, only whether a given attempt completes.

   Deterministic under its seed: the fault schedule is a pure function of
   (seed, point, per-point hit counter), so a failing seed replays.

   dune exec bench/main.exe -- chaos [SEED] [CLIENTS] [REQUESTS] *)

module Program = Pathlog.Program
module Fault = Pathlog.Fault

let size = 100

let queries =
  [|
    "X : employee[age -> A; city -> newYork]";
    "X : manager";
    "e1 : employee";
    "X : company.president[P]";
    "X : employee[city -> X.boss.city]";
  |]

let expected_payload p (answer : Program.answer) =
  match answer.columns with
  | [] -> [ (if answer.rows = [] then "no" else "yes") ]
  | columns ->
    let u = Program.universe p in
    String.concat "\t" columns
    :: List.map
         (fun row ->
           String.concat "\t"
             (List.map (Pathlog.Universe.to_string u) row))
         answer.rows

let company_statements () =
  Pathlog.Company.statements (Pathlog.Company.scaled size)

(* Build + evaluate under an armed registry. Solver_step delay faults and
   transient Store_write failures are absorbed inside the engine; a
   Store_write failure streak long enough to escape the write path's
   bounded retry surfaces as Fault.Injected — evaluation is monotone over
   an append-only store, so rerunning the fixpoint on the same program
   object simply continues from the partial model. *)
let evaluate_under_faults () =
  let p = Program.create (company_statements ()) in
  let rec go attempts =
    match Program.run p with
    | _stats -> p
    | exception Fault.Injected _ when attempts < 50 -> go (attempts + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Mutation storm: concurrent ASSERT/RETRACT writers plus subscribers
   under the armed fault registry.

   Invariants checked:
   1. the server survives and every writer either gets a definite reply
      or resolves a torn connection by probing for its own facts;
   2. replaying the committed batch log into a fresh Live instance yields
      a model bit-for-bit equal to the server's (writers own disjoint
      fact namespaces, so per-writer order fully determines the result);
   3. store invariants and the replay's provenance records are clean;
   4. a subscriber's baseline plus its DELTA stream reconstructs the
      final answer set of its standing query.

   The storm runs twice: against a plain server, then against a --demand
   one, whose subscription first materialises only its demanded fragment
   and whose first write attaches Live over the unmaterialised program.

   dune exec bench/main.exe -- chaos mutation [SEED] [WRITERS] [BATCHES] *)

(* Facts only in [after]'s model and only in [before]'s, compared as the
   model renderer's sorted lines. *)
let model_diff ~before ~after =
  let module S = Set.Make (String) in
  let lines p = S.of_list (Pathlog.Fact.model (Program.store p)) in
  let b = lines before and a = lines after in
  (S.elements (S.diff a b), S.elements (S.diff b a))

let mutation_base =
  {|
  seed0[edge ->> {seed1}]. seed1[edge ->> {seed2}].
  X[tc ->> {Y}] <- X[edge ->> {Y}].
  X[tc ->> {Y}] <- X[edge ->> {Z}] , Z[tc ->> {Y}].
  |}

type op = { op_retract : bool; op_text : string }

(* The batch-log oracle: replay committed ops, in order, into a fresh Live
   instance over [base]; [after k live] runs once the k-th op (from 1) is
   in. *)
let replay_ops ?(after = fun _ _ -> ()) ~on_reject base ops =
  let replay = Pathlog.Live.attach (Pathlog.load base) in
  List.iteri
    (fun i op ->
      (try
         let apply =
           if op.op_retract then Pathlog.Live.retract_batch
           else Pathlog.Live.assert_batch
         in
         ignore (apply replay op.op_text : Pathlog.Live.batch_stats)
       with Pathlog.Live.Rejected m -> on_reject op.op_text m);
      after (i + 1) replay)
    ops;
  replay

(* Per-writer logs (newest first) as one replayable list; the namespaces
   are disjoint, so writer order is as good as commit order. *)
let concat_logs logs = List.concat_map List.rev (Array.to_list logs)

let mutation_storm ~demand ~seed ~writers ~batches =
  let mode = if demand then " --demand" else "" in
  Printf.printf
    "=== chaos mutation%s: seed %d, %d writers x %d batches ===\n%!" mode
    seed writers batches;
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  let p =
    if demand then Pathlog.parse mutation_base else Pathlog.load mutation_base
  in
  let config =
    {
      Pathlog.Server.default_config with
      workers = 3;
      queue_capacity = 2 * writers;
      busy_retry_after_ms = 2;
      demand;
    }
  in
  let srv =
    Pathlog.Server.create ~config ~program:p
      (Pathlog.Server.Tcp ("127.0.0.1", 0))
  in
  let addr = Pathlog.Server.address srv in

  (* Subscribe before the faults go live: DELTA pushes bypass the wire
     fault point, so the stream stays intact through the storm and the
     reconciliation below is exact. *)
  let sub_query = "seed0[tc ->> {Y}]" in
  let sub_conn = Pathlog.Client.connect addr in
  let sub_rows = ref [] in
  let sub_deltas = ref 0 in
  (match Pathlog.Client.subscribe sub_conn sub_query with
  | Ok s -> sub_rows := s.Pathlog.Client.baseline
  | Error e -> fail "SUBSCRIBE failed before the storm: %s" e);

  Fault.configure ~seed
    [
      (Fault.Store_write, Fault.Fail, 0.01);
      (Fault.Solver_step, Fault.Delay 0.0002, 0.01);
      (Fault.Wire_read, Fault.Fail, 0.005);
      (Fault.Wire_write, Fault.Short, 0.005);
      (Fault.Wire_write, Fault.Delay 0.001, 0.01);
    ];

  (* Writer k mutates only objects named wK_*: the namespaces are
     disjoint, so any interleaving of the per-writer logs replays to the
     same model. Ops: grow a private chain, sometimes link it under
     seed2 (so the subscription sees it), sometimes retract a committed
     edge. A torn connection mid-mutation is resolved by probing for the
     batch's distinguishing fact on a fresh connection. *)
  let logs = Array.make writers [] in
  let torn = ref 0 and busy_shed = ref 0 and unresolved = ref 0 in
  let tally = Mutex.create () in
  let bump r = Mutex.lock tally; incr r; Mutex.unlock tally in
  let writer_thread k =
    let rng = Random.State.make [| seed; k |] in
    let conn = ref (Pathlog.Client.connect addr) in
    let committed = ref [] in
    let mutate op probe_fact expect_present =
      (* -> true when the op definitely committed *)
      let rec attempt tries =
        if tries > 6 then begin
          bump unresolved;
          false
        end
        else
          let verb = if op.op_retract then "RETRACT" else "ASSERT" in
          match
            Pathlog.Client.request_with_retry ~max_attempts:6
              ~base_delay_s:0.002
              ~seed:((seed * 257) + k)
              !conn (verb ^ " " ^ op.op_text)
          with
          | Ok (Pathlog.Protocol.Ok _) -> true
          | Ok (Pathlog.Protocol.Busy _) ->
            (* still shedding after the client's own retries *)
            bump busy_shed;
            attempt (tries + 1)
          | Ok _ -> false
          | Error (`Eof | `Malformed _) -> (
            (* torn mid-mutation: did it commit? probe on a fresh
               connection for the batch's distinguishing fact *)
            bump torn;
            Pathlog.Client.close !conn;
            match Pathlog.Client.connect addr with
            | exception Unix.Unix_error _ ->
              bump unresolved;
              false
            | c -> (
              conn := c;
              match Pathlog.Client.query c probe_fact with
              | Ok [ "yes" ] -> expect_present
              | Ok [ "no" ] -> not expect_present || attempt (tries + 1)
              | Ok _ | Error _ ->
                bump unresolved;
                false))
      in
      attempt 0
    in
    let next = ref 0 in
    for _ = 1 to batches do
      let retractable = !committed in
      if retractable <> [] && Random.State.int rng 3 = 0 then begin
        (* retract a previously committed edge *)
        let i = Random.State.int rng (List.length retractable) in
        let fact = List.nth retractable i in
        let op = { op_retract = true; op_text = fact ^ "." } in
        if mutate op fact false then begin
          committed := List.filteri (fun j _ -> j <> i) retractable;
          logs.(k) <- op :: logs.(k)
        end
      end
      else begin
        let a, b =
          if Random.State.int rng 4 = 0 then
            (* link the private chain under the seeds *)
            ("seed2", Printf.sprintf "w%d_n%d" k (Random.State.int rng 5))
          else begin
            let i = !next in
            incr next;
            (Printf.sprintf "w%d_n%d" k (i mod 7),
             Printf.sprintf "w%d_n%d" k ((i + 1 + Random.State.int rng 3) mod 7))
          end
        in
        let fact = Printf.sprintf "%s[edge ->> {%s}]" a b in
        if not (List.mem fact !committed) then begin
          let op = { op_retract = false; op_text = fact ^ "." } in
          if mutate op fact true then begin
            committed := fact :: !committed;
            logs.(k) <- op :: logs.(k)
          end
        end
      end
    done;
    Pathlog.Client.close !conn
  in
  let threads = List.init writers (fun k -> Thread.create writer_thread k) in
  (* drain the subscriber concurrently: apply DELTA frames in order *)
  let storm_done = ref false in
  let sub_thread =
    Thread.create
      (fun () ->
        let rec drain () =
          match Pathlog.Client.next_delta ~timeout_s:0.1 sub_conn with
          | Some d ->
            incr sub_deltas;
            let removed = d.Pathlog.Protocol.vanished in
            sub_rows :=
              List.sort compare
                (d.Pathlog.Protocol.appeared
                @ List.filter (fun r -> not (List.mem r removed)) !sub_rows);
            drain ()
          | None -> if not !storm_done then drain ()
        in
        drain ())
      ()
  in
  List.iter Thread.join threads;
  let injected_total = Fault.injected_total () in
  Fault.disable ();
  (* let the last DELTA frames flush, then stop the drain *)
  Thread.delay 0.3;
  storm_done := true;
  Thread.join sub_thread;

  (* Reconciliation 1: the subscriber's maintained answer set equals a
     fresh subscription's baseline. *)
  (match Pathlog.Client.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
    fail "server dead after the storm: %s" (Unix.error_message e)
  | c ->
    (match Pathlog.Client.subscribe c sub_query with
    | Ok s ->
      if List.sort compare s.Pathlog.Client.baseline
         <> List.sort compare !sub_rows
      then
        fail "subscriber drift: baseline+deltas %d rows, server %d rows"
          (List.length !sub_rows)
          (List.length s.Pathlog.Client.baseline)
    | Error e -> fail "post-storm SUBSCRIBE failed: %s" e);
    Pathlog.Client.close c);
  Pathlog.Server.request_stop srv;
  Pathlog.Server.shutdown srv;

  (* Reconciliation 2: replay the committed batch log into a fresh Live
     instance; the models must agree exactly, and both the server store's
     invariants and the replay's provenance records must be clean. *)
  let ops = concat_logs logs in
  let replayed = List.length ops in
  let replay =
    replay_ops mutation_base ops ~on_reject:(fail "replay rejected %S: %s")
  in
  let added, removed =
    model_diff
      ~before:(Pathlog.Live.program replay)
      ~after:p
  in
  if added <> [] || removed <> [] then
    fail "server model differs from batch-log replay (+%d -%d)"
      (List.length added) (List.length removed);
  (match Pathlog.Store.check_invariants (Pathlog.Program.store p) with
  | [] -> ()
  | broken ->
    List.iter (fun m -> fail "server store invariant: %s" m) broken);
  (match Pathlog.Live.check_support replay with
  | [] -> ()
  | broken -> List.iter (fun m -> fail "replay provenance records: %s" m) broken);
  if replayed > 0 && not (Program.materialised p) then
    fail "writes committed, but the program is not materialised";

  Printf.printf
    "committed batches: %d replayed; %d torn connections, %d busy sheds, \
     %d unresolved; %d DELTA frames\n"
    replayed !torn !busy_shed !unresolved !sub_deltas;
  Printf.printf "injected faults: %d total\n" injected_total;
  Pathlog.Client.close sub_conn;
  if injected_total = 0 then
    fail "the storm injected nothing — the harness is not testing faults";
  match !failures with
  | [] -> Printf.printf "chaos mutation%s: ok\n%!" mode
  | fs ->
    List.iter (fun m -> Printf.printf "chaos FAILURE: %s\n" m) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Kill-and-recover storm: crash-recovery proven by SIGKILL.

   A child process serves [mutation_base] durably (--data semantics: WAL
   fsync'd per accepted batch, snapshots every few batches). Writers in
   the parent storm it with ASSERT/RETRACT; at a seed-deterministic
   committed count the child is SIGKILLed mid-storm, restarted over the
   same data directory, and the storm continues — for ROUNDS cycles,
   then one fault-free verification round.

   Invariants:
   1. durability: every batch a client saw OK for is in the recovered
      model (the batch-log replay equals the served model exactly);
   2. atomicity at the crash edge: an op torn mid-flight is resolved by
      probing after recovery — present or absent, never half-applied;
   3. the restarted server sheds requests with BUSY (retry-after) while
      the WAL suffix replays, and retrying clients land after it;
   4. byte-level corruption appended to the WAL is CRC-detected and
      truncated on the next open, never silently loaded.

   dune exec bench/main.exe -- chaos kill [SEED] [WRITERS] [BATCHES] [ROUNDS] *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun n -> rm_rf (Filename.concat path n))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* The op as the writer will resolve it after a torn connection. *)
type pending = {
  pd_writer : int;
  pd_op : op;
  pd_probe : string;  (** query deciding whether it committed *)
  pd_expect : bool;  (** probe answer "yes" <=> committed *)
}

let kill_storm ~seed ~writers ~batches ~rounds =
  Printf.printf
    "=== chaos kill: seed %d, %d writers x %d batches, %d kill rounds ===\n%!"
    seed writers batches rounds;
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "plkill-%d-%d" (Unix.getpid ()) seed)
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  let data = Filename.concat root "data" in
  let port_file = Filename.concat root "port" in

  (* -- the serving child ------------------------------------------- *)
  let spawn_child () =
    (try Sys.remove port_file with Sys_error _ -> ());
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try
         (* jitter the fsync so kills land mid-append with real odds *)
         ignore
           (Fault.configure_string
              (Printf.sprintf "seed=%d;wal_fsync:delay@0.3:0.002" seed)
             : (unit, string) result);
         let p = Pathlog.load mutation_base in
         let config =
           {
             Pathlog.Server.default_config with
             workers = 2;
             queue_capacity = 4 * writers;
             busy_retry_after_ms = 2;
             data_dir = Some data;
             snapshot_every = 8;
             (* stretch the replay so the parent reliably observes the
                BUSY-while-recovering window after each restart *)
             recovery_delay_s = 0.15;
           }
         in
         let srv =
           Pathlog.Server.create ~config ~program:p
             (Pathlog.Server.Tcp ("127.0.0.1", 0))
         in
         Pathlog.Server.install_signal_handlers srv;
         let port =
           match Pathlog.Server.address srv with
           | Pathlog.Server.Tcp (_, port) -> port
           | Pathlog.Server.Unix_path _ -> 0
         in
         let tmp = port_file ^ ".tmp" in
         let oc = open_out tmp in
         output_string oc (string_of_int port);
         close_out oc;
         Sys.rename tmp port_file;
         Pathlog.Server.serve srv
       with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  let wait_port () =
    let deadline = Unix.gettimeofday () +. 30. in
    let rec go () =
      if Unix.gettimeofday () > deadline then failwith "child never bound"
      else
        match open_in port_file with
        | exception Sys_error _ ->
          Thread.delay 0.005;
          go ()
        | ic ->
          let line = try input_line ic with End_of_file -> "" in
          close_in ic;
          (match int_of_string_opt line with
          | Some port when port > 0 -> port
          | _ ->
            Thread.delay 0.005;
            go ())
    in
    go ()
  in

  (* committed ops, per writer in commit order; disjoint namespaces make
     the cross-writer interleaving irrelevant to the final model *)
  let logs = Array.make writers [] in
  let log_lock = Mutex.create () in
  let committed_total = ref 0 in
  let commit k op =
    Mutex.lock log_lock;
    logs.(k) <- op :: logs.(k);
    incr committed_total;
    Mutex.unlock log_lock
  in
  let busy_observed = ref 0 and torn = ref 0 and resolved_in = ref 0 in
  let tally = Mutex.create () in

  (* block until the replay finishes: the BUSY shed clears and ordinary
     queries are answered again *)
  let wait_ready addr =
    let deadline = Unix.gettimeofday () +. 30. in
    let rec go () =
      if Unix.gettimeofday () > deadline then fail "server never became ready"
      else
        match Pathlog.Client.connect addr with
        | exception Unix.Unix_error _ ->
          Thread.delay 0.01;
          go ()
        | c ->
          let r = Pathlog.Client.request c "QUERY seed0[tc ->> {Y}]" in
          Pathlog.Client.close c;
          (match r with
          | Ok (Pathlog.Protocol.Ok _ | Pathlog.Protocol.Degraded _) -> ()
          | Ok _ | Error _ ->
            Thread.delay 0.01;
            go ())
    in
    go ()
  in

  (* resolve ops left torn by the previous kill: probe the recovered
     server; "yes"/"no" decides whether the op made it into the log *)
  let resolve_pending addr pending =
    List.iter
      (fun pd ->
        match Pathlog.Client.connect addr with
        | exception Unix.Unix_error _ -> fail "probe connect failed"
        | c ->
          Fun.protect
            ~finally:(fun () -> Pathlog.Client.close c)
            (fun () ->
              match Pathlog.Client.query c pd.pd_probe with
              | Ok [ "yes" ] ->
                if pd.pd_expect then begin
                  commit pd.pd_writer pd.pd_op;
                  incr resolved_in
                end
              | Ok [ "no" ] ->
                if not pd.pd_expect then begin
                  commit pd.pd_writer pd.pd_op;
                  incr resolved_in
                end
              | Ok _ -> fail "probe %S: unexpected payload" pd.pd_probe
              | Error e -> fail "probe %S failed: %s" pd.pd_probe e))
      pending
  in

  (* -- one storm round --------------------------------------------- *)
  (* Returns the ops torn at the kill. [kill_at = None] runs the round
     to completion (the fault-free verification round). *)
  let storm_round ~round ~kill_at pid addr =
    let pending = ref [] in
    let pending_lock = Mutex.create () in
    let server_dead = ref false in
    let drained = ref false in
    let writer_thread k =
      let rng = Random.State.make [| seed; round; k |] in
      let conn = ref (Some (Pathlog.Client.connect addr)) in
      let committed = ref [] in
      let obj i = Printf.sprintf "w%d_r%d_n%d" k round i in
      let mutate op probe expect =
        (* true = committed. A torn connection means the kill caught the
           op in flight; its fate is unknowable until the restart — any
           probe now races the dying server's still-running session (the
           mutation can commit to the WAL after the client's read fails).
           So the op is parked in [pending], resolved by a probe against
           the RECOVERED server (quiescent: prior writers joined, next
           round's not yet started), and the writer stops. *)
        let rec attempt tries c =
          let verb = if op.op_retract then "RETRACT" else "ASSERT" in
          match
            Pathlog.Client.request_with_retry ~max_attempts:8
              ~base_delay_s:0.002
              ~seed:((seed * 263) + (round * 31) + k)
              c (verb ^ " " ^ op.op_text)
          with
          | Ok (Pathlog.Protocol.Ok _) -> true
          | Ok (Pathlog.Protocol.Busy _) when tries < 20 ->
            Thread.delay 0.005;
            attempt (tries + 1) c
          | Ok _ -> false
          | Error (`Eof | `Malformed _) ->
            Mutex.lock tally;
            incr torn;
            Mutex.unlock tally;
            (try Pathlog.Client.close c with _ -> ());
            conn := None;
            Mutex.lock pending_lock;
            pending :=
              { pd_writer = k; pd_op = op; pd_probe = probe;
                pd_expect = expect }
              :: !pending;
            Mutex.unlock pending_lock;
            server_dead := true;
            raise Exit
        in
        match !conn with None -> false | Some c -> attempt 0 c
      in
      let next = ref 0 in
      (try
         for _ = 1 to batches do
           if !server_dead then raise Exit;
           let retractable = !committed in
           if retractable <> [] && Random.State.int rng 3 = 0 then begin
             let i = Random.State.int rng (List.length retractable) in
             let fact = List.nth retractable i in
             let op = { op_retract = true; op_text = fact ^ "." } in
             if mutate op fact false then begin
               committed := List.filteri (fun j _ -> j <> i) retractable;
               commit k op
             end
           end
           else begin
             let a, b =
               if Random.State.int rng 4 = 0 then
                 ("seed2", obj (Random.State.int rng 5))
               else begin
                 let i = !next in
                 incr next;
                 (obj (i mod 7), obj ((i + 1 + Random.State.int rng 3) mod 7))
               end
             in
             let fact = Printf.sprintf "%s[edge ->> {%s}]" a b in
             if not (List.mem fact !committed) then begin
               let op = { op_retract = false; op_text = fact ^ "." } in
               if mutate op fact true then begin
                 committed := fact :: !committed;
                 commit k op
               end
             end
           end
         done
       with Exit -> ());
      match !conn with
      | Some c -> Pathlog.Client.close c
      | None -> ()
    in
    let killer =
      match kill_at with
      | None -> None
      | Some target ->
        Some
          (Thread.create
             (fun () ->
               (* seed-deterministic instant: SIGKILL as soon as the
                  shared commit counter reaches the target (or the storm
                  drains first) *)
               let rec watch () =
                 let n =
                   Mutex.lock log_lock;
                   let n = !committed_total in
                   Mutex.unlock log_lock;
                   n
                 in
                 if n < target && not !server_dead && not !drained then begin
                   Thread.delay 0.002;
                   watch ()
                 end
               in
               watch ();
               Unix.kill pid Sys.sigkill)
             ())
    in
    let threads = List.init writers (fun k -> Thread.create writer_thread k) in
    List.iter Thread.join threads;
    drained := true;
    (match killer with Some th -> Thread.join th | None -> ());
    (match kill_at with
    | Some _ ->
      ignore (Unix.waitpid [] pid : int * Unix.process_status)
    | None -> ());
    !pending
  in

  (* -- drive the rounds -------------------------------------------- *)
  let committed_before_kills = ref 0 in
  let pending = ref [] in
  let final_pid = ref (-1) in
  let final_addr = ref None in
  for round = 1 to rounds + 1 do
    let pid = spawn_child () in
    let port = wait_port () in
    let addr = Pathlog.Server.Tcp ("127.0.0.1", port) in
    (* observe the recovery window: the first query after the restart
       must be shed with BUSY + retry-after while the replay runs *)
    (match Pathlog.Client.connect addr with
    | exception Unix.Unix_error _ -> fail "round %d: cannot connect" round
    | c ->
      (match Pathlog.Client.request c "QUERY seed0[tc ->> {Y}]" with
      | Ok (Pathlog.Protocol.Busy (retry_ms, _)) ->
        if retry_ms <= 0 then fail "BUSY without a retry-after hint";
        incr busy_observed
      | Ok _ -> ()
      | Error _ -> fail "round %d: probe request failed" round);
      Pathlog.Client.close c);
    wait_ready addr;
    resolve_pending addr !pending;
    pending := [];
    if round <= rounds then begin
      let target =
        !committed_before_kills + 4 + ((seed + (3 * round)) mod (2 * writers))
      in
      pending := storm_round ~round ~kill_at:(Some target) pid addr;
      committed_before_kills := !committed_total
    end
    else begin
      (* verification round: mutations after recovery, no kill *)
      ignore (storm_round ~round ~kill_at:None pid addr : pending list);
      final_pid := pid;
      final_addr := Some addr
    end
  done;

  (* -- verify: served model = batch-log replay --------------------- *)
  let ops = concat_logs logs in
  let replayed = List.length ops in
  let replay =
    replay_ops mutation_base ops ~on_reject:(fail "replay rejected %S: %s")
  in
  (match !final_addr with
  | None -> fail "no final server"
  | Some addr -> (
    match Pathlog.Client.connect addr with
    | exception Unix.Unix_error (e, _, _) ->
      fail "final server dead: %s" (Unix.error_message e)
    | c ->
      Fun.protect
        ~finally:(fun () -> Pathlog.Client.close c)
        (fun () ->
          List.iter
            (fun q ->
              let expected =
                List.sort compare
                  (expected_payload
                     (Pathlog.Live.program replay)
                     (Program.query_string (Pathlog.Live.program replay) q))
              in
              match Pathlog.Client.query c q with
              | Ok lines ->
                if List.sort compare lines <> expected then
                  fail "served %S differs from the batch-log replay" q
              | Error e -> fail "final query %S failed: %s" q e)
            [ "X[edge ->> {Y}]"; "X[tc ->> {Y}]"; "seed0[tc ->> {Y}]" ];
          match Pathlog.Client.stats c with
          | Ok lines ->
            let has prefix =
              List.exists
                (fun l ->
                  String.length l > String.length prefix
                  && String.sub l 0 (String.length prefix) = prefix)
                lines
            in
            if not (has "wal_appends_total") then
              fail "STATS misses the WAL counters";
            if not (has "last_recovery_ms") then
              fail "STATS misses last_recovery_ms"
          | Error e -> fail "final STATS failed: %s" e)));
  (* graceful stop: SIGTERM drains and closes the log *)
  if !final_pid > 0 then begin
    Unix.kill !final_pid Sys.sigterm;
    ignore (Unix.waitpid [] !final_pid : int * Unix.process_status)
  end;

  (* -- in-process recovery equals the replay too -------------------- *)
  let recover_live () =
    let d, r = Pathlog.Durable.open_dir data in
    Pathlog.Durable.close d;
    let src =
      match r.Pathlog.Durable.r_snapshot with
      | Some (_, _, src) -> src
      | None -> mutation_base
    in
    let p = Pathlog.Program.of_string src in
    ignore (Pathlog.Program.run p);
    let live = Pathlog.Live.attach p in
    List.iter
      (fun (rc : Pathlog.Durable.record) ->
        let apply =
          if rc.Pathlog.Durable.retract then Pathlog.Live.retract_batch
          else Pathlog.Live.assert_batch
        in
        ignore (apply live rc.Pathlog.Durable.text : Pathlog.Live.batch_stats))
      r.Pathlog.Durable.r_tail;
    (live, r)
  in
  let recovered, _ = recover_live () in
  let added, removed =
    model_diff
      ~before:(Pathlog.Live.program replay)
      ~after:(Pathlog.Live.program recovered)
  in
  if added <> [] || removed <> [] then begin
    List.iter (fun f -> Printf.printf "  only recovered: %s\n" f) added;
    List.iter (fun f -> Printf.printf "  only replay:    %s\n" f) removed;
    fail "in-process recovery differs from the replay (+%d -%d)"
      (List.length added) (List.length removed)
  end;
  (match Pathlog.Store.check_invariants (Pathlog.Live.store recovered) with
  | [] -> ()
  | broken -> List.iter (fun m -> fail "recovered store: %s" m) broken);

  (* -- byte-level corruption: CRC-detected, truncated, never loaded - *)
  let wal = Pathlog.Durable.wal_path data in
  let clean_size = (Unix.stat wal).Unix.st_size in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal in
  output_string oc "\xde\xad\xbe\xefgarbage torn mid-frame";
  close_out oc;
  let recovered2, r2 = recover_live () in
  if r2.Pathlog.Durable.r_torn_bytes = 0 then
    fail "appended garbage was not detected as torn";
  if (Unix.stat wal).Unix.st_size <> clean_size then
    fail "torn tail was not truncated back to the valid boundary";
  let added2, removed2 =
    model_diff
      ~before:(Pathlog.Live.program replay)
      ~after:(Pathlog.Live.program recovered2)
  in
  if added2 <> [] || removed2 <> [] then
    fail "corruption changed the recovered model (+%d -%d)"
      (List.length added2) (List.length removed2);

  Printf.printf
    "committed batches: %d replayed (%d resolved by post-kill probes); %d \
     torn connections; BUSY-while-recovering observed %d/%d restarts\n"
    replayed !resolved_in !torn !busy_observed (rounds + 1);
  if !committed_total = 0 then fail "the storm committed nothing";
  if !busy_observed = 0 then
    fail "no restart was observed recovering (BUSY window missed)";
  rm_rf root;
  match !failures with
  | [] -> print_endline "chaos kill: ok"
  | fs ->
    List.iter (fun m -> Printf.printf "chaos FAILURE: %s\n" m) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Read consistency: readers QUERY while writers ASSERT and RETRACT.

   Every reply must equal the model after some committed batch k with
   lo <= k <= hi, where lo counts the batches acknowledged before the
   QUERY was sent and hi the batches sent before its reply arrived (k = 0
   is the model at load). The store lock serialises commits and every
   batch here changes the model, so the epochs the replies report order
   the batches; replaying them in that order gives the model after each
   k. A snapshot-consistency check in the style of linearizability
   testing (Wing & Gong, "Testing and Verifying Concurrent Objects",
   JPDC 1993).

   The base holds two 60-edge chains from s to t under a transitive
   closure. Writer k toggles random edges among its own seven nodes and
   from s and to t, so retractions run DRed through s's closure, which
   the chains re-derive.

   dune exec bench/main.exe -- chaos reads [SEED] [WRITERS] [READERS] [BATCHES] *)

let reads_base =
  let chain name =
    List.init 60 (fun i ->
        let node j =
          if j < 0 then "s" else if j = 59 then "t"
          else Printf.sprintf "%s%d" name j
        in
        Printf.sprintf "%s[edge ->> {%s}]." (node (i - 1)) (node i))
  in
  String.concat "\n"
    (chain "p" @ chain "q"
    @ [
        "X[tc ->> {Y}] <- X[edge ->> {Y}].";
        "X[tc ->> {Y}] <- X[edge ->> {Z}], Z[tc ->> {Y}].";
      ])

let read_queries =
  [| "s[tc ->> {t}]"; "s[tc ->> {Y}]"; "X[edge ->> {t}]"; "X[tc ->> {t}]" |]

let digest lines = Digest.string (String.concat "\n" (List.sort compare lines))

type read = {
  r_query : int;
  r_lo : int;
  r_hi : int;
  r_digest : Digest.t;
  r_latency_s : float;
}

let read_storm ~seed ~writers ~readers ~batches =
  Printf.printf
    "=== chaos reads: seed %d, %d writers x %d batches, %d readers ===\n%!"
    seed writers batches readers;
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  let p = Pathlog.load reads_base in
  let config =
    {
      Pathlog.Server.default_config with
      workers = readers;
      pool_domains = true;
    }
  in
  let srv =
    Pathlog.Server.create ~config ~program:p
      (Pathlog.Server.Tcp ("127.0.0.1", 0))
  in
  let addr = Pathlog.Server.address srv in
  let sent = Atomic.make 0 and acked = Atomic.make 0 in
  let committed = Array.make writers [] in
  let writer_thread k =
    let rng = Random.State.make [| seed; k |] in
    let c = Pathlog.Client.connect addr in
    let node i = Printf.sprintf "w%d_n%d" k i in
    let linked = ref [] in
    for _ = 1 to batches do
      (* a random edge of the writer's own: retracted if it is in,
         asserted if not *)
      let a, b =
        match Random.State.int rng 3 with
        | 0 -> ("s", node (Random.State.int rng 7))
        | 1 -> (node (Random.State.int rng 7), "t")
        | _ ->
          let i = Random.State.int rng 7 in
          (node i, node ((i + 1 + Random.State.int rng 5) mod 7))
      in
      let fact = Printf.sprintf "%s[edge ->> {%s}]" a b in
      let op_retract = List.mem fact !linked in
      linked :=
        if op_retract then List.filter (( <> ) fact) !linked
        else fact :: !linked;
      let op = { op_retract; op_text = fact ^ "." } in
      Atomic.incr sent;
      let verb = if op.op_retract then "RETRACT " else "ASSERT " in
      (match Pathlog.Client.request c (verb ^ op.op_text) with
      | Ok (Pathlog.Protocol.Ok (epoch :: _)) ->
        Atomic.incr acked;
        committed.(k) <- (epoch, op) :: committed.(k)
      | Ok r ->
        fail "writer %d: %s refused: %s" k op.op_text
          (Pathlog.Protocol.render_reply r)
      | Error _ -> fail "writer %d: connection lost" k);
      (* a short gap lets readers in between batches as well as during
         them *)
      Thread.delay 0.0005
    done;
    Pathlog.Client.close c
  in
  let writing = Atomic.make true in
  let reads = Array.make readers [] in
  let reader_thread r =
    let rng = Random.State.make [| seed; 1000 + r |] in
    let c = Pathlog.Client.connect addr in
    while Atomic.get writing do
      let qi = Random.State.int rng (Array.length read_queries) in
      let lo = Atomic.get acked in
      let t0 = Unix.gettimeofday () in
      (match
         Pathlog.Client.request_with_retry ~seed:r c
           ("QUERY " ^ read_queries.(qi))
       with
      | Ok (Pathlog.Protocol.Ok lines) ->
        let hi = Atomic.get sent in
        reads.(r) <-
          {
            r_query = qi;
            r_lo = lo;
            r_hi = hi;
            r_digest = digest lines;
            r_latency_s = Unix.gettimeofday () -. t0;
          }
          :: reads.(r)
      | Ok reply ->
        fail "reader %d: %s answered %s" r read_queries.(qi)
          (Pathlog.Protocol.render_reply reply)
      | Error _ -> fail "reader %d: connection lost" r)
    done;
    Pathlog.Client.close c
  in
  let reader_threads = List.init readers (Thread.create reader_thread) in
  List.iter Thread.join (List.init writers (Thread.create writer_thread));
  Atomic.set writing false;
  List.iter Thread.join reader_threads;
  let stats =
    let c = Pathlog.Client.connect addr in
    let s = Pathlog.Client.stats c in
    Pathlog.Client.close c;
    match s with Ok lines -> lines | Error _ -> []
  in
  Pathlog.Server.shutdown srv;

  (* The commit order: each reply's "epoch N" line. *)
  let order =
    Array.to_list committed |> List.concat
    |> List.map (fun (line, op) ->
           match String.split_on_char ' ' line with
           | [ "epoch"; n ] -> (int_of_string n, op)
           | _ -> failwith ("unexpected batch reply line: " ^ line))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let rec distinct = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then fail "two batches committed at epoch %d" a;
      distinct rest
    | _ -> ()
  in
  distinct order;
  let ops = List.map snd order in
  let expected = Array.make (List.length ops + 1) [||] in
  let answers q =
    Array.map
      (fun text -> digest (expected_payload q (Program.query_string q text)))
      read_queries
  in
  expected.(0) <- answers (Pathlog.load reads_base);
  let replay =
    replay_ops reads_base ops
      ~on_reject:(fail "replay rejected %S: %s")
      ~after:(fun k live -> expected.(k) <- answers (Pathlog.Live.program live))
  in
  let added, removed =
    model_diff ~before:(Pathlog.Live.program replay) ~after:p
  in
  if added <> [] || removed <> [] then
    fail "server model differs from batch-log replay (+%d -%d)"
      (List.length added) (List.length removed);

  let all = List.concat (Array.to_list reads) in
  let last = Array.length expected - 1 in
  let wrong =
    List.filter
      (fun rd ->
        let rec some k =
          k <= min rd.r_hi last
          && (expected.(k).(rd.r_query) = rd.r_digest || some (k + 1))
        in
        not (some rd.r_lo))
      all
  in
  let n = List.length all in
  if n = 0 then fail "no read completed";
  if wrong <> [] then fail "%d of %d reads were wrong" (List.length wrong) n;
  List.iteri
    (fun i rd ->
      if i < 5 then
        fail "%S answered a model no batch in [%d, %d] produced"
          read_queries.(rd.r_query) rd.r_lo rd.r_hi)
    wrong;
  let stat key =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ k; v ] when k = key -> int_of_string_opt v
        | _ -> None)
      stats
  in
  let lat =
    Array.of_list (List.sort compare (List.map (fun rd -> rd.r_latency_s) all))
  in
  let pct q =
    let i = int_of_float (q *. float (Array.length lat)) in
    if lat = [||] then 0. else lat.(min i (Array.length lat - 1)) *. 1000.
  in
  Printf.printf "batches: %d committed; reads: %d checked, %d wrong\n"
    (List.length ops) n (List.length wrong);
  (match stat "reads_locked_total" with
  | Some l ->
    Printf.printf "reads_locked_total: %d (%.2f%% of reads)\n" l
      (100. *. float l /. float (max 1 n))
  | None -> print_endline "reads_locked_total: not reported");
  Printf.printf "reader latency: p50 %.3f ms, p95 %.3f ms\n" (pct 0.5)
    (pct 0.95);
  match !failures with
  | [] -> print_endline "chaos reads: ok"
  | fs ->
    List.iter (fun m -> Printf.printf "chaos FAILURE: %s\n" m) (List.rev fs);
    exit 1

let rec main args =
  match args with
  | "kill" :: rest ->
    let arg i default =
      match List.nth_opt rest i with
      | Some s -> int_of_string s
      | None -> default
    in
    kill_storm ~seed:(arg 0 1) ~writers:(arg 1 3) ~batches:(arg 2 12)
      ~rounds:(arg 3 2)
  | "reads" :: rest ->
    let arg i default =
      match List.nth_opt rest i with
      | Some s -> int_of_string s
      | None -> default
    in
    read_storm ~seed:(arg 0 1) ~writers:(arg 1 2) ~readers:(arg 2 2)
      ~batches:(arg 3 40)
  | "mutation" :: rest ->
    let arg i default =
      match List.nth_opt rest i with
      | Some s -> int_of_string s
      | None -> default
    in
    List.iter
      (fun demand ->
        mutation_storm ~demand ~seed:(arg 0 1) ~writers:(arg 1 4)
          ~batches:(arg 2 40))
      [ false; true ]
  | _ -> query_storm args

and query_storm args =
  let arg i default =
    match List.nth_opt args i with
    | Some s -> int_of_string s
    | None -> default
  in
  let seed = arg 0 1 in
  let clients = arg 1 6 in
  let requests = arg 2 200 in
  Printf.printf
    "=== chaos: seed %d, %d clients x %d requests, company(%d) ===\n%!"
    seed clients requests size;

  (* Phase 0: the fault-free truth. *)
  let clean = Program.create (company_statements ()) in
  ignore (Program.run clean);
  let expected =
    Array.map
      (fun q ->
        List.sort compare (expected_payload clean (Program.query_string clean q)))
      queries
  in

  (* Phase 1: arm every injection point and rebuild the model under
     faults. Rates are high enough that every point fires many times over
     the run (see the counts report), low enough that progress holds. *)
  Fault.configure ~seed
    [
      (Fault.Store_write, Fault.Fail, 0.02);
      (Fault.Solver_step, Fault.Delay 0.0002, 0.01);
      (Fault.Wire_read, Fault.Fail, 0.01);
      (Fault.Wire_write, Fault.Short, 0.01);
      (Fault.Wire_write, Fault.Delay 0.001, 0.02);
      (Fault.Pool_dispatch, Fault.Fail, 0.05);
      (Fault.Pool_dispatch, Fault.Delay 0.001, 0.05);
    ];
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  let p = evaluate_under_faults () in
  if Program.degraded p <> None then
    fail "faulted evaluation ended degraded (no budget was set)";
  Array.iteri
    (fun i q ->
      let got =
        List.sort compare (expected_payload p (Program.query_string p q))
      in
      if got <> expected.(i) then
        fail "faulted model differs on %S" q)
    queries;

  (* Phase 2: the storm. Concurrent clients issue mixed requests against
     a server whose wire and dispatch fault points are live. Torn
     connections are expected — clients reconnect; BUSY is expected —
     clients back off; what is NOT tolerated is a wrong completed answer
     or a dead server. *)
  let config =
    {
      Pathlog.Server.default_config with
      workers = 3;
      queue_capacity = clients;
      busy_retry_after_ms = 2;
    }
  in
  let srv =
    Pathlog.Server.create ~config ~program:p
      (Pathlog.Server.Tcp ("127.0.0.1", 0))
  in
  let addr = Pathlog.Server.address srv in
  let ok = ref 0
  and busy = ref 0
  and errs = ref 0
  and torn = ref 0
  and mismatches = ref 0 in
  let tally = Mutex.create () in
  let bump r = Mutex.lock tally; incr r; Mutex.unlock tally in
  let nq = Array.length queries in
  let client_thread k =
    let conn = ref (Pathlog.Client.connect addr) in
    let reconnect () =
      Pathlog.Client.close !conn;
      bump torn;
      conn := Pathlog.Client.connect addr
    in
    for i = 0 to requests - 1 do
      let qi = (k + i) mod nq in
      let line =
        match i mod 17 with
        | 0 -> "PING"
        | 1 -> "STATS"
        | _ -> "QUERY " ^ queries.(qi)
      in
      let rec attempt tries =
        if tries > 8 then bump errs
        else
          match
            Pathlog.Client.request_with_retry ~max_attempts:4
              ~base_delay_s:0.002 ~seed:((seed * 131) + k) !conn line
          with
          | Ok (Pathlog.Protocol.Ok lines) ->
            bump ok;
            if
              String.length line > 6
              && String.sub line 0 6 = "QUERY "
              && List.sort compare lines <> expected.(qi)
            then bump mismatches
          | Ok Pathlog.Protocol.Pong -> bump ok
          | Ok (Pathlog.Protocol.Degraded _) ->
            (* this server's model is complete; DEGRADED would be a lie *)
            bump mismatches
          | Ok (Pathlog.Protocol.Busy _) -> bump busy
          | Ok (Pathlog.Protocol.Err _) -> bump errs
          | Error (`Eof | `Malformed _) ->
            (* injected wire fault tore the session; reconnect, retry *)
            (match reconnect () with
            | () -> attempt (tries + 1)
            | exception Unix.Unix_error _ -> bump errs)
      in
      attempt 0
    done;
    Pathlog.Client.close !conn
  in
  let threads = List.init clients (fun k -> Thread.create client_thread k) in
  List.iter Thread.join threads;

  (* Snapshot the injection counters before disarming clears them. *)
  let injected_total = Fault.injected_total () in
  let injected_counts = Fault.counts () in
  (* The server must still be alive and coherent: a fault-free probe on a
     fresh connection answers correctly. *)
  Fault.disable ();
  (match Pathlog.Client.connect addr with
  | c ->
    (match Pathlog.Client.query c queries.(0) with
    | Ok lines when List.sort compare lines = expected.(0) -> ()
    | Ok _ -> fail "post-storm probe answered incorrectly"
    | Error msg -> fail "post-storm probe failed: %s" msg);
    Pathlog.Client.close c
  | exception Unix.Unix_error (e, _, _) ->
    fail "server dead after the storm: %s" (Unix.error_message e));
  Pathlog.Server.request_stop srv;
  Pathlog.Server.shutdown srv;

  (* Phase 3: invariants and the final verdict. *)
  (match Pathlog.Store.check_invariants (Program.store p) with
  | [] -> ()
  | broken ->
    List.iter (fun m -> fail "store invariant violated: %s" m) broken);
  if !mismatches > 0 then
    fail "%d completed answers differed from the fault-free run"
      !mismatches;
  Printf.printf
    "requests: %d ok, %d busy, %d errors, %d torn connections, %d \
     mismatches\n"
    !ok !busy !errs !torn !mismatches;
  Printf.printf "injected faults: %d total\n" injected_total;
  List.iter
    (fun (pt, n) ->
      Printf.printf "  %-14s %d\n" (Fault.point_to_string pt) n)
    injected_counts;
  if injected_total = 0 then
    fail "the storm injected nothing — the harness is not testing faults";
  match !failures with
  | [] -> print_endline "chaos: ok"
  | fs ->
    List.iter (fun m -> Printf.printf "chaos FAILURE: %s\n" m) (List.rev fs);
    exit 1
