(* Durability: WAL framing and recovery, snapshot fallback, the Live
   commit hook, crash-equivalence properties, and the server's
   BUSY-while-recovering window. Every test works in a throwaway data
   directory under the system temp root, removed on the way out. *)

open Helpers
module Durable = Pathlog.Durable
module Live = Pathlog.Live
module Program = Pathlog.Program
module Store = Pathlog.Store
module Server = Pathlog.Server
module Client = Pathlog.Client
module Fault = Pathlog.Fault

(* ------------------------------------------------------------------ *)
(* Temp data directories, always cleaned up *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun n -> rm_rf (Filename.concat path n))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pldur-%d-%d" (Unix.getpid ()) !counter)

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Append raw bytes to the WAL file — the torn-write / bit-rot model. *)
let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let flip_byte path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
      ignore (Unix.read fd b 0 1 : int);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
      ignore (Unix.write fd b 0 1 : int))

let file_size path = (Unix.stat path).Unix.st_size

let texts recovery = List.map (fun r -> r.Durable.text) recovery.Durable.r_tail

(* ------------------------------------------------------------------ *)
(* WAL goldens *)

let fresh_dir_roundtrip () =
  with_dir (fun dir ->
      let d, r = Durable.open_dir dir in
      Alcotest.(check bool) "no snapshot" true (r.Durable.r_snapshot = None);
      Alcotest.(check int) "no tail" 0 (List.length r.Durable.r_tail);
      Alcotest.(check int) "no torn bytes" 0 r.Durable.r_torn_bytes;
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      ignore (Durable.append d ~retract:false ~epoch:2 "b : c." : int);
      ignore (Durable.append d ~retract:true ~epoch:3 "a : c." : int);
      Durable.close d;
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      Alcotest.(check (list string))
        "records back in order"
        [ "a : c."; "b : c."; "a : c." ]
        (texts r2);
      Alcotest.(check (list int))
        "sequence numbers" [ 1; 2; 3 ]
        (List.map (fun r -> r.Durable.seq) r2.Durable.r_tail);
      Alcotest.(check (list bool))
        "verbs" [ false; false; true ]
        (List.map (fun r -> r.Durable.retract) r2.Durable.r_tail))

let torn_tail_truncated () =
  with_dir (fun dir ->
      let d, _ = Durable.open_dir dir in
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      ignore (Durable.append d ~retract:false ~epoch:2 "b : c." : int);
      Durable.close d;
      let wal = Durable.wal_path dir in
      let clean = file_size wal in
      append_bytes wal "\x13\x37garbage half-frame";
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      Alcotest.(check (list string))
        "intact prefix survives" [ "a : c."; "b : c." ] (texts r2);
      Alcotest.(check bool) "torn bytes counted" true (r2.Durable.r_torn_bytes > 0);
      Alcotest.(check int) "file truncated back" clean (file_size wal);
      (* a third open sees a clean log: truncation was physical *)
      let d3, r3 = Durable.open_dir dir in
      Durable.close d3;
      Alcotest.(check int) "clean after truncation" 0 r3.Durable.r_torn_bytes)

let bit_flip_detected () =
  with_dir (fun dir ->
      let d, _ = Durable.open_dir dir in
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      ignore (Durable.append d ~retract:false ~epoch:2 "b : c." : int);
      let before_last = Durable.wal_path dir |> file_size in
      ignore (Durable.append d ~retract:false ~epoch:3 "c : c." : int);
      Durable.close d;
      (* flip one byte inside the last record's payload: the CRC must
         refuse the record — never a silent wrong-text load *)
      flip_byte (Durable.wal_path dir) (before_last + 12);
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      Alcotest.(check (list string))
        "only the intact prefix" [ "a : c."; "b : c." ] (texts r2);
      Alcotest.(check bool) "corruption detected" true
        (r2.Durable.r_torn_bytes > 0))

let junk_wal_starts_fresh () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let oc = open_out_bin (Durable.wal_path dir) in
      output_string oc "this is not a WAL at all";
      close_out oc;
      let d, r = Durable.open_dir dir in
      Alcotest.(check int) "no records" 0 (List.length r.Durable.r_tail);
      Alcotest.(check bool) "junk counted as torn" true
        (r.Durable.r_torn_bytes > 0);
      (* and the rewritten log is usable *)
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      Durable.close d;
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      Alcotest.(check (list string)) "usable after rewrite" [ "a : c." ]
        (texts r2))

(* ------------------------------------------------------------------ *)
(* Snapshot goldens *)

let snapshot_filters_tail () =
  with_dir (fun dir ->
      let d, _ = Durable.open_dir dir in
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      ignore (Durable.append d ~retract:false ~epoch:2 "b : c." : int);
      Alcotest.(check bool) "snapshot written" true
        (Durable.snapshot_now d ~epoch:2 ~source:"a : c. b : c.");
      ignore (Durable.append d ~retract:false ~epoch:3 "c : c." : int);
      Durable.close d;
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      (match r2.Durable.r_snapshot with
      | Some (seq, epoch, src) ->
        Alcotest.(check int) "snapshot at seq 2" 2 seq;
        Alcotest.(check int) "snapshot epoch" 2 epoch;
        Alcotest.(check string) "snapshot source" "a : c. b : c." src
      | None -> Alcotest.fail "snapshot not recovered");
      Alcotest.(check (list string))
        "tail = records after the snapshot" [ "c : c." ] (texts r2))

let corrupt_snapshot_falls_back () =
  with_dir (fun dir ->
      let d, _ = Durable.open_dir dir in
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      Alcotest.(check bool) "older snapshot" true
        (Durable.snapshot_now d ~epoch:1 ~source:"a : c.");
      ignore (Durable.append d ~retract:false ~epoch:2 "b : c." : int);
      Alcotest.(check bool) "newer snapshot" true
        (Durable.snapshot_now d ~epoch:2 ~source:"a : c. b : c.");
      ignore (Durable.append d ~retract:false ~epoch:3 "c : c." : int);
      Durable.close d;
      (* rot a byte in the newest snapshot: recovery must fall back to
         the older one and replay a LONGER WAL suffix — no data loss *)
      let snaps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".snap")
        |> List.sort compare
      in
      Alcotest.(check int) "two snapshots retained" 2 (List.length snaps);
      let newest = Filename.concat dir (List.nth snaps 1) in
      flip_byte newest (file_size newest - 3);
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      (match r2.Durable.r_snapshot with
      | Some (seq, _, src) ->
        Alcotest.(check int) "older snapshot wins" 1 seq;
        Alcotest.(check string) "older source" "a : c." src
      | None -> Alcotest.fail "no snapshot recovered");
      Alcotest.(check int) "one snapshot skipped" 1
        r2.Durable.r_snapshots_skipped;
      Alcotest.(check (list string))
        "longer suffix compensates" [ "b : c."; "c : c." ] (texts r2))

let missing_snapshot_wal_alone () =
  with_dir (fun dir ->
      let d, _ = Durable.open_dir dir in
      ignore (Durable.append d ~retract:false ~epoch:1 "a : c." : int);
      Alcotest.(check bool) "snapshot" true (Durable.snapshot_now d ~epoch:1 ~source:"a : c.");
      ignore (Durable.append d ~retract:false ~epoch:2 "b : c." : int);
      Durable.close d;
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".snap" then
            Unix.unlink (Filename.concat dir n))
        (Sys.readdir dir);
      let d2, r2 = Durable.open_dir dir in
      Durable.close d2;
      Alcotest.(check bool) "no snapshot" true (r2.Durable.r_snapshot = None);
      Alcotest.(check (list string))
        "the whole WAL replays" [ "a : c."; "b : c." ] (texts r2))

(* ------------------------------------------------------------------ *)
(* The Live commit hook: a batch reaches the log iff it reaches the
   model — including under injected WAL faults. *)

let base_program =
  {|
    X[reach ->> {Y}] <- X[edge ->> {Y}].
    X[reach ->> {Y}] <- X[edge ->> {Z}] , Z[reach ->> {Y}].
    X : connected <- X[reach ->> {Y}].
  |}

let attach_logged ?(jobs = 1) dir =
  let config = { Pathlog.Fixpoint.default_config with jobs } in
  let p = Program.of_string ~config base_program in
  ignore (Program.run p);
  let live = Live.attach p in
  let d, recovery = Durable.open_dir dir in
  Live.set_commit_hook live
    (Some
       (fun ~retract ~epoch ~text ->
         ignore (Durable.append d ~retract ~epoch text : int)));
  (live, d, recovery)

(* Rebuild from disk exactly as the server does: newest valid snapshot
   source (or the base program), then the WAL suffix through Live. *)
let recover_model ?(jobs = 1) dir =
  let d, r = Durable.open_dir dir in
  Durable.close d;
  let config = { Pathlog.Fixpoint.default_config with jobs } in
  let src =
    match r.Durable.r_snapshot with
    | Some (_, _, src) -> src
    | None -> base_program
  in
  let p = Program.of_string ~config src in
  ignore (Program.run p);
  let live = Live.attach p in
  List.iter
    (fun (rec_ : Durable.record) ->
      let apply = if rec_.Durable.retract then Live.retract_batch else Live.assert_batch in
      ignore (apply live rec_.Durable.text : Live.batch_stats))
    r.Durable.r_tail;
  live

let check_recovered_equals live recovered =
  Alcotest.(check (pair (list string) (list string)))
    "recovered model = surviving model" ([], [])
    (Helpers.model_diff ~before:(Live.program live)
       ~after:(Live.program recovered));
  Alcotest.(check (list string))
    "store invariants" []
    (Store.check_invariants (Live.store recovered));
  Alcotest.(check (list string))
    "provenance records" [] (Live.check_support recovered)

let injected_wal_fault_rolls_back () =
  with_dir (fun dir ->
      let live, d, _ = attach_logged dir in
      ignore (Live.assert_batch live "n1[edge ->> {n2}]." : Live.batch_stats);
      let wal_before = Durable.wal_path dir |> file_size in
      (match Fault.configure_string "seed=7;wal_append:fail@1.0" with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (match Live.assert_batch live "n2[edge ->> {n3}]." with
      | (_ : Live.batch_stats) -> Alcotest.fail "append fault swallowed"
      | exception Fault.Injected Fault.Wal_append -> ()
      | exception e -> Alcotest.fail (Printexc.to_string e));
      Fault.disable ();
      Durable.close d;
      (* the refused batch is in neither the model nor the log *)
      Alcotest.(check bool) "model rolled back" false
        (Pathlog.holds (Live.program live) "n2[edge ->> {n3}]");
      Alcotest.(check bool) "still consistent" true
        (Pathlog.holds (Live.program live) "n1[edge ->> {n2}]");
      Alcotest.(check int)
        "nothing reached the log" wal_before
        (Durable.wal_path dir |> file_size);
      let recovered = recover_model dir in
      check_recovered_equals live recovered)

let torn_append_self_truncates () =
  with_dir (fun dir ->
      let live, d, _ = attach_logged dir in
      ignore (Live.assert_batch live "n1[edge ->> {n2}]." : Live.batch_stats);
      let wal_before = Durable.wal_path dir |> file_size in
      (* Short writes half the frame before raising: the partial frame
         must be truncated away immediately, not left for recovery *)
      (match Fault.configure_string "seed=7;wal_append:short@1.0" with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (match Live.assert_batch live "n2[edge ->> {n3}]." with
      | (_ : Live.batch_stats) -> Alcotest.fail "append fault swallowed"
      | exception Fault.Injected Fault.Wal_append -> ()
      | exception e -> Alcotest.fail (Printexc.to_string e));
      Fault.disable ();
      Alcotest.(check int)
        "partial frame truncated" wal_before
        (Durable.wal_path dir |> file_size);
      (* and the log still accepts the batch on retry *)
      ignore (Live.assert_batch live "n2[edge ->> {n3}]." : Live.batch_stats);
      Durable.close d;
      let recovered = recover_model dir in
      check_recovered_equals live recovered)

(* ------------------------------------------------------------------ *)
(* Property: recover (snapshot + WAL) = the in-memory model, over
   random batch interleavings with snapshots cut at random points. *)

let crash_equals_memory ~jobs seed =
  with_dir (fun dir ->
      let rng = Random.State.make [| seed |] in
      let live, d, _ = attach_logged ~jobs dir in
      let mirror = ref [] in
      let obj i = Printf.sprintf "n%d" i in
      let random_fact () =
        if Random.State.int rng 4 = 0 then
          Printf.sprintf "%s : grp%d." (obj (Random.State.int rng 8))
            (Random.State.int rng 3)
        else
          Printf.sprintf "%s[edge ->> {%s}]." (obj (Random.State.int rng 8))
            (obj (Random.State.int rng 8))
      in
      for _ = 1 to 8 do
        let retract = !mirror <> [] && Random.State.bool rng in
        let k = 1 + Random.State.int rng 3 in
        (if retract then begin
           let batch = ref [] in
           for _ = 1 to k do
             match !mirror with
             | [] -> ()
             | l ->
               let i = Random.State.int rng (List.length l) in
               batch := List.nth l i :: !batch;
               mirror := List.filteri (fun j _ -> j <> i) l
           done;
           if !batch <> [] then
             ignore
               (Live.retract_batch live (String.concat " " !batch)
                 : Live.batch_stats)
         end
         else begin
           let batch = List.init k (fun _ -> random_fact ()) in
           mirror := batch @ !mirror;
           ignore
             (Live.assert_batch live (String.concat " " batch)
               : Live.batch_stats)
         end);
        (* sometimes cut a snapshot mid-history: recovery must stitch
           snapshot + suffix, not just replay from genesis *)
        if Random.State.int rng 3 = 0 then
          ignore
            (Durable.snapshot_now d
               ~epoch:(Store.epoch (Live.store live))
               ~source:(Live.dump_source live)
              : bool)
      done;
      (* crash: the process dies; only the files survive *)
      Durable.close d;
      let recovered = recover_model ~jobs dir in
      Helpers.model (Live.program live) = Helpers.model (Live.program recovered)
      && Store.check_invariants (Live.store recovered) = []
      && Live.check_support recovered = [])

let qcheck_crash jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "recover (snapshot + WAL) = memory, jobs=%d" jobs)
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000))
    (crash_equals_memory ~jobs)

(* ------------------------------------------------------------------ *)
(* Server integration: --data persistence and the BUSY window *)

let server_program = "seed1 : kept.\n"

let with_durable_server ?(config = Server.default_config)
    ?(program = server_program) dir f =
  let p = load program in
  let config = { config with Server.data_dir = Some dir } in
  let srv = Server.create ~config ~program:p (Server.Tcp ("127.0.0.1", 0)) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

let with_client srv f =
  let c = Client.connect (Server.address srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let server_survives_restart () =
  with_dir (fun dir ->
      with_durable_server dir (fun srv ->
          Server.await_ready srv;
          with_client srv (fun c ->
              (match Client.assert_facts c "x1 : kept. x2 : kept." with
              | Ok _ -> ()
              | Error msg -> Alcotest.fail msg);
              match Client.retract_facts c "x2 : kept." with
              | Ok _ -> ()
              | Error msg -> Alcotest.fail msg));
      (* "restart": a second server over the same data directory *)
      with_durable_server dir (fun srv ->
          Server.await_ready srv;
          Alcotest.(check bool) "recovery finished" false (Server.recovering srv);
          with_client srv (fun c ->
              (match Client.query c "x1 : kept" with
              | Ok lines -> Alcotest.(check (list string)) "x1 back" [ "yes" ] lines
              | Error msg -> Alcotest.fail msg);
              (match Client.query c "x2 : kept" with
              | Ok lines ->
                Alcotest.(check (list string)) "x2 stays retracted" [ "no" ] lines
              | Error msg -> Alcotest.fail msg);
              match Client.stats c with
              | Ok lines ->
                Alcotest.(check bool) "STATS reports the WAL" true
                  (List.exists
                     (fun l ->
                       String.length l > 17
                       && String.sub l 0 17 = "wal_appends_total")
                     lines)
              | Error msg -> Alcotest.fail msg)))

let busy_while_recovering () =
  with_dir (fun dir ->
      with_durable_server dir (fun srv ->
          Server.await_ready srv;
          with_client srv (fun c ->
              match Client.assert_facts c "x1 : kept." with
              | Ok _ -> ()
              | Error msg -> Alcotest.fail msg));
      (* slow the replay down so the BUSY window is observable *)
      let config = { Server.default_config with recovery_delay_s = 0.4 } in
      with_durable_server ~config dir (fun srv ->
          Alcotest.(check bool) "still recovering" true (Server.recovering srv);
          with_client srv (fun c ->
              (* raw request: the shed is immediate and explicit *)
              (match Client.request c "QUERY x1 : kept" with
              | Ok (Pathlog.Protocol.Busy (retry_ms, _)) ->
                Alcotest.(check bool) "retry-after hint" true (retry_ms > 0)
              | Ok r ->
                Alcotest.fail
                  ("expected BUSY, got " ^ Pathlog.Protocol.render_reply r)
              | Error _ -> Alcotest.fail "transport error");
              (* PING and STATS stay answered during replay *)
              Alcotest.(check bool) "ping during replay" true (Client.ping c);
              Alcotest.(check bool) "stats during replay" true
                (Result.is_ok (Client.stats c));
              Alcotest.(check bool) "stats answered before replay ended"
                true (Server.recovering srv);
              (* the retrying client rides the backoff past the window *)
              match Client.request_with_retry ~max_attempts:25 c "QUERY x1 : kept" with
              | Ok (Pathlog.Protocol.Ok lines) ->
                Alcotest.(check (list string)) "answered after replay" [ "yes" ] lines
              | Ok r ->
                Alcotest.fail
                  ("expected OK, got " ^ Pathlog.Protocol.render_reply r)
              | Error _ -> Alcotest.fail "transport error")))

(* Snapshots are the live source: virtual objects in method and class
   position must come back as the facts that were asserted. *)
let snapshot_restores_virtual_positions () =
  let program =
    {|
    mary[kids ->> {tom}].
    X[(M.tc) ->> {Y}] <- X[M ->> {Y}].
    X[(M.tc) ->> {Y}] <- X..(M.tc)[M ->> {Y}].
    |}
  in
  let queries =
    [ "mary[(kids.tc) ->> {X}]"; "X : (kids.tc)"; "X : kids"; "o : C" ]
  in
  let config = { Server.default_config with snapshot_every = 1 } in
  with_dir (fun dir ->
      let with_server f =
        with_durable_server ~config ~program dir (fun srv ->
            Server.await_ready srv;
            with_client srv f)
      in
      let answers c =
        List.map
          (fun q ->
            match Client.query c q with
            | Ok lines -> List.sort compare lines
            | Error msg -> Alcotest.fail (q ^ ": " ^ msg))
          queries
      in
      let before =
        with_server (fun c ->
            List.iter
              (fun batch ->
                match Client.assert_facts c batch with
                | Ok _ -> ()
                | Error msg -> Alcotest.fail msg)
              [ "mary[(kids.tc) ->> {ann}]."; "o : (kids.tc)." ];
            answers c)
      in
      Alcotest.(check bool) "snapshots were written" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".snap")
           (Sys.readdir dir));
      Alcotest.(check (list (list string)))
        "asserted facts answer after the restart" before
        (with_server answers))

(* ------------------------------------------------------------------ *)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    case "fresh directory roundtrip" fresh_dir_roundtrip;
    case "torn tail truncated on open" torn_tail_truncated;
    case "bit flip is CRC-detected, never loaded" bit_flip_detected;
    case "junk WAL file starts fresh" junk_wal_starts_fresh;
    case "snapshot filters the replay tail" snapshot_filters_tail;
    case "corrupt snapshot falls back to older + longer suffix"
      corrupt_snapshot_falls_back;
    case "missing snapshots: WAL alone recovers" missing_snapshot_wal_alone;
    case "injected append fault rolls the batch back"
      injected_wal_fault_rolls_back;
    case "torn append self-truncates and retries" torn_append_self_truncates;
    case "regression: interleaving seed 29211 recovers" (fun () ->
        (* duplicate assert + mid-history snapshot: the snapshot must dump
           the fact once per extensional multiplicity or replaying the
           later retract over-deletes (fixed in Live.dump_source) *)
        Alcotest.(check bool) "recover = memory" true
          (crash_equals_memory ~jobs:1 29211));
    qtest (qcheck_crash 1);
    qtest (qcheck_crash 4);
    case "server: acknowledged batches survive restart" server_survives_restart;
    case "server: BUSY with retry-after while replaying" busy_while_recovering;
    case "server: snapshots restore virtual methods and classes"
      snapshot_restores_virtual_positions;
  ]
