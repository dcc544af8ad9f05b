(* The multicore additions: domain-parallel fixpoint rounds must compute
   exactly the sequential minimal model, epoch snapshots must isolate
   readers from concurrent writers, and the server's epoch-keyed query
   cache must hit on repeats and invalidate itself on writes. *)

module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint
module Store = Pathlog.Store
module Qcache = Pathlog.Qcache
module Protocol = Pathlog.Protocol
module Server = Pathlog.Server
module Client = Pathlog.Client

let load_jobs ~jobs text =
  let config = { Fixpoint.default_config with jobs } in
  let p = Program.of_string ~config text in
  ignore (Program.run p);
  p

(* ------------------------------------------------------------------ *)
(* Parallel = sequential, property-tested over random rule programs    *)

(* Randprog programs can carry scalar conflicts; both engines must then
   fail. When both succeed the models must be literally identical. *)
let par_equals_seq ~jobs seed =
  let text =
    Pathlog.Randprog.generate { Pathlog.Randprog.seed; facts = 12; rules = 4 }
  in
  match load_jobs ~jobs:1 text with
  | exception _ -> (
    match load_jobs ~jobs text with
    | exception _ -> true
    | _ -> false (* sequential failed, parallel did not *))
  | p_seq -> (
    match load_jobs ~jobs text with
    | exception _ -> false
    | p_par ->
      Helpers.model p_seq = Helpers.model p_par)

let qcheck_par_seq jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "jobs=%d model = sequential model" jobs)
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000))
    (par_equals_seq ~jobs)

(* ------------------------------------------------------------------ *)
(* Deterministic cross-checks                                          *)

(* Many independent rules in one stratum: the shape that actually fans
   out across domains. *)
let partitioned_closure () =
  let b = Buffer.create 4096 in
  for r = 0 to 7 do
    for i = 0 to 11 do
      Buffer.add_string b
        (Printf.sprintf "p%dn%d[to%d ->> {p%dn%d}]. " r i r r (i + 1))
    done;
    Buffer.add_string b
      (Printf.sprintf "X[reach ->> {Y}] <- X[to%d ->> {Y}]. " r);
    Buffer.add_string b
      (Printf.sprintf
         "X[reach ->> {Y}] <- X[to%d ->> {Z}], Z[reach ->> {Y}]. " r)
  done;
  Buffer.contents b

let test_partitioned_closure_jobs () =
  let text = partitioned_closure () in
  let p1 = load_jobs ~jobs:1 text in
  List.iter
    (fun jobs ->
      let pn = load_jobs ~jobs text in
      Alcotest.(check (pair (list string) (list string)))
        (Printf.sprintf "jobs=%d diff empty" jobs)
        ([], [])
        (Helpers.model_diff ~before:p1 ~after:pn))
    [ 2; 4 ]

(* Multiple strata (isa derivation feeds a set-method stratum), plus
   builtin value classes in rule bodies — the case that forced isa
   enumeration to agree with the membership test. *)
let test_multi_stratum_jobs () =
  let text =
    {|
    o0[next -> o1]. o1[next -> o2]. o2[next -> o3]. o3[next -> o4].
    o4 : reach.
    X : reach <- X[next -> Y], Y : reach.
    cell1[value -> 1]. cell2[value -> hello].
    X : tagged <- X[value -> V], V : integer.
    X[sees ->> {Y}] <- X : tagged, Y : reach.
    |}
  in
  let p1 = load_jobs ~jobs:1 text in
  let p4 = load_jobs ~jobs:4 text in
  Alcotest.(check (pair (list string) (list string)))
    "jobs=4 diff empty" ([], [])
    (Helpers.model_diff ~before:p1 ~after:p4);
  Alcotest.(check bool)
    "builtin class membership derived" true
    (Pathlog.holds p4 "cell1 : tagged")

(* ------------------------------------------------------------------ *)
(* Snapshot isolation                                                  *)

let test_snapshot_isolation () =
  let st = Store.create () in
  let c = Store.name st "c" in
  let add i = ignore (Store.add_isa st (Store.name st (Printf.sprintf "m%d" i)) c) in
  add 0;
  add 1;
  let snap = Store.freeze st in
  let e0 = Store.snapshot_epoch snap in
  Alcotest.(check int) "epoch pinned" (Store.epoch st) e0;
  Alcotest.(check bool) "fresh snapshot not stale" false
    (Store.snapshot_stale snap);
  let pinned = Store.snapshot_isa_len snap in
  add 2;
  add 3;
  (* the snapshot still sees exactly the frozen prefix *)
  Alcotest.(check int) "pinned isa length unchanged" pinned
    (Store.snapshot_isa_len snap);
  let seen = ref 0 in
  Store.snapshot_iter_isa snap (fun _ -> incr seen);
  Alcotest.(check int) "iteration bounded by the freeze" pinned !seen;
  (* the live store moved on: a fresh freeze pins the longer prefix *)
  Alcotest.(check int) "live store sees new tuples" (pinned + 2)
    (Store.snapshot_isa_len (Store.freeze st));
  Alcotest.(check bool) "epoch advanced" true (Store.epoch st > e0);
  Alcotest.(check bool) "snapshot now stale" true (Store.snapshot_stale snap)

let test_epoch_ignores_duplicates () =
  let st = Store.create () in
  let c = Store.name st "c" and o = Store.name st "o" in
  ignore (Store.add_isa st o c);
  let e = Store.epoch st in
  ignore (Store.add_isa st o c);
  Alcotest.(check int) "duplicate insert keeps the epoch" e (Store.epoch st)

(* ------------------------------------------------------------------ *)
(* The epoch-keyed query cache                                         *)

let reply lines = Protocol.Ok lines

let test_qcache_hit_and_invalidate () =
  let qc = Qcache.create ~capacity:8 in
  Alcotest.(check bool) "cold miss" true
    (Qcache.find qc ~epoch:1 "q" = None);
  Qcache.add qc ~epoch:1 "q" (reply [ "a" ]);
  Alcotest.(check bool) "hit at the same epoch" true
    (Qcache.find qc ~epoch:1 "q" = Some (reply [ "a" ]));
  (* a write moved the epoch: the stale entry must not be served *)
  Alcotest.(check bool) "miss at a newer epoch" true
    (Qcache.find qc ~epoch:2 "q" = None);
  (* and it was evicted, not kept around *)
  let s = Qcache.stats qc in
  Alcotest.(check int) "stale entry evicted" 0 s.Qcache.entries;
  Alcotest.(check int) "one hit counted" 1 s.Qcache.hits;
  Alcotest.(check int) "two misses counted" 2 s.Qcache.misses

let test_qcache_capacity_reset () =
  let qc = Qcache.create ~capacity:2 in
  Qcache.add qc ~epoch:1 "q1" (reply [ "a" ]);
  Qcache.add qc ~epoch:1 "q2" (reply [ "b" ]);
  (* at capacity: the next add wipes the table wholesale *)
  Qcache.add qc ~epoch:1 "q3" (reply [ "c" ]);
  let s = Qcache.stats qc in
  Alcotest.(check int) "reset down to the new entry" 1 s.Qcache.entries;
  Alcotest.(check bool) "survivor findable" true
    (Qcache.find qc ~epoch:1 "q3" <> None);
  Alcotest.(check bool) "victims gone" true
    (Qcache.find qc ~epoch:1 "q1" = None)

let test_qcache_rejects_bad_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (match Qcache.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Server end to end: cached reads, write invalidation                 *)

let server_program =
  {|
  e1 : employee[age -> 30]. e2 : employee[age -> 45].
  |}

let with_server ?config f =
  let p = Pathlog.load server_program in
  let srv = Server.create ?config ~program:p (Server.Tcp ("127.0.0.1", 0)) in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f p srv)

let with_client srv f =
  let c = Client.connect (Server.address srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let query c q =
  match Client.request c ("QUERY " ^ q) with
  | Ok (Protocol.Ok lines) -> lines
  | Ok r -> Alcotest.failf "unexpected reply: %s" (Protocol.render_reply r)
  | Error `Eof -> Alcotest.fail "connection closed"
  | Error (`Malformed s) -> Alcotest.fail ("malformed reply: " ^ s)

let test_server_cache_and_invalidation () =
  with_server (fun _p srv ->
      with_client srv (fun c ->
          let first = query c "X : employee" in
          let second = query c "X : employee" in
          Alcotest.(check (list string)) "repeat answers agree" first second;
          let s = Server.cache_stats srv in
          Alcotest.(check bool) "repeated query hits the cache" true
            (s.Qcache.hits >= 1);
          Alcotest.(check bool) "first evaluation missed" true
            (s.Qcache.misses >= 1);
          (* STATS exposes the counters *)
          (match Client.stats c with
          | Error e -> Alcotest.fail ("STATS failed: " ^ e)
          | Ok lines ->
            let has prefix =
              List.exists (String.starts_with ~prefix) lines
            in
            Alcotest.(check bool) "cache_hits exported" true
              (has "cache_hits");
            Alcotest.(check bool) "cache_misses exported" true
              (has "cache_misses"));
          (* a write bumps the store epoch: the next read must re-evaluate
             and see the new fact *)
          (match Client.assert_facts c "e3 : employee." with
          | Ok r -> Alcotest.(check int) "one fact added" 1 r.Client.added
          | Error e -> Alcotest.fail ("ASSERT failed: " ^ e));
          let misses_before = (Server.cache_stats srv).Qcache.misses in
          let third = query c "X : employee" in
          Alcotest.(check bool) "new fact visible after write" true
            (List.exists (Helpers.contains ~sub:"e3") third);
          Alcotest.(check bool) "stale entry not served" true
            ((Server.cache_stats srv).Qcache.misses > misses_before)))

let test_server_domain_pool () =
  let config = { Server.default_config with workers = 2; pool_domains = true } in
  with_server ~config (fun _p srv ->
      with_client srv (fun c ->
          Alcotest.(check bool) "ping over domain workers" true
            (Client.ping c);
          let rows = query c "X : employee" in
          Alcotest.(check bool) "query over domain workers" true
            (rows <> [])))

let suite =
  [
    Helpers.qtest (qcheck_par_seq 2);
    Helpers.qtest (qcheck_par_seq 4);
    Alcotest.test_case "partitioned closure, jobs 2 and 4" `Quick
      test_partitioned_closure_jobs;
    Alcotest.test_case "multi-stratum + builtin classes, jobs 4" `Quick
      test_multi_stratum_jobs;
    Alcotest.test_case "snapshot isolation under appends" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "duplicate inserts keep the epoch" `Quick
      test_epoch_ignores_duplicates;
    Alcotest.test_case "qcache: hit, epoch invalidation, eviction" `Quick
      test_qcache_hit_and_invalidate;
    Alcotest.test_case "qcache: wholesale reset at capacity" `Quick
      test_qcache_capacity_reset;
    Alcotest.test_case "qcache: capacity must be positive" `Quick
      test_qcache_rejects_bad_capacity;
    Alcotest.test_case "server: cached reads + write invalidation" `Quick
      test_server_cache_and_invalidation;
    Alcotest.test_case "server: domain-backed worker pool" `Quick
      test_server_domain_pool;
  ]
