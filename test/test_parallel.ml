(* The multicore additions: domain-parallel fixpoint rounds must compute
   exactly the sequential minimal model, a snapshot must notice every
   write, the server's epoch-keyed query cache must hit on repeats and
   invalidate itself on writes, and a server read beside writes must
   answer the model after some committed batch. *)

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
  add 2;
  add 3;
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
  let qc = Qcache.create ~capacity:4096 in
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
  Alcotest.(check int) "stale entry's bytes released" 0 s.Qcache.bytes;
  Alcotest.(check int) "one hit counted" 1 s.Qcache.hits;
  Alcotest.(check int) "two misses counted" 2 s.Qcache.misses

(* What an entry for [key] holding [r] weighs against the budget. *)
let weight key r =
  String.length key
  + String.length (Protocol.render_reply r)
  + Qcache.entry_overhead

(* CLOCK under a byte budget: an add that does not fit evicts, one entry
   at a time, the first the hand finds not hit since it last passed; a
   hit entry loses its bit instead and survives the sweep. Every key and
   frame below weighs the same [w], and the budget holds eight of them,
   the fewest the eighth-of-the-budget rule lets fit. *)
let test_qcache_clock_eviction () =
  let key i = Printf.sprintf "q%c" (Char.chr (Char.code 'a' + i)) in
  let w = weight (key 0) (reply [ key 0 ]) in
  let capacity = 8 * w in
  let qc = Qcache.create ~capacity in
  let add k =
    Qcache.add qc ~epoch:1 k (reply [ k ]);
    let s = Qcache.stats qc in
    Alcotest.(check bool) "weight within the budget" true
      (s.Qcache.bytes <= capacity);
    Alcotest.(check int) "weight is entries times w" (s.Qcache.entries * w)
      s.Qcache.bytes
  in
  (* a lookup sets the bit it observes: only misses are looked up until
     the last sweep *)
  let cached k = Qcache.find qc ~epoch:1 k <> None in
  let evictions () = (Qcache.stats qc).Qcache.evictions in
  List.iter add (List.init 8 key);
  Alcotest.(check int) "full, nothing evicted" 0 (evictions ());
  Alcotest.(check bool) "qa hit" true (cached "qa");
  (* the hand passes qa, clearing its bit, and evicts qb: one eviction,
     so qa stays beside the new qi *)
  add "qi";
  Alcotest.(check int) "one entry evicted" 1 (evictions ());
  Alcotest.(check bool) "unhit qb evicted" false (cached "qb");
  (* qc .. qh were never hit: one eviction each *)
  List.iter add [ "qj"; "qk"; "ql"; "qm"; "qn"; "qo" ];
  Alcotest.(check int) "one eviction per add at the budget" 7 (evictions ());
  Alcotest.(check bool) "unhit qh evicted" false (cached "qh");
  (* qa was not hit since the hand last passed it *)
  add "qp";
  Alcotest.(check bool) "qa evicted once its bit was spent" false
    (cached "qa");
  Alcotest.(check int) "eight evictions" 8 (evictions ());
  Alcotest.(check (list bool)) "the eight newest cached"
    (List.init 8 (fun _ -> true))
    (List.map cached [ "qi"; "qj"; "qk"; "ql"; "qm"; "qn"; "qo"; "qp" ]);
  Alcotest.(check int) "never above the budget" 8
    (Qcache.stats qc).Qcache.entries;
  (* re-adding a cached key replaces it in place: no eviction *)
  add "qi";
  Alcotest.(check int) "replace evicts nothing" 8 (evictions ());
  (* a frame over an eighth of the budget is not cached, and evicts
     nothing to make room *)
  let big = reply [ String.make w 'x' ] in
  Qcache.add qc ~epoch:1 "qz" big;
  Alcotest.(check bool) "oversized frame not cached" false (cached "qz");
  Alcotest.(check int) "oversized frame evicts nothing" 8 (evictions ());
  (* ... and a key whose new frame is oversized loses its older one *)
  Qcache.add qc ~epoch:1 "qi" big;
  Alcotest.(check bool) "older frame dropped" false (cached "qi");
  Alcotest.(check int) "seven left" (7 * w) (Qcache.stats qc).Qcache.bytes;
  (* one heavy frame evicts as many light ones as it needs: sixteen
     light entries fill a fresh cache, and a frame twice their weight
     takes the room of two *)
  let qc = Qcache.create ~capacity:(2 * capacity) in
  List.iter (fun i -> Qcache.add qc ~epoch:1 (key i) (reply [ key i ]))
    (List.init 16 Fun.id);
  let heavy = reply [ key 0; String.make (w / 2) 'y' ] in
  let hw = weight "qy" heavy in
  Alcotest.(check bool) "heavy frame within an eighth" true
    (hw > w && hw <= 2 * w);
  Qcache.add qc ~epoch:1 "qy" heavy;
  let s = Qcache.stats qc in
  Alcotest.(check int) "two light entries evicted" 2 s.Qcache.evictions;
  Alcotest.(check int) "fifteen entries" 15 s.Qcache.entries;
  Alcotest.(check int) "weight of what is left" ((14 * w) + hw) s.Qcache.bytes;
  Alcotest.(check bool) "heavy frame cached" true
    (Qcache.find qc ~epoch:1 "qy" = Some heavy)

(* Random finds and adds at random epochs, of frames of random size,
   against a reference map of each key's latest add: a reply is only
   ever the latest add's, at its epoch, and never one weighing more than
   an eighth of the budget; the weight never exceeds the budget; and
   when every key's heaviest frame fits at once nothing is evicted. *)
let qcheck_qcache_reference =
  let op =
    QCheck.Gen.(
      quad bool (int_bound 15) (int_bound 2) (int_bound 120)
      |> map (fun (f, k, e, n) ->
             ((if f then `Find else `Add), "q" ^ string_of_int k, e, n)))
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %d: %s" cap
      (String.concat "; "
         (List.map
            (fun (o, k, e, n) ->
              match o with
              | `Find -> Printf.sprintf "find %s@%d" k e
              | `Add -> Printf.sprintf "add %s@%d (%d bytes)" k e n)
            ops))
  in
  QCheck.Test.make ~count:500 ~name:"qcache: find/add/epoch = reference map"
    (QCheck.make ~print
       QCheck.Gen.(pair (int_range 1024 3000) (list_size (int_bound 60) op)))
    (fun (capacity, ops) ->
      let qc = Qcache.create ~capacity in
      let latest = Hashtbl.create 8 and heaviest = Hashtbl.create 8 in
      let ok = ref true in
      List.iteri
        (fun i (o, k, epoch, n) ->
          (match o with
          | `Add ->
            let r =
              reply
                [ k; string_of_int epoch; string_of_int i; String.make n 'x' ]
            in
            let w = weight k r in
            Hashtbl.replace latest k (epoch, r);
            if w <= capacity / 8 then
              Hashtbl.replace heaviest k
                (max w (Option.value ~default:0 (Hashtbl.find_opt heaviest k)));
            Qcache.add qc ~epoch k r
          | `Find -> (
            match Qcache.find qc ~epoch k with
            | None -> ()
            | Some r ->
              ok :=
                !ok
                && Hashtbl.find_opt latest k = Some (epoch, r)
                && weight k r <= capacity / 8));
          ok := !ok && (Qcache.stats qc).Qcache.bytes <= capacity)
        ops;
      let fits = Hashtbl.fold (fun _ w acc -> w + acc) heaviest 0 <= capacity in
      !ok && ((not fits) || (Qcache.stats qc).Qcache.evictions = 0))

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

let with_server ?config ?(program = server_program) f =
  let p = Pathlog.load program in
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

let domain_config =
  { Server.default_config with workers = 2; pool_domains = true }

let test_server_domain_pool () =
  with_server ~config:domain_config (fun _p srv ->
      with_client srv (fun c ->
          Alcotest.(check bool) "ping over domain workers" true
            (Client.ping c);
          let rows = query c "X : employee" in
          Alcotest.(check bool) "query over domain workers" true
            (rows <> [])))

(* ------------------------------------------------------------------ *)
(* Reads beside writes: every QUERY answer is the model after some
   committed batch, never a half-maintained or half-resized one        *)

(* [readers] client connections, each in its own domain, loop [read]
   while [write] runs on one more connection; returns (reads, wrong). *)
let reads_beside_writes srv ~readers ~read ~write =
  let stop = Atomic.make false in
  let reads = Atomic.make 0 and wrong = Atomic.make 0 in
  let reader i =
    Domain.spawn (fun () ->
        with_client srv (fun c ->
            let n = ref i in
            while not (Atomic.get stop) do
              if not (read c !n) then Atomic.incr wrong;
              Atomic.incr reads;
              incr n
            done))
  in
  let domains = List.init readers reader in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join domains)
    (fun () -> with_client srv write);
  (Atomic.get reads, Atomic.get wrong)

let mutate c verb text =
  match Client.request c (verb ^ " " ^ text) with
  | Ok (Protocol.Ok _) -> ()
  | Ok r -> Alcotest.failf "%s refused: %s" verb (Protocol.render_reply r)
  | Error _ -> Alcotest.failf "%s: connection lost" verb

(* Two 60-edge chains from s to t: retracting the first edge of one
   sends DRed through every s[tc ->> ...] fact behind it, including
   s[tc ->> {t}], which the other chain re-derives. The fact holds after
   every batch, so every reply must be yes. *)
let test_dred_toggle_reads () =
  let chain name =
    List.init 60 (fun i ->
        let node j =
          if j < 0 then "s" else if j = 59 then "t"
          else Printf.sprintf "%s%d" name j
        in
        Printf.sprintf "%s[edge ->> {%s}]." (node (i - 1)) (node i))
  in
  let program =
    String.concat "\n"
      (chain "p" @ chain "q"
      @ [
          "X[tc ->> {Y}] <- X[edge ->> {Y}].";
          "X[tc ->> {Y}] <- X[edge ->> {Z}], Z[tc ->> {Y}].";
        ])
  in
  with_server ~config:domain_config ~program (fun _p srv ->
      let reads, wrong =
        reads_beside_writes srv ~readers:2
          ~read:(fun c _ ->
            Client.request c "QUERY s[tc ->> {t}]" = Ok (Protocol.Ok [ "yes" ]))
          ~write:(fun c ->
            for _ = 1 to 150 do
              mutate c "RETRACT" "s[edge ->> {q0}].";
              mutate c "ASSERT" "s[edge ->> {q0}]."
            done)
      in
      Alcotest.(check bool) "reads ran" true (reads > 0);
      Alcotest.(check int)
        (Printf.sprintf "wrong answers among %d reads" reads)
        0 wrong)

(* 64 receivers hold f from load; one client asserts f for 4,000 fresh
   receivers in small batches, growing (and so resizing) the store's
   indexes four times. A stored fact must never read as absent. Each read
   names its variable afresh, so it misses the result cache and is
   evaluated. *)
let test_resize_reads () =
  let program =
    String.concat " "
      (List.init 64 (fun i -> Printf.sprintf "r%d[f -> v%d]." i i))
  in
  with_server ~config:domain_config ~program (fun _p srv ->
      let reads, wrong =
        reads_beside_writes srv ~readers:2
          ~read:(fun c n ->
            let i = n mod 64 in
            Client.request c (Printf.sprintf "QUERY r%d[f -> X%d]" i n)
            = Ok
                (Protocol.Ok
                   [ Printf.sprintf "X%d" n; Printf.sprintf "v%d" i ]))
          ~write:(fun c ->
            for b = 0 to 399 do
              mutate c "ASSERT"
                (String.concat " "
                   (List.init 10 (fun i ->
                        Printf.sprintf "n%d_%d[f -> w]." b i)))
            done)
      in
      Alcotest.(check bool) "reads ran" true (reads > 0);
      Alcotest.(check int)
        (Printf.sprintf "empty answers among %d reads" reads)
        0 wrong)

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
    Alcotest.test_case "qcache: CLOCK eviction at capacity" `Quick
      test_qcache_clock_eviction;
    Alcotest.test_case "qcache: capacity must be positive" `Quick
      test_qcache_rejects_bad_capacity;
    Alcotest.test_case "server: cached reads + write invalidation" `Quick
      test_server_cache_and_invalidation;
    Alcotest.test_case "server: domain-backed worker pool" `Quick
      test_server_domain_pool;
    Alcotest.test_case "server: reads beside a DRed toggle see committed \
                        batches" `Quick test_dred_toggle_reads;
    Alcotest.test_case "server: reads beside index resizes see stored \
                        facts" `Quick test_resize_reads;
    Helpers.qtest qcheck_qcache_reference;
  ]
