(* Reproducible perf harness: `dune exec bench/main.exe -- perf [OPTS]`.

   Runs a fixed suite — transitive closure over chain / layered-DAG /
   random-forest shapes, a fixpoint that derives isa edges, the company
   query workload, a bound-receiver set-method query, incremental
   hierarchy-closure growth, live maintenance, demand, regular paths,
   server throughput, WAL recovery, and the paper's experiments E1-E12
   (the e1_ .. e12_ and store_ suites) — and writes a JSON report with
   wall time, ops/s where meaningful, and the deterministic fixpoint
   counters (rule_evaluations, firings, rounds) so every future PR can
   report speedups against a committed baseline.

   Options:
     --quick           fewer timing repetitions (same deterministic sizes,
                       so the fixpoint counters match the full run)
     --out FILE        write the JSON report (default BENCH.json)
     --jobs N          evaluate the general fixpoint suites on N domains
                       (default 1; the fixpoint_par_* scaling suites
                       always run at 1, 2 and 4)
     --baseline FILE   read a previous report and embed per-suite
                       baseline wall times + speedup factors
     --check FILE      compare this run's counters against the committed
                       report; exit non-zero when rule_evaluations grew
                       or cache_hits fell by more than 20%%, or (without
                       --only) when a committed suite with either counter
                       was not run (used by CI)
     --only PREFIX     run only the suites whose name starts with PREFIX
                       (e.g. --only regex for the automaton suites,
                       --only e7_ for one experiment);
                       needs --out, so a partial run never overwrites
                       the full report *)

module Program = Pathlog.Program
module Store = Pathlog.Store
module Ir = Pathlog.Ir
module Solve = Pathlog.Solve

type suite = {
  name : string;
  wall_s : float;
  ops_per_s : float option;
  rule_evaluations : int option;
  cache_hits : int option;
      (* server suites: STATS cache_hits, gated like rule_evaluations but
         in the other direction *)
  transforms : int option;
      (* demand suites: Demand.transform calls, gated like
         rule_evaluations *)
  firings : int option;
  rounds : int option;
  speedup_vs_1j : float option;
      (* scaling suites: this run's speedup over the jobs=1 run *)
  speedup_vs_full : float option;
      (* demand suites: full-materialisation wall over demand wall *)
  detail : string;
}

let suite ?ops_per_s ?rule_evaluations ?cache_hits ?transforms ?firings
    ?rounds ?speedup_vs_1j ?speedup_vs_full ~detail name wall_s =
  {
    name;
    wall_s;
    ops_per_s;
    rule_evaluations;
    cache_hits;
    transforms;
    firings;
    rounds;
    speedup_vs_1j;
    speedup_vs_full;
    detail;
  }

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)

(* Seconds on the monotonic clock, which NTP cannot step. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let wall f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Best-of-n wall time; result and counters from the last run (the runs
   are deterministic, so any run's counters are the counters). *)
let best_of n f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let r, w = wall f in
    if w < !best then best := w;
    result := Some r
  done;
  (Option.get !result, !best)

(* Repeat [f] enough times to fill ~[target] seconds (calibrated from one
   run, capped), return ops/s and total wall. *)
let measure_ops ~target f =
  ignore (f ());
  let _, once = wall f in
  let reps = max 1 (min 5000 (int_of_float (target /. max 1e-6 once))) in
  let (), w =
    wall (fun () ->
        for _ = 1 to reps do
          ignore (f ())
        done)
  in
  (float_of_int reps /. w, w)

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)

let fixpoint_suite ?(mode = Pathlog.Fixpoint.Seminaive) name stmts ~jobs
    ~reps ~detail =
  let config = { Pathlog.Fixpoint.default_config with jobs; mode } in
  let run () =
    let p = Program.create ~config stmts in
    Program.run p
  in
  let stats, w = best_of reps run in
  suite name w ~rule_evaluations:stats.Pathlog.Fixpoint.rule_evaluations
    ~firings:stats.firings ~rounds:stats.rounds ~detail

let tc_chain ~jobs ~reps =
  fixpoint_suite "tc_chain_256"
    (Paper.desc_program (Pathlog.Genealogy.Chain 256))
    ~jobs ~reps ~detail:"desc closure of chain(256), semi-naive"

let forest_256 =
  Pathlog.Genealogy.Random_forest { people = 256; max_kids = 3; seed = 11 }

let tc_forest ~jobs ~reps =
  fixpoint_suite "tc_forest_256"
    (Paper.desc_program forest_256)
    ~jobs ~reps ~detail:"desc closure of random forest(256), semi-naive"

let tc_dag_stmts =
  lazy
    (Pathlog.Graph.layered_dag ~layers:7 ~width:14 ~fanout:3 ~seed:7
    @ Pathlog.Parser.program
        {|
        X[reach ->> {Y}] <- X[to ->> {Y}].
        X[reach ->> {Y}] <- X[to ->> {Z}], Z[reach ->> {Y}].
        |})

let tc_dag ~jobs ~reps =
  fixpoint_suite "tc_dag_7x14" (Lazy.force tc_dag_stmts) ~jobs ~reps
    ~detail:"reach closure of layered dag(7x14, fanout 3), semi-naive"

(* A fixpoint that derives one isa edge per round along a scalar chain:
   every insertion invalidates (or, incrementally, updates) the hierarchy
   closure caches while the seeded isa delta is being consumed. *)
let isa_derive_stmts =
  lazy
    (let n = 400 in
     let b = Buffer.create (n * 24) in
     for i = 0 to n - 1 do
       Buffer.add_string b (Printf.sprintf "o%d[next -> o%d]. " i (i + 1))
     done;
     Buffer.add_string b (Printf.sprintf "o%d : reach. " n);
     (* m0..m63 : hub is a static membership set enumerated once per
        round via the class-bound isa access path *)
     for j = 0 to 63 do
       Buffer.add_string b (Printf.sprintf "m%d : hub. " j)
     done;
     Buffer.add_string b "X : reach <- X[next -> Y], Y : reach. ";
     Buffer.add_string b "X[sees ->> {Y}] <- X : hub, Y : reach. ";
     Pathlog.Parser.program (Buffer.contents b))

let isa_derive ~jobs ~reps =
  fixpoint_suite "isa_derive_400"
    (Lazy.force isa_derive_stmts)
    ~jobs ~reps
    ~detail:
      "chain(400) reachability derived as isa edges + hub(64) join; one \
       new isa edge per round"

(* Scaling workload for the domain-parallel fixpoint: 16 disjoint chain
   partitions, each with its own edge method and its own pair of closure
   rules, all deriving into one shared [reach] set method. Everything is
   one stratum, so every round offers ~48 independent (rule, seed) tasks
   for the worker pool to claim. *)
let par_stmts =
  lazy
    (let parts = 16 and n = 48 in
     let b = Buffer.create (parts * n * 32) in
     for r = 0 to parts - 1 do
       for i = 0 to n - 1 do
         Buffer.add_string b
           (Printf.sprintf "p%dn%d[to%d ->> {p%dn%d}]. " r i r r (i + 1))
       done;
       Buffer.add_string b
         (Printf.sprintf "X[reach ->> {Y}] <- X[to%d ->> {Y}]. " r);
       Buffer.add_string b
         (Printf.sprintf "X[reach ->> {Y}] <- X[to%d ->> {Z}], Z[reach ->> \
                          {Y}]. " r)
     done;
     Pathlog.Parser.program (Buffer.contents b))

let fixpoint_par ~jobs ~reps ~base =
  let s =
    fixpoint_suite
      (Printf.sprintf "fixpoint_par_%dj" jobs)
      (Lazy.force par_stmts) ~jobs ~reps
      ~detail:
        (Printf.sprintf
           "16-partition chain(48) closure into a shared reach method, \
            jobs=%d"
           jobs)
  in
  match base with
  | Some b when jobs > 1 ->
    { s with speedup_vs_1j = Some (b /. max 1e-9 s.wall_s) }
  | _ -> s

let company_query_texts =
  [
    Paper.pl_colors;
    Paper.pl_colors4;
    Paper.pl_manager;
    "X : manager";
    Paper.pl_boss_city;
    "X : company.president[P]";
    "X : employee[age -> A; city -> newYork]";
  ]

let company_queries ~target =
  let p = Paper.company 400 in
  let store = Program.store p in
  let qs =
    List.map
      (fun src ->
        Pathlog.Flatten.literals store (Pathlog.Parser.literals src))
      company_query_texts
  in
  let run () = List.iter (fun q -> ignore (Solve.named_solutions store q)) qs in
  let ops, w = measure_ops ~target run in
  suite "company_queries_400" w ~ops_per_s:ops
    ~detail:
      (Printf.sprintf
         "%d-query workload over company(400); ops = workload evaluations"
         (List.length qs))

(* Bound receiver, unbound argument and result: without a receiver-keyed
   index this scans the whole method bucket (every receiver). *)
let recv_set_query ~target =
  let receivers = 200 and per = 25 in
  let st = Store.create () in
  let m = Store.name st "edge" in
  for i = 0 to receivers - 1 do
    let r = Store.name st (Printf.sprintf "r%d" i) in
    for j = 0 to per - 1 do
      ignore
        (Store.add_set st ~meth:m ~recv:r
           ~args:[ Store.int st j ]
           ~res:(Store.int st ((i * per) + j)))
    done
  done;
  let r0 = Store.name st "r0" in
  let q =
    {
      Ir.atoms =
        [
          Ir.A_member
            { meth = Ir.Const m; recv = Ir.Const r0; args = [ Ir.V 0 ];
              res = Ir.V 1 };
        ];
      nvars = 2;
      named = [ ("A", 0); ("X", 1) ];
    }
  in
  let expect = per in
  let run () =
    let rows = Solve.named_solutions st q in
    if List.length rows <> expect then failwith "recv_set_query: wrong rows"
  in
  let ops, w = measure_ops ~target run in
  suite "recv_set_query_200x25" w ~ops_per_s:ops
    ~detail:
      "r0[edge@(A) ->> {X}] over 200 receivers x 25 one-ary tuples; ops = \
       query evaluations"

(* Interleave isa insertions with whole-hierarchy membership queries: with
   wholesale cache invalidation each round recomputes the root closure from
   scratch (O(edges x objects)); incremental maintenance keeps it live. *)
let isa_closure_growth ~reps =
  let n = 400 and width = 8 in
  let run () =
    let st = Store.create () in
    let root = Store.name st "root" in
    let classes =
      Array.init width (fun j -> Store.name st (Printf.sprintf "c%d" j))
    in
    Array.iter (fun c -> ignore (Store.add_isa st c root)) classes;
    let total = ref 0 in
    for i = 0 to n - 1 do
      let o = Store.name st (Printf.sprintf "o%d" i) in
      ignore (Store.add_isa st o classes.(i mod width));
      total := !total + Pathlog.Obj_id.Set.cardinal (Store.members st root)
    done;
    !total
  in
  let expected = (width * n) + (n * (n + 1) / 2) in
  let total, w = best_of reps run in
  if total <> expected then failwith "isa_closure_growth: wrong member count";
  suite
    (Printf.sprintf "isa_closure_growth_%d" n)
    w
    ~ops_per_s:(float_of_int n /. w)
    ~detail:
      "400 isa inserts into an 8-class hierarchy, members(root) after each; \
       ops = insert+query pairs"

(* Live-mutation write path: 200 ASSERT batches of 25 chain edges each,
   every batch a disjoint 26-node chain so the semi-naive maintenance
   rounds only touch that batch's delta (25 edges + 325 reach facts). *)
let assert_batch ~reps =
  let batches = 200 and per = 25 in
  let base =
    "seed[edge ->> {seed}]. X[reach ->> {Y}] <- X[edge ->> {Y}]. X[reach ->> \
     {Y}] <- X[edge ->> {Z}], Z[reach ->> {Y}]."
  in
  let batch_text j =
    let b = Buffer.create (per * 32) in
    for i = 0 to per - 1 do
      Buffer.add_string b (Printf.sprintf "c%d_%d[edge ->> {c%d_%d}]. " j i j (i + 1))
    done;
    Buffer.contents b
  in
  let texts = Array.init batches batch_text in
  (* per batch: [per] edge facts + tc over a (per+1)-node chain *)
  let expected = batches * ((per * (per + 1) / 2) + per) in
  let run () =
    let live = Pathlog.Live.attach (Pathlog.load base) in
    let total = ref 0 in
    Array.iter
      (fun text ->
        let stats = Pathlog.Live.assert_batch live text in
        total := !total + List.length stats.Pathlog.Live.added)
      texts;
    !total
  in
  let total, w = best_of reps run in
  if total <> expected then
    failwith
      (Printf.sprintf "assert_batch: %d net facts added, expected %d" total
         expected);
  suite
    (Printf.sprintf "assert_batch_%dx%d" batches per)
    w
    ~ops_per_s:(float_of_int batches /. w)
    ~detail:
      "200 ASSERT batches of 25 chain edges into a live reach closure; ops = \
       batches"

(* Retraction stress: transitive closure of a 400-edge chain with
   n4k -> n4k+2 shortcut rungs. Retracting n200 -> n201 deletes the 201
   facts that reached n201 only through it; every other candidate (n200's
   reach of the downstream chain) keeps a proof through the rung, found by
   the backward search; re-asserting restores the model, so retract+assert
   pairs repeat cleanly under the timer. *)
let retract_rederive ~target =
  let n = 400 in
  let b = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "n%d[edge ->> {n%d}]. " i (i + 1))
  done;
  for k = 0 to (n / 4) - 1 do
    Buffer.add_string b (Printf.sprintf "n%d[edge ->> {n%d}]. " (4 * k) ((4 * k) + 2))
  done;
  Buffer.add_string b "X[tc ->> {Y}] <- X[edge ->> {Y}]. ";
  Buffer.add_string b "X[tc ->> {Y}] <- X[edge ->> {Z}], Z[tc ->> {Y}].";
  let live = Pathlog.Live.attach (Pathlog.load (Buffer.contents b)) in
  let victim = "n200[edge ->> {n201}]." in
  (* Validate the workload shape once, outside the timer: the retract
     must delete derived facts (a DRed-labelled batch) and leave the rest
     of the chain reachable through the rung. *)
  let stats = Pathlog.Live.retract_batch live victim in
  if stats.Pathlog.Live.strategy <> Pathlog.Live.Dred then
    failwith "retract_rederive: expected a DRed retract";
  let holds q = Pathlog.holds (Pathlog.Live.program live) q in
  if holds "n0[tc ->> {n201}]" then
    failwith "retract_rederive: n201 still reachable after retract";
  if not (holds (Printf.sprintf "n0[tc ->> {n%d}]" n)) then
    failwith "retract_rederive: chain tail not re-derived via the rung";
  ignore (Pathlog.Live.assert_batch live victim);
  let run () =
    ignore (Pathlog.Live.retract_batch live victim);
    ignore (Pathlog.Live.assert_batch live victim)
  in
  let ops, w = measure_ops ~target run in
  suite
    (Printf.sprintf "retract_reDerive_tc_%d" n)
    w ~ops_per_s:ops
    ~detail:
      "retract+assert of a mid-chain edge in tc(chain 400 + rungs); each \
       retract deletes the pairs that reached n201 and keeps the downstream \
       closure through the rung; ops = retract+assert pairs"

(* A regular-path rule under Live: attach to the materialised program
   over a 200-edge [next] chain, then retract and re-assert the mid edge.
   Live keeps no support per rule firing, so attach only registers the
   statements; the retraction removes the 101 x 100 pairs that crossed
   the edge and the re-assertion derives them again. *)
let attach_regex_chain () =
  let n = 200 in
  let b = Buffer.create (n * 24) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "c%d[next -> c%d]. " i (i + 1))
  done;
  Buffer.add_string b "X[up ->> {Y}] <- X.next+[Y].";
  let p = Pathlog.load (Buffer.contents b) in
  ignore (Program.run p : Pathlog.Fixpoint.stats);
  let live, attach_s = wall (fun () -> Pathlog.Live.attach p) in
  let victim = Printf.sprintf "c%d[next -> c%d]." (n / 2) ((n / 2) + 1) in
  let holds q = Pathlog.holds (Pathlog.Live.program live) q in
  let far = Printf.sprintf "c0[up ->> {c%d}]" n in
  let st, retract_s =
    wall (fun () -> Pathlog.Live.retract_batch live victim)
  in
  if st.Pathlog.Live.strategy <> Pathlog.Live.Dred || holds far then
    failwith "attach_regex_chain: the retract left the far pair";
  if List.length st.removed <> 1 + ((n / 2) + 1) * (n / 2) then
    failwith "attach_regex_chain: wrong number of pairs removed";
  let (_ : Pathlog.Live.batch_stats), assert_s =
    wall (fun () -> Pathlog.Live.assert_batch live victim)
  in
  if not (holds far) then
    failwith "attach_regex_chain: far pair not re-derived";
  Printf.printf
    "attach_regex_chain_%d: attach %.4f s, retract %.4f s, assert %.4f s\n%!" n
    attach_s retract_s assert_s;
  suite
    (Printf.sprintf "attach_regex_chain_%d" n)
    attach_s
    ~detail:
      (Printf.sprintf
         "Live.attach on the materialised chain(200) under X.next+[Y]; then \
          retract %.4f s and re-assert %.4f s of the mid edge"
         retract_s assert_s)

(* The churn workload: a 200-course prerequisite chain under the two
   [requires] rules of university.plg; [c100[prereq ->> {c99}]] is
   retracted and re-asserted 40 times. The model returns to the same size
   every cycle. Live's own table (the statement multiplicities) must stay
   within 2x of its first-cycle size; the store keeps every tombstoned
   record, which the report shows as dead records. *)
let churn_retract_assert () =
  let n = 200 and cycles = 40 in
  let b = Buffer.create (n * 32) in
  for i = 1 to n - 1 do
    Buffer.add_string b (Printf.sprintf "c%d[prereq ->> {c%d}]. " i (i - 1))
  done;
  Buffer.add_string b
    "C[requires ->> {P}] <- C[prereq ->> {P}]. C[requires ->> {P}] <- \
     C..requires[prereq ->> {P}].";
  let live = Pathlog.Live.attach (Pathlog.load (Buffer.contents b)) in
  let store = Pathlog.Live.store live in
  let edb_entries () =
    List.length
      (List.filter
         (fun l -> l <> "" && not (String.contains l '<'))
         (String.split_on_char '\n' (Pathlog.Live.dump_source live)))
  in
  let records () =
    let sum bucket meths =
      List.fold_left
        (fun acc m -> acc + Pathlog.Vec.length (bucket store m))
        0 meths
    in
    Pathlog.Vec.length (Store.isa_log store)
    + sum Store.scalar_bucket (Store.scalar_meths store)
    + sum Store.set_bucket (Store.set_meths store)
  in
  let victim = "c100[prereq ->> {c99}]." in
  let model = Store.size store in
  let retract_s = Array.make cycles 0. and first_edb = ref 0 in
  let total =
    snd
      (wall (fun () ->
           for i = 0 to cycles - 1 do
             let _, w =
               wall (fun () -> Pathlog.Live.retract_batch live victim)
             in
             retract_s.(i) <- w;
             ignore (Pathlog.Live.assert_batch live victim);
             if Store.size store <> model then
               failwith "churn_retract_assert: the model changed size";
             if i = 0 then first_edb := edb_entries ()
           done))
  in
  let edb = edb_entries () and all = records () in
  Printf.printf
    "churn_retract_assert_%d: retract %.4f s at batch 1, %.4f s at batch %d; \
     Live table %d entries (first cycle %d); store %d live / %d dead \
     records\n%!"
    n retract_s.(0) retract_s.(cycles - 1) cycles edb !first_edb model
    (all - model);
  if edb > 2 * !first_edb then
    failwith "churn_retract_assert: Live's table grew past 2x its first cycle";
  suite
    (Printf.sprintf "churn_retract_assert_%d" n)
    total
    ~ops_per_s:(float_of_int cycles /. total)
    ~detail:
      (Printf.sprintf
         "40 retract+assert cycles of c100's prereq in a 200-course requires \
          closure; retract %.4f s at batch 1, %.4f s at batch 40; Live table \
          %d entries; store %d live / %d dead records; ops = cycles"
         retract_s.(0) retract_s.(cycles - 1) edb model (all - model))

let server_queries =
  [| Paper.pl_colors; "X : manager"; Paper.pl_boss_city; "e1 : employee" |]

(* An answer framed as the server frames it (see Server.render_answer):
   columns then tab-separated rows, or yes/no for a ground query. *)
let expected_payload p q =
  let a = Program.query_string p q in
  match a.columns with
  | [] -> [ (if a.rows = [] then "no" else "yes") ]
  | columns ->
    let u = Program.universe p in
    String.concat "\t" columns
    :: List.map
         (fun row ->
           String.concat "\t" (List.map (Pathlog.Universe.to_string u) row))
         a.rows

(* Every reply is checked: its sorted payload must equal the answer
   computed in-process before the run (the store is read-only from then
   on). A mismatched (cross-wired), DEGRADED, ERR or dropped reply fails
   the suite; BUSY is retried. *)
let server_suite ~name ~config ~requests ~detail =
  let p = Paper.company 100 in
  let expected =
    Array.map
      (fun q -> List.sort compare (expected_payload p q))
      server_queries
  in
  let srv =
    Pathlog.Server.create ~config ~program:p
      (Pathlog.Server.Tcp ("127.0.0.1", 0))
  in
  let addr = Pathlog.Server.address srv in
  let clients = 4 in
  let ok = Atomic.make 0 and mismatched = Atomic.make 0 in
  let nq = Array.length server_queries in
  let client_thread k =
    let c = Pathlog.Client.connect addr in
    Fun.protect
      ~finally:(fun () -> Pathlog.Client.close c)
      (fun () ->
        for i = 0 to requests - 1 do
          let qi = (k + i) mod nq in
          let rec attempt () =
            match
              Pathlog.Client.request c ("QUERY " ^ server_queries.(qi))
            with
            | Ok (Pathlog.Protocol.Ok lines) ->
              Atomic.incr
                (if List.sort compare lines = expected.(qi) then ok
                 else mismatched)
            | Ok (Pathlog.Protocol.Busy (retry_ms, _)) ->
              Thread.delay (Float.max 0.001 (float_of_int retry_ms /. 1000.));
              attempt ()
            | Ok
                ( Pathlog.Protocol.Degraded _ | Pathlog.Protocol.Err _
                | Pathlog.Protocol.Pong )
            | Error _ ->
              ()
          in
          attempt ()
        done)
  in
  let (), w =
    wall (fun () ->
        let threads =
          List.init clients (fun k -> Thread.create client_thread k)
        in
        List.iter Thread.join threads)
  in
  Pathlog.Server.request_stop srv;
  Pathlog.Server.shutdown srv;
  let total = clients * requests in
  let ok = Atomic.get ok and mismatched = Atomic.get mismatched in
  if ok <> total then
    failwith
      (Printf.sprintf
         "%s: %d correct of %d (%d mismatched, %d degraded/error/dropped)"
         name ok total mismatched (total - ok - mismatched));
  suite name w
    ~ops_per_s:(float_of_int total /. w)
    ~detail:(Printf.sprintf detail requests)

let server_throughput ~requests =
  server_suite ~name:"server_throughput_4w"
    ~config:
      { Pathlog.Server.default_config with workers = 4; queue_capacity = 32 }
    ~requests
    ~detail:
      "4 clients x %d requests against the in-process server, company(100)"

(* The lock-free read path at scale: domain-backed workers evaluate query
   requests concurrently (no writes, so every read validates lock-free). cache_capacity = 1 keeps the
   result cache nearly useless (4 distinct queries evict each other), so
   throughput measures parallel evaluation, not cache hits. *)
let server_par_read ~requests =
  server_suite ~name:"server_par_read"
    ~config:
      {
        Pathlog.Server.default_config with
        workers = 4;
        queue_capacity = 32;
        pool_domains = true;
        cache_capacity = 1;
      }
    ~requests
    ~detail:
      "4 clients x %d requests, 4 domain workers on validated reads, \
       company(100)"

(* ------------------------------------------------------------------ *)
(* Demand-driven evaluation (PR 7): a bound-receiver query answered via
   the magic-sets transform against fresh programs, timed against full
   materialisation of the same program. The transform must not fall
   back — a fallback would silently time the full run twice. *)

let demand_suite name stmts query ~reps ~detail =
  let demand () =
    let p = Program.create stmts in
    snd (Program.query_demand_string p query)
  in
  let full () =
    let p = Program.create stmts in
    let s = Program.run p in
    ignore (Program.query_string p query);
    s
  in
  let report, dw = best_of reps demand in
  let _, fw = best_of reps full in
  (match report.Pathlog.Program.d_fallback with
  | Some fb ->
    failwith
      (name ^ ": unexpected demand fallback: "
      ^ Pathlog.Demand.fallback_to_string fb)
  | None -> ());
  let stats = report.Pathlog.Program.d_stats in
  suite name dw ~rule_evaluations:stats.Pathlog.Fixpoint.rule_evaluations
    ~firings:stats.firings ~rounds:stats.rounds
    ~speedup_vs_full:(fw /. max 1e-9 dw) ~detail

(* 100 disjoint boss chains of 100 nodes each under a recursive [up]
   closure: full materialisation derives all 100 chain closures (~505k
   tuples), the demanded query needs exactly one. *)
let boss_chain_edges =
  lazy
    (let chains = 100 and n = 100 in
     let b = Buffer.create (chains * n * 24) in
     for c = 0 to chains - 1 do
       for i = 0 to n - 1 do
         Buffer.add_string b
           (Printf.sprintf "c%dn%d[boss -> c%dn%d]. " c i c (i + 1))
       done
     done;
     Pathlog.Parser.program (Buffer.contents b))

let magic_chain_stmts =
  lazy
    (Lazy.force boss_chain_edges
    @ Pathlog.Parser.program
        "X[up ->> {Y}] <- X[boss -> Y]. \
         X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].")

let magic_bound_tc ~reps =
  demand_suite "magic_bound_tc_10k"
    (Lazy.force magic_chain_stmts)
    "c0n0[up ->> {X}]" ~reps
    ~detail:
      "bound-receiver up-closure point query, 100 disjoint chains x 100 \
       nodes; counters are the demanded run's"

(* company(400) plus a quadratic same-city join and a recursive
   colleague-reachability closure; the point query demands one
   employee's reach chain and drops the join entirely. *)
let magic_company_stmts =
  lazy
    (Pathlog.Company.statements (Pathlog.Company.scaled 400)
    @ Pathlog.Parser.program
        "X[sameCity ->> {Y}] <- X[city -> C], Y[city -> C]. \
         X[colleague ->> {Y}] <- X[boss -> B], Y[boss -> B]. \
         X[reach ->> {Y}] <- X[colleague ->> {Y}]. \
         X[reach ->> {Y}] <- X[colleague ->> {Z}], Z[reach ->> {Y}].")

let magic_company_point ~reps =
  demand_suite "magic_company_point_400"
    (Lazy.force magic_company_stmts)
    "e1[reach ->> {Y}]" ~reps
    ~detail:
      "bound-receiver colleague-reach point query over company(400) with \
       a quadratic same-city join dropped by the transform"

(* Incremental demand: 2,000 first sights of one query shape on one
   program, each on a chain no earlier query touched. A first sight
   resumes its shape's fixpoint from the watermark the previous one left,
   so its cost must not grow with the number of earlier demands. The
   suite reports the last decile's cost over the first decile's, in wall
   time and in firings — the deterministic counterpart, which fails the
   run above 1.5. A decile's cost is its median sight: the store's hash
   tables double as they grow, and the one sight that pays for the
   largest doubling (tens of milliseconds near the end of the run) is
   amortised work, not a per-sight cost. One warm-up sight (it compiles
   the shape and runs the full first round) precedes the measured
   ones. The suite also reports the minor-heap words allocated per
   measured sight and the program's Demand.transform calls, which
   [--check] gates: every sight has one skeleton, so one transform. *)
let magic_repeat_first_sight () =
  let sights = 2000 and length = 6 in
  let b = Buffer.create ((sights + 1) * length * 24) in
  for c = 0 to sights do
    for i = 0 to length - 1 do
      Printf.bprintf b "c%dn%d[boss -> c%dn%d]. " c i c (i + 1)
    done
  done;
  Buffer.add_string b
    "X[up ->> {Y}] <- X[boss -> Y]. \
     X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].";
  let p = Program.create (Pathlog.Parser.program (Buffer.contents b)) in
  let sight c =
    let q = Printf.sprintf "c%dn0[up ->> {Y}]" c in
    let (a, (r : Program.demand_report)), w =
      wall (fun () -> Program.query_demand_string p q)
    in
    if r.d_fallback <> None || List.length a.Program.rows <> length then
      failwith ("magic_repeat_first_sight: wrong demand answer for " ^ q);
    (r.d_stats, w)
  in
  ignore (sight 0);
  let words0 = Gc.minor_words () in
  let runs = Array.init sights (fun i -> sight (i + 1)) in
  let words = (Gc.minor_words () -. words0) /. float_of_int sights in
  let transforms = Program.demand_transforms p in
  let decile_ratio f =
    let median lo =
      let d = Array.init (sights / 10) (fun i -> f runs.(lo + i)) in
      Array.sort compare d;
      d.(Array.length d / 2)
    in
    median (sights - (sights / 10)) /. max 1e-9 (median 0)
  in
  let total f = Array.fold_left (fun acc r -> acc + f (fst r)) 0 runs in
  let wall_s = Array.fold_left (fun acc (_, w) -> acc +. w) 0. runs in
  let wall_ratio = decile_ratio snd in
  let firing_ratio =
    decile_ratio (fun (s, _) -> float_of_int s.Pathlog.Fixpoint.firings)
  in
  Printf.printf
    "magic_repeat_first_sight: last/first decile %.2fx wall, %.2fx firings; \
     %.0f minor words per sight, %d transform(s)\n%!"
    wall_ratio firing_ratio words transforms;
  if firing_ratio > 1.5 then
    failwith
      (Printf.sprintf
         "magic_repeat_first_sight: first-sight firings grew %.2fx over the \
          run (bound 1.5x)"
         firing_ratio);
  suite "magic_repeat_first_sight" wall_s
    ~ops_per_s:(float_of_int sights /. max 1e-9 wall_s)
    ~rule_evaluations:(total (fun s -> s.Pathlog.Fixpoint.rule_evaluations))
    ~firings:(total (fun s -> s.Pathlog.Fixpoint.firings))
    ~rounds:(total (fun s -> s.Pathlog.Fixpoint.rounds))
    ~transforms
    ~detail:
      (Printf.sprintf
         "%d first sights of one shape (fresh %d-edge boss chain each) on \
          one program; last/first decile %.2fx wall, %.2fx firings; %.0f \
          minor words per sight; %d Demand.transform call(s) in all; \
          counters summed over the sights"
         sights length wall_ratio firing_ratio words transforms)

(* The result cache under demand: an in-process --demand server over a
   goal_directed-shaped program (boss chains of 6 under a recursive [up]
   closure, a third of them never queried), one client, 3,200 bound point
   queries of which every eighth is the first sight of a fresh chain and
   the rest repeat, uniformly, a query already sent. The model version
   keys the cache, so a first sight leaves the cached answers valid and
   every repeat hits: [cache_hits] is deterministic and gated. Every
   reply is checked against the fully materialised program. *)
let demand_repeat_cache () =
  let sights = 400 and length = 6 and every = 8 in
  let chains = 3 * sights / 2 in
  let b = Buffer.create (chains * length * 24) in
  for c = 0 to chains - 1 do
    for i = 0 to length - 1 do
      Printf.bprintf b "c%dn%d[boss -> c%dn%d].\n" c i c (i + 1)
    done
  done;
  Buffer.add_string b
    "X[up ->> {Y}] <- X[boss -> Y].\n\
     X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].\n";
  let text = Buffer.contents b in
  let full = Pathlog.load text in
  let query c = Printf.sprintf "c%dn0[up ->> {Y}]" c in
  let expected =
    Array.init sights (fun c ->
        List.sort compare (expected_payload full (query c)))
  in
  let rng = Random.State.make [| 30 |] in
  let requests =
    Array.init (sights * every) (fun i ->
        if i mod every = 0 then i / every
        else Random.State.int rng ((i / every) + 1))
  in
  let srv =
    Pathlog.Server.create
      ~config:{ Pathlog.Server.default_config with demand = true; workers = 1 }
      ~program:(Pathlog.parse text)
      (Pathlog.Server.Tcp ("127.0.0.1", 0))
  in
  let c = Pathlog.Client.connect (Pathlog.Server.address srv) in
  let wrong = ref 0 in
  let (), w =
    wall (fun () ->
        Array.iter
          (fun k ->
            match Pathlog.Client.query c (query k) with
            | Ok lines when List.sort compare lines = expected.(k) -> ()
            | Ok _ | Error _ -> incr wrong)
          requests)
  in
  Pathlog.Client.close c;
  let hits = (Pathlog.Server.cache_stats srv).Pathlog.Qcache.hits in
  Pathlog.Server.shutdown srv;
  if !wrong > 0 then
    failwith
      (Printf.sprintf "demand_repeat_cache: %d of %d replies wrong" !wrong
         (Array.length requests));
  let n = Array.length requests in
  suite "demand_repeat_cache" w
    ~ops_per_s:(float_of_int n /. max 1e-9 w)
    ~cache_hits:hits
    ~detail:
      (Printf.sprintf
         "%d QUERYs on one connection to an in-process --demand server, \
          %d chains of %d; every %dth the first sight of a fresh chain, \
          the rest repeats; cache_hits %d of %d repeats"
         n chains length every hits (n - sights))

(* ------------------------------------------------------------------ *)
(* Regular path expressions (PR 9): the automaton-product join against
   the recursive closure it replaces, over the same 100-chains x
   100-nodes boss store as the magic suites (10k objects). The regex
   program holds only the edge facts — the product join walks outward
   from the query's bound endpoint — while the recursive program must
   materialise the whole up-closure (~505k tuples) before the point
   query can read it. Both sides time the full pipeline (parse-free
   statement load, fixpoint, query); answers are checked equal.

   [rule_evaluations] for these suites is the number of (object, state)
   pairs the product BFS popped for the query — the join's deterministic
   work counter, so `--check` catches product-join regressions the same
   way it catches fixpoint ones. *)

let regex_suite name ~edges ~regex_query ~tc_stmts ~tc_query ~reps ~detail =
  let pairs = ref 0 in
  let named p rows = List.map (Program.row_to_string p) rows in
  let regex () =
    let p = Program.create edges in
    ignore (Program.run p);
    let s0 = Atomic.get Solve.product_states_expanded in
    let rows = (Program.query_string p regex_query).Program.rows in
    pairs := Atomic.get Solve.product_states_expanded - s0;
    named p rows
  in
  let tc () =
    let p = Program.create tc_stmts in
    ignore (Program.run p);
    named p (Program.query_string p tc_query).Program.rows
  in
  let rrows, rw = best_of reps regex in
  let trows, tw = best_of reps tc in
  let sorted = List.sort compare in
  if sorted rrows <> sorted trows then
    failwith
      (Printf.sprintf "%s: regex answered %d rows, recursive closure %d"
         name (List.length rrows) (List.length trows));
  suite name rw ~rule_evaluations:!pairs
    ~speedup_vs_full:(tw /. max 1e-9 rw)
    ~detail:
      (Printf.sprintf
         "%s; rule_evaluations counts product (object, state) pairs popped; \
          recursive-closure side %.4f s"
         detail tw)

let regex_bound_tc ~reps =
  regex_suite "regex_bound_tc_10k"
    ~edges:(Lazy.force boss_chain_edges)
    ~regex_query:"c0n0.boss+[Y]"
    ~tc_stmts:(Lazy.force magic_chain_stmts)
    ~tc_query:"c0n0[up ->> {Y}]" ~reps
    ~detail:
      "bound-receiver boss+ walked by the automaton product vs the \
       recursive up-closure, 100 disjoint chains x 100 nodes"

let regex_unbound_tc ~reps =
  regex_suite "regex_unbound_tc_10k"
    ~edges:(Lazy.force boss_chain_edges)
    ~regex_query:"X.boss+[Y]"
    ~tc_stmts:(Lazy.force magic_chain_stmts)
    ~tc_query:"X[up ->> {Y}]" ~reps
    ~detail:
      "both endpoints free: the product join enumerates the universe \
       (~505k pairs), same asymptotics as materialising the closure"

(* A second edge relation inside each chain (i -> i+2 mentor skips) so
   the alternation's language stays within the chain. *)
let mentor_chain_edges =
  lazy
    (let chains = 100 and n = 100 in
     let b = Buffer.create (chains * n * 24) in
     for c = 0 to chains - 1 do
       for i = 0 to n - 2 do
         Buffer.add_string b
           (Printf.sprintf "c%dn%d[mentor -> c%dn%d]. " c i c (i + 2))
       done
     done;
     Pathlog.Parser.program (Buffer.contents b))

let regex_alt_stmts =
  lazy (Lazy.force boss_chain_edges @ Lazy.force mentor_chain_edges)

let regex_alt ~reps =
  regex_suite "regex_alt_bound_10k"
    ~edges:(Lazy.force regex_alt_stmts)
    ~regex_query:"c0n0.(boss|mentor)+[Y]"
    ~tc_stmts:
      (Lazy.force regex_alt_stmts
      @ Pathlog.Parser.program
          "X[e ->> {Y}] <- X[boss -> Y]. \
           X[e ->> {Y}] <- X[mentor -> Y]. \
           X[reach ->> {Y}] <- X[e ->> {Y}]. \
           X[reach ->> {Y}] <- X[e ->> {Z}], Z[reach ->> {Y}].")
    ~tc_query:"c0n0[reach ->> {Y}]" ~reps
    ~detail:
      "bound-receiver (boss|mentor)+ alternation vs a recursive closure \
       over the union edge relation, boss chains + mentor skip edges"

(* ------------------------------------------------------------------ *)
(* The deterministic generator workloads as concrete program text:
   `bench emit` lists them, `bench emit NAME` prints one. CI feeds each
   through `pathlog check` so a generator can never silently start
   emitting programs the static analyzer would reject. *)

let generator_workloads () =
  [
    ("tc_chain_256", Paper.desc_program (Pathlog.Genealogy.Chain 256));
    ("tc_forest_256", Paper.desc_program forest_256);
    ("tc_dag_7x14", Lazy.force tc_dag_stmts);
    ("isa_derive_400", Lazy.force isa_derive_stmts);
    ("fixpoint_par", Lazy.force par_stmts);
    ("company_100", Pathlog.Company.statements (Pathlog.Company.scaled 100));
    ("magic_bound_tc", Lazy.force magic_chain_stmts);
    ("magic_company_400", Lazy.force magic_company_stmts);
    ( "regex_bound_tc",
      Lazy.force regex_alt_stmts
      @ Pathlog.Parser.program "?- c0n0.(boss|mentor)+[Y]." );
  ]

let emit_programs args =
  let ws = generator_workloads () in
  match args with
  | [] -> List.iter (fun (n, _) -> print_endline n) ws
  | name :: _ -> (
    match List.assoc_opt name ws with
    | Some stmts -> Format.printf "%a@." Pathlog.Pretty.pp_program stmts
    | None ->
      Printf.eprintf "bench emit: unknown workload %s\n" name;
      exit 2)

(* ------------------------------------------------------------------ *)
(* Durable recovery cost: build a logged history on disk once — a live
   reach closure fed ASSERT batches of disjoint chain edges through the
   Durable commit hook, with a snapshot cut halfway so recovery stitches
   snapshot + WAL suffix — then time exactly what `serve --data` does at
   startup: open the data dir (CRC scan of the log), gate and rebuild
   the snapshot source, gate each record of the suffix and replay it
   through Live. Recovery is
   read-only on a clean directory, so the timed run repeats under
   best-of. ops = WAL records replayed. *)
let recovery_time ~reps =
  let batches = 120 and per = 6 in
  let base =
    "X[reach ->> {Y}] <- X[edge ->> {Y}]. X[reach ->> {Y}] <- X[edge ->> \
     {Z}], Z[reach ->> {Y}]."
  in
  let batch_text j =
    let b = Buffer.create (per * 32) in
    for i = 0 to per - 1 do
      Buffer.add_string b
        (Printf.sprintf "r%d_%d[edge ->> {r%d_%d}]. " j i j (i + 1))
    done;
    Buffer.contents b
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "plperf-recovery-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* history on disk, once, outside the timer *)
      let builder = Pathlog.Live.attach (Pathlog.load base) in
      let d, _ = Pathlog.Durable.open_dir dir in
      Pathlog.Live.set_commit_hook builder
        (Some
           (fun ~retract ~epoch ~text ->
             ignore (Pathlog.Durable.append d ~retract ~epoch text : int)));
      for j = 0 to batches - 1 do
        ignore
          (Pathlog.Live.assert_batch builder (batch_text j)
            : Pathlog.Live.batch_stats);
        if j = (batches / 2) - 1 then
          ignore
            (Pathlog.Durable.snapshot_now d
               ~epoch:(Pathlog.Store.epoch (Pathlog.Live.store builder))
               ~source:(Pathlog.Live.dump_source builder)
              : bool)
      done;
      Pathlog.Durable.close d;
      let run () =
        let d, r = Pathlog.Durable.open_dir dir in
        Pathlog.Durable.close d;
        let src =
          match r.Pathlog.Durable.r_snapshot with
          | Some (_, _, src) -> src
          | None -> failwith "recovery_time: snapshot not recovered"
        in
        let gate what text =
          match Pathlog.Check.gate text with
          | Ok _ -> ()
          | Error msg ->
            failwith
              (Printf.sprintf "recovery_time: %s refused by the gate:\n%s"
                 what msg)
        in
        gate "snapshot" src;
        let live = Pathlog.Live.attach (Pathlog.load src) in
        List.iter
          (fun (rec_ : Pathlog.Durable.record) ->
            gate
              (Printf.sprintf "WAL record %d" rec_.Pathlog.Durable.seq)
              rec_.Pathlog.Durable.text;
            let apply =
              if rec_.Pathlog.Durable.retract then Pathlog.Live.retract_batch
              else Pathlog.Live.assert_batch
            in
            ignore (apply live rec_.Pathlog.Durable.text : Pathlog.Live.batch_stats))
          r.Pathlog.Durable.r_tail;
        (List.length r.Pathlog.Durable.r_tail, live)
      in
      let (replayed, recovered), w = best_of reps run in
      if replayed <> batches / 2 then
        failwith
          (Printf.sprintf "recovery_time: replayed %d WAL records, expected %d"
             replayed (batches / 2));
      if
        Pathlog.Fact.model (Pathlog.Live.store builder)
        <> Pathlog.Fact.model (Pathlog.Live.store recovered)
      then failwith "recovery_time: recovered model differs from builder";
      suite
        (Printf.sprintf "wal_recovery_%dx%d" batches per)
        w
        ~ops_per_s:(float_of_int replayed /. w)
        ~detail:
          "open data dir + gate and rebuild mid-history snapshot + gate and \
           replay 60-record WAL suffix through the live closure; ops = \
           records replayed")

(* ------------------------------------------------------------------ *)
(* The static-analysis load gate that `serve` runs before it listens
   (and again on a recovered snapshot): [Check.gate] on the
   goal_directed program shape — six-edge [boss] chains under a
   recursive [up] closure — at two sizes four times apart, 600 chains
   (the size the wire benchmark serves) and 2,400. A pass comparing all
   pairs of statements shows as a ~16x wall ratio between the two; ops =
   statements checked. *)
let gate_chains ~reps chains =
  let b = Buffer.create (chains * 6 * 24) in
  for c = 0 to chains - 1 do
    for i = 0 to 5 do
      Printf.bprintf b "c%dn%d[boss -> c%dn%d].\n" c i c (i + 1)
    done
  done;
  Buffer.add_string b
    "X[up ->> {Y}] <- X[boss -> Y].\n\
     X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].\n";
  let text = Buffer.contents b in
  let stmts = (chains * 6) + 2 in
  let name = Printf.sprintf "gate_chains_%d" (chains * 6) in
  match best_of reps (fun () -> Pathlog.Check.gate text) with
  | Ok (t : Pathlog.Check.t), w when t.n_rules = stmts ->
    suite name w
      ~ops_per_s:(float_of_int stmts /. w)
      ~detail:
        (Printf.sprintf
           "Check.gate on %d boss chains x 6 + the up closure (%d \
            statements); ops = statements"
           chains stmts)
  | Ok _, _ -> failwith (name ^ ": gate saw the wrong statement count")
  | Error msg, _ -> failwith (name ^ ": program refused by the gate:\n" ^ msg)

(* ------------------------------------------------------------------ *)
(* The load path `serve` takes, on a program of the read_paths shape: a
   company object base of ~2,600 fact statements (managers with a boss
   tree, employees with mentors and vehicles, companies) under six path
   rules. Stages: parse, the gate (compile, analyses, program; the build
   share is timed apart on a second parse), and the run. The run's
   rule_evaluations are gated: facts are loaded as data, so running them
   as body-less rules again would add one evaluation per fact. *)
let load_program () =
  let st = Random.State.make [| 31 |] in
  let b = Buffer.create (160 * 1024) in
  let p fmt = Printf.bprintf b fmt in
  let managers = 40 and employees = 580 and companies = 12 in
  let colors = [| "red"; "blue"; "green"; "black"; "white" |] in
  p "automobile :: vehicle.\nmanager :: employee.\n";
  for i = 1 to managers do
    p "m%d : manager[age -> %d; city -> city%d].\n" i
      (40 + Random.State.int st 25)
      (1 + Random.State.int st 15);
    if i > 1 then p "m%d[boss -> m%d].\n" i (i / 2)
  done;
  let vehicle = ref 0 in
  for k = 1 to employees do
    p "e%d : employee[age -> %d; city -> city%d; boss -> m%d].\n" k
      (20 + Random.State.int st 45)
      (1 + Random.State.int st 15)
      (1 + Random.State.int st managers);
    if k > 1 then p "e%d[mentor -> e%d].\n" k (max 1 (k - 1 - Random.State.int st 30));
    let vs = List.init (Random.State.int st 4) (fun _ -> incr vehicle; !vehicle) in
    List.iter
      (fun v ->
        if Random.State.bool st then
          p "v%d : automobile[cylinders -> %d; color -> %s; producedBy -> comp%d].\n" v
            (4 + (2 * Random.State.int st 3))
            colors.(Random.State.int st (Array.length colors))
            (1 + Random.State.int st companies)
        else
          p "v%d : vehicle[color -> %s; producedBy -> comp%d].\n" v
            colors.(Random.State.int st (Array.length colors))
            (1 + Random.State.int st companies))
      vs;
    if vs <> [] then
      p "e%d[vehicles ->> {%s}].\n" k
        (String.concat ", " (List.map (Printf.sprintf "v%d") vs))
  done;
  for c = 1 to companies do
    p "comp%d : company[city -> city%d; president -> m%d].\n" c
      (1 + Random.State.int st 15)
      (1 + Random.State.int st managers)
  done;
  p "X[superior ->> {Y}] <- X[boss -> Y].\n";
  p "X[superior ->> {Y}] <- X[boss -> Z], Z[superior ->> {Y}].\n";
  p "X[colleague ->> {Y}] <- X[boss -> B], Y[boss -> B].\n";
  p "X[carColor ->> {C}] <- X..vehicles : automobile.color[C].\n";
  p "X : driver <- X..vehicles : automobile.\n";
  p "X[bossCity -> C] <- X.boss.city[C].\n";
  Buffer.contents b

let load_read_paths ~reps =
  let text = load_program () in
  let ms s = 1000. *. s in
  let stage f = best_of reps f in
  let spanned, parse_s = stage (fun () -> Pathlog.Parser.program_spanned text) in
  let (_ : Program.t), build_s =
    stage (fun () ->
        Program.of_compiled
          (Program.compile (List.map (fun (s, sp) -> (s, Some sp)) spanned)))
  in
  let t, gate_s = stage (fun () -> Pathlog.Check.analyze_spanned spanned) in
  if not (Pathlog.Check.ok t) then failwith "load_read_paths: program refused by the gate";
  let run () =
    match (Pathlog.Check.analyze_spanned spanned).program with
    | Some p -> Program.run p
    | None -> failwith "load_read_paths: no program"
  in
  (* the run alone: the gate's share of [run ()] is known *)
  let stats, run_gate_s = stage run in
  let run_s = max 0. (run_gate_s -. gate_s) in
  let facts =
    match t.program with Some p -> List.length (Program.facts p) | None -> 0
  in
  suite
    (Printf.sprintf "load_read_paths_%d" t.n_rules)
    (parse_s +. gate_s +. run_s)
    ~rule_evaluations:stats.Pathlog.Fixpoint.rule_evaluations
    ~firings:stats.firings ~rounds:stats.rounds
    ~detail:
      (Printf.sprintf
         "serve's load path on a read_paths-shaped program (%d statements, \
          %d facts, %d bytes): parse %.2f ms, gate %.2f ms (of which build \
          %.2f ms), run %.2f ms; wall = parse + gate + run"
         t.n_rules facts (String.length text) (ms parse_s) (ms gate_s)
         (ms build_s) (ms run_s))

(* ------------------------------------------------------------------ *)
(* Estimator accuracy: the cardinality abstract interpreter's predicted
   fixpoint size (summed relation bounds evaluated at the final universe
   size) vs the measured insertion count, over the deterministic
   fixpoint workloads. A factor >= 1 is the soundness invariant (also
   property-tested); closer to 1 is a tighter admission estimate. Wall time covers analysis + evaluation of all workloads. *)
let estimator_accuracy () =
  let workloads =
    [
      ("tc_chain_256", Paper.desc_program (Pathlog.Genealogy.Chain 256));
      ("tc_dag_7x14", Lazy.force tc_dag_stmts);
      ( "company_100",
        Pathlog.Company.statements (Pathlog.Company.scaled 100) );
      ("fixpoint_par", Lazy.force par_stmts);
    ]
  in
  let sat_add a b = if a > max_int - b then max_int else a + b in
  let measure (name, stmts) =
    let p = Program.create stmts in
    let t =
      Pathlog.Absint.analyze ~facts:(Program.facts p) (Program.store p)
        (Program.rules p)
    in
    let stats = Program.run p in
    let n = max 1 (Pathlog.Universe.cardinality (Program.universe p)) in
    let predicted =
      List.fold_left
        (fun acc (_, c) -> sat_add acc (Pathlog.Absint.eval_card ~n c))
        0
        (Pathlog.Absint.rel_cards t)
    in
    let actual = max 1 stats.Pathlog.Fixpoint.insertions in
    (name, float_of_int predicted /. float_of_int actual)
  in
  let factors, w = wall (fun () -> List.map measure workloads) in
  suite "estimator_accuracy" w
    ~detail:
      ("predicted/actual fixpoint size (>= 1 is sound): "
      ^ String.concat ", "
          (List.map (fun (n, f) -> Printf.sprintf "%s %.1fx" n f) factors))

(* ------------------------------------------------------------------ *)
(* The paper's experiments (main.ml's tables E1-E12) timed on the same
   definitions (paper.ml) and at the sizes EXPERIMENTS.md quotes. *)

(* [setup] builds the inputs outside the timer and returns the operation
   measure_ops repeats. *)
let timed name ~target ~detail setup =
  ( name,
    fun () ->
      let op = setup () in
      let ops, w = measure_ops ~target op in
      suite name w ~ops_per_s:ops ~detail )

(* E1, E3 and E10 over company(200). The compiled manager query is both
   E3's PathLog side and E10's reference strategy; (2.1) at size 200 is
   E1's PathLog side and a point of the scaling series. *)
let paper_queries ~target =
  let company = lazy (Paper.company 200) in
  let store () = Program.store (Lazy.force company) in
  let query src = (store (), Paper.flat_query (Lazy.force company) src) in
  let at200 name what setup =
    timed name ~target ~detail:(what ^ ", company(200); ops = evaluations")
      setup
  in
  let q21 n =
    timed
      (Printf.sprintf "e1_pathlog_q21_c%d" n)
      ~target
      ~detail:
        (Printf.sprintf
           "PathLog (2.1), the question XSQL (1.4) asks, compiled indexed \
            plan, company(%d); ops = evaluations"
           n)
      (fun () ->
        let p = Paper.company n in
        let store = Program.store p in
        let q = Paper.flat_query p Paper.pl_colors4 in
        fun () -> Solve.named_solutions store q)
  in
  [
    at200 "e1_o2sql_q11_c200" "O2SQL (1.1) by nested loops" (fun () ->
        let st = store () in
        fun () -> Pathlog.O2sql.eval st Paper.q11_o2sql);
    at200 "e1_xsql_q14_c200" "XSQL (1.4), its conjunction evaluated naively"
      (fun () ->
        let st = store () in
        fun () -> Pathlog.Xsql.eval st Paper.q14_xsql);
  ]
  @ List.map q21 [ 50; 100; 200; 400; 800 ]
  @ [
      at200 "e3_o2sql_manager_c200" "O2SQL manager query (section 2)"
        (fun () ->
          let st = store () in
          fun () -> Pathlog.O2sql.eval st Paper.o2_manager);
      at200 "e3_pathlog_manager_c200"
        "PathLog manager query, compiled indexed plan" (fun () ->
          let st, q = query Paper.pl_manager in
          fun () -> Solve.named_solutions st q);
      at200 "e10_source_order_manager_c200"
        "manager query, source-order identity plan" (fun () ->
          let st, q = query Paper.pl_manager in
          fun () -> Paper.source_order_solutions st q);
      at200 "e10_conjunctive_manager_c200"
        "manager query, naive conjunctive scans" (fun () ->
          let st, q = query Paper.pl_manager in
          fun () -> Pathlog.Conjunctive.named_solutions st q);
      at200 "e10_boss_city_q23_c200"
        "PathLog (2.3), a nested path in a filter, compiled indexed plan"
        (fun () ->
          let st, q = query Paper.pl_boss_city in
          fun () -> Solve.named_solutions st q);
    ]

(* E5, E7 and E12: each program built and run to its fixpoint; E7 and
   E12 in both modes. *)
let paper_fixpoints ~jobs ~reps =
  let fp ?mode name detail stmts =
    (name, fun () -> fixpoint_suite ?mode name (stmts ()) ~jobs ~reps ~detail)
  in
  let both name detail stmts =
    List.map
      (fun (m, mode) -> fp ~mode (name ^ "_" ^ m) (detail ^ ", " ^ m) stmts)
      [ ("naive", Pathlog.Fixpoint.Naive); ("seminaive", Seminaive) ]
  in
  let ident label =
    String.of_seq
      (Seq.filter (fun c -> c <> '(' && c <> ')') (String.to_seq label))
  in
  List.map
    (fun n ->
      fp
        (Printf.sprintf "e5_addresses_c%d" n)
        (Printf.sprintf
           "rule (2.4): a virtual address per employee of company(%d), \
            seminaive"
           n)
        (fun () -> Paper.address_program n))
    [ 50; 200 ]
  @ List.concat_map
      (fun (label, shape) ->
        both ("e7_" ^ ident label)
          ("program (6.4): desc closure of " ^ label)
          (fun () -> Paper.desc_program shape))
      Paper.tc_shapes
  @ List.concat_map
      (fun parts ->
        both
          (Printf.sprintf "e12_parts%d" parts)
          (Printf.sprintf "bill-of-materials contains closure, %d parts" parts)
          (fun () -> Paper.parts_program (Paper.parts_config parts)))
      [ 60; 120 ]

let paper_demand ~reps =
  demand_suite "e11_demand_chain100"
    (Paper.desc_program (Pathlog.Genealogy.Chain 100))
    Paper.desc_point_query ~reps
    ~detail:
      "point query p95[desc ->> {X}] on chain(100), fresh program each run; \
       counters are the demanded run's"

(* The store primitives under the engine, company(400) resident. One op
   is 1,000 calls, which keeps the timed window well above the clock's
   resolution. *)
let substrate ~target =
  let company = lazy (Program.store (Paper.company 400)) in
  let op name what call =
    timed name ~target
      ~detail:(what ^ ", company(400); ops = loops of 1,000 calls")
      (fun () ->
        let st = Lazy.force company in
        let call = call st (Store.name st) in
        fun () ->
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (call ()))
          done)
  in
  [
    op "store_scalar_lookup_1k" "scalar_lookup e1.color" (fun st id ->
        let color = id "color" and e1 = id "e1" in
        fun () -> Store.scalar_lookup st ~meth:color ~recv:e1 ~args:[]);
    op "store_set_lookup_1k" "set_lookup e1..vehicles" (fun st id ->
        let vehicles = id "vehicles" and e1 = id "e1" in
        fun () -> Store.set_lookup st ~meth:vehicles ~recv:e1 ~args:[]);
    op "store_scalar_inverse_1k" "scalar_inverse color -> red" (fun st id ->
        let color = id "color" and red = id "red" in
        fun () -> Store.scalar_inverse st ~meth:color ~res:red);
    op "store_members_1k" "members employee (the cached closure)"
      (fun st id ->
        let employee = id "employee" in
        fun () -> Store.members st employee);
    op "store_is_member_1k" "is_member e1 employee" (fun st id ->
        let e1 = id "e1" and employee = id "employee" in
        fun () -> Store.is_member st e1 employee);
    timed "store_fresh_1k_inserts" ~target
      ~detail:"a fresh store and 1,000 scalar inserts; ops = fresh stores"
      (fun () () ->
        let st = Store.create () in
        let m = Store.name st "m" in
        for i = 0 to 999 do
          let o = Store.int st i in
          ignore (Store.add_scalar st ~meth:m ~recv:o ~args:[] ~res:o)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Minimal JSON (writer + reader for our own reports)                  *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        emit b (Str k);
        Buffer.add_string b ": ";
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  emit b j;
  Buffer.contents b

exception Parse of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "bad escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          (* our own writer only escapes control chars; decode as '?' *)
          pos := !pos + 4;
          Buffer.add_char b '?'
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          let k = (skip_ws (); string_lit ()) in
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end"
  in
  let v = value () in
  skip_ws ();
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let as_num = function Some (Num f) -> Some f | _ -> None
let as_str = function Some (Str s) -> Some s | _ -> None

(* Per-suite (wall_s, rule_evaluations, cache_hits, transforms) from a
   previous report. *)
let load_report file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let j = parse_json text in
  match member "suites" j with
  | Some (Arr suites) ->
    List.filter_map
      (fun s ->
        match as_str (member "name" s) with
        | Some name ->
          Some
            ( name,
              ( as_num (member "wall_s" s),
                as_num (member "rule_evaluations" s),
                as_num (member "cache_hits" s),
                as_num (member "transforms" s) ) )
        | None -> None)
      suites
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let suite_json ~baseline (s : suite) =
  let base = List.assoc_opt s.name baseline in
  let opt name v f = match v with Some x -> [ (name, f x) ] | None -> [] in
  Obj
    ([ ("name", Str s.name); ("wall_s", Num s.wall_s) ]
    @ opt "ops_per_s" s.ops_per_s (fun x -> Num x)
    @ opt "rule_evaluations" s.rule_evaluations (fun x -> Num (float_of_int x))
    @ opt "cache_hits" s.cache_hits (fun x -> Num (float_of_int x))
    @ opt "transforms" s.transforms (fun x -> Num (float_of_int x))
    @ opt "firings" s.firings (fun x -> Num (float_of_int x))
    @ opt "rounds" s.rounds (fun x -> Num (float_of_int x))
    @ opt "speedup_vs_1j" s.speedup_vs_1j (fun x -> Num x)
    @ opt "speedup_vs_full" s.speedup_vs_full (fun x -> Num x)
    @ (match base with
      | Some (Some bw, _, _, _) ->
        [
          ("baseline_wall_s", Num bw);
          ("speedup", Num (bw /. max 1e-9 s.wall_s));
        ]
      | _ -> [])
    @ [ ("detail", Str s.detail) ])

(* One line per failure: a suite whose rule_evaluations or transforms
   grew, or whose cache_hits fell, by more than 20% against the
   committed report, or — on a full run ([partial] false) — a committed
   suite with any of these counters that this run did not produce, so a
   renamed or dropped suite cannot leave the gate unnoticed. *)
let check ~committed ~partial suites =
  (* [up]: the counter regresses by growing (rule_evaluations,
     transforms) rather than by falling (cache_hits) *)
  let gate (s : suite) key ~up now baseline =
    let baseline = int_of_float baseline in
    let limit =
      if up then baseline + (baseline / 5) else baseline - (baseline / 5)
    in
    if (up && now > limit) || ((not up) && now < limit) then begin
      Printf.printf "CHECK FAIL %-29s %s %d %s %d (baseline %d %s20%%)\n"
        s.name key now
        (if up then ">" else "<")
        limit baseline
        (if up then "+" else "-");
      Some
        (Printf.sprintf "%s: %s %d vs baseline %d (%+.0f%%)" s.name key now
           baseline
           (100. *. ((float_of_int now /. float_of_int baseline) -. 1.)))
    end
    else begin
      Printf.printf "check ok   %-29s %s %d (baseline %d)\n" s.name key now
        baseline;
      None
    end
  in
  let regressed =
    List.concat_map
      (fun (s : suite) ->
        match List.assoc_opt s.name committed with
        | None -> []
        | Some (_, evals, hits, transforms) ->
          List.filter_map Fun.id
            [
              (match (s.rule_evaluations, evals) with
              | Some now, Some b -> gate s "rule_evaluations" ~up:true now b
              | _ -> None);
              (match (s.transforms, transforms) with
              | Some now, Some b -> gate s "transforms" ~up:true now b
              | _ -> None);
              (match (s.cache_hits, hits) with
              | Some now, Some b -> gate s "cache_hits" ~up:false now b
              | _ -> None);
            ])
      suites
  in
  let missing =
    if partial then []
    else
      List.filter_map
        (fun (name, (_, evals, hits, transforms)) ->
          let ran = List.exists (fun (s : suite) -> s.name = name) suites in
          if (evals = None && hits = None && transforms = None) || ran then
            None
          else begin
            Printf.printf "CHECK FAIL %-29s in the baseline, not in this run\n"
              name;
            Some (name ^ ": in the baseline but not produced by this run")
          end)
        committed
  in
  regressed @ missing

let main args =
  let quick = List.mem "--quick" args in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let only = opt "--only" args in
  if only <> None && opt "--out" args = None then begin
    prerr_endline
      "bench perf: --only needs --out (a partial run must not overwrite \
       BENCH.json)";
    exit 2
  end;
  let out = Option.value ~default:"BENCH.json" (opt "--out" args) in
  let baseline_file = opt "--baseline" args in
  let check_file = opt "--check" args in
  let jobs =
    match opt "--jobs" args with
    | None -> 1
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | Some _ | None ->
        prerr_endline "bench perf: --jobs must be an integer >= 1";
        exit 2)
  in
  let reps = if quick then 1 else 3 in
  let target = if quick then 0.2 else 1.0 in
  let requests = if quick then 100 else 400 in
  Printf.printf "perf harness (%s mode)\n%!" (if quick then "quick" else "full");
  let par_base = ref None in
  let all =
    [
      ("tc_chain_256", fun () -> tc_chain ~jobs ~reps);
      ("tc_dag_7x14", fun () -> tc_dag ~jobs ~reps);
      ("tc_forest_256", fun () -> tc_forest ~jobs ~reps);
      ("isa_derive_400", fun () -> isa_derive ~jobs ~reps);
      ("company_queries_400", fun () -> company_queries ~target);
      ("recv_set_query", fun () -> recv_set_query ~target);
      ("isa_closure_growth", fun () -> isa_closure_growth ~reps);
      ("assert_batch", fun () -> assert_batch ~reps);
      ("retract_reDerive_tc_400", fun () -> retract_rederive ~target);
      ("attach_regex_chain_200", fun () -> attach_regex_chain ());
      ("churn_retract_assert_200", fun () -> churn_retract_assert ());
      ("server_throughput_4w", fun () -> server_throughput ~requests);
      ( "fixpoint_par_1j",
        fun () ->
          let s = fixpoint_par ~jobs:1 ~reps ~base:None in
          par_base := Some s.wall_s;
          s );
      ("fixpoint_par_2j", fun () -> fixpoint_par ~jobs:2 ~reps ~base:!par_base);
      ("fixpoint_par_4j", fun () -> fixpoint_par ~jobs:4 ~reps ~base:!par_base);
      ("server_par_read", fun () -> server_par_read ~requests);
      ("magic_bound_tc_10k", fun () -> magic_bound_tc ~reps);
      ("magic_company_point_400", fun () -> magic_company_point ~reps);
      ("magic_repeat_first_sight", fun () -> magic_repeat_first_sight ());
      ("demand_repeat_cache", fun () -> demand_repeat_cache ());
      ("regex_bound_tc_10k", fun () -> regex_bound_tc ~reps);
      ("regex_unbound_tc_10k", fun () -> regex_unbound_tc ~reps);
      ("regex_alt_bound_10k", fun () -> regex_alt ~reps);
      ("wal_recovery", fun () -> recovery_time ~reps);
      ("gate_chains_3600", fun () -> gate_chains ~reps 600);
      ("gate_chains_14400", fun () -> gate_chains ~reps 2400);
      ("load_read_paths", fun () -> load_read_paths ~reps);
      ("estimator_accuracy", fun () -> estimator_accuracy ());
    ]
    @ paper_queries ~target
    @ paper_fixpoints ~jobs ~reps
    @ [ ("e11_demand_chain100", fun () -> paper_demand ~reps) ]
    @ substrate ~target
  in
  let selected =
    match only with
    | None -> all
    | Some prefix -> (
      match
        List.filter
          (fun (name, _) -> String.starts_with ~prefix name)
          all
      with
      | [] ->
        Printf.eprintf "bench perf: --only %s matches no suite\n" prefix;
        exit 2
      | some -> some)
  in
  let suites =
    List.map
      (fun ((_ : string), (mk : unit -> suite)) ->
        let s = mk () in
        Printf.printf "%-30s %8.4f s%s%s\n%!" s.name s.wall_s
          (match s.ops_per_s with
          | Some o -> Printf.sprintf "  %10.0f ops/s" o
          | None -> "")
          (match (s.rule_evaluations, s.cache_hits) with
          | Some r, _ -> Printf.sprintf "  rule_evals %d" r
          | None, Some h -> Printf.sprintf "  cache_hits %d" h
          | None, None -> "");
        s)
      selected
  in
  let baseline =
    match baseline_file with Some f -> load_report f | None -> []
  in
  let report =
    Obj
      [
        ( "meta",
          Obj
            [
              ("pr", Num 20.);
              ("mode", Str (if quick then "quick" else "full"));
              ("jobs", Num (float_of_int jobs));
              ( "cores",
                Num (float_of_int (Domain.recommended_domain_count ())) );
              ("ocaml_version", Str Sys.ocaml_version);
              ("generated_by", Str "bench perf");
            ] );
        ("suites", Arr (List.map (suite_json ~baseline) suites));
      ]
  in
  let oc = open_out out in
  output_string oc (to_string report);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  match check_file with
  | None -> ()
  | Some f -> (
    let committed = load_report f in
    match check ~committed ~partial:(only <> None) suites with
    | [] -> print_endline "perf check: ok"
    | failures ->
      Printf.printf "perf check: FAILED — %d suite(s) vs %s:\n"
        (List.length failures) f;
      List.iter (Printf.printf "  %s\n") failures;
      exit 1)
