module Program = Engine.Program

type address =
  | Tcp of string * int
  | Unix_path of string

let pp_address ppf = function
  | Tcp (host, port) -> Format.fprintf ppf "%s:%d" host port
  | Unix_path p -> Format.fprintf ppf "unix:%s" p

type config = {
  workers : int;
  queue_capacity : int;
  max_request_bytes : int;
  deadline_s : float option;
  busy_retry_after_ms : int;
  work_delay_s : float;
  pool_domains : bool;
  cache_capacity : int;
  demand : bool;
  admit_cost : int option;
  data_dir : string option;
  snapshot_every : int;
  recovery_delay_s : float;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    max_request_bytes = 64 * 1024;
    deadline_s = None;
    busy_retry_after_ms = 50;
    work_delay_s = 0.;
    pool_domains = false;
    cache_capacity = 2 * 1024 * 1024;
    demand = false;
    admit_cost = None;
    data_dir = None;
    snapshot_every = 64;
    recovery_delay_s = 0.;
  }

(* A standing query. [sub_wlock] is the owning session's write lock: the
   session serialises its own reply writes through it, and the writer
   thread that commits a mutation batch takes it to push DELTA frames —
   so frames never interleave mid-line on the wire. *)
type subscription = {
  sub_id : int;
  sub_query : string;
  sub_fd : Unix.file_descr;  (* owning session, keyed for teardown *)
  sub_oc : out_channel;
  sub_wlock : Mutex.t;
  mutable sub_rows : string list;  (* last pushed answer set, sorted *)
}

type t = {
  program : Program.t;
  config : config;
  admission : (int * Pathlog_analysis.Absint.t) option;
      (* cost bound and the abstract interpretation of the loaded
         program, precomputed at create time when [admit_cost] is set;
         estimates are evaluated at the current universe size per query *)
  listen_fd : Unix.file_descr;
  bound : address;
  pool : Pool.t;
  metrics : Metrics.t;
      (* the STATS registry, filled by {!register_stats}; the counters
         below are the server's own entries in it *)
  connections_active : int Atomic.t;
  connections_total : int Atomic.t;
  asserts_total : int Atomic.t;  (* committed ASSERT batches *)
  retracts_total : int Atomic.t;  (* committed RETRACT batches *)
  deltas_pushed : int Atomic.t;  (* DELTA frames flushed to subscribers *)
  demand_queries : int Atomic.t;  (* QUERYs answered demand-driven *)
  demand_fallbacks : int Atomic.t;
      (* demand transforms that declined, and mutations that forced full
         materialisation *)
  reads_locked : int Atomic.t;
      (* reads that overlapped a write and re-ran under [store_lock] *)
  qcache : Qcache.t;
  model_version : int Atomic.t;
      (* the result cache's key: bumped under [store_lock] by every write
         that may change the minimal model — a Live batch, or a demand run
         that leaves the model degraded. Materialisation alone (demand
         first sights, SUBSCRIBE's fragment, [Live.attach]) leaves it:
         it adds facts of the same model, so no answer computed over a
         complete demanded fragment can change *)
  store_lock : Mutex.t;
      (* held by every writer ({!with_store_write}: ASSERT/RETRACT, demand
         first sights, SUBSCRIBE, recovery), and by a read whose lock-free
         attempt overlapped a write ({!validated_read}) *)
  write_seq : int Atomic.t;
      (* seqlock over the store: odd while a writer holds [store_lock],
         bumped again on release. A lock-free read stands only if it saw
         the same even value before and after. *)
  mutable live : Incremental.Live.t option;
      (* incremental-maintenance state, attached lazily by the first
         mutation batch (eagerly by recovery); guarded by [store_lock] *)
  durable : Durable.t option;
      (* the write-ahead log + snapshot manager when [data_dir] is set;
         appends run inside the Live commit hook under [store_lock] *)
  recovering : bool Atomic.t;
      (* true while the WAL suffix is replaying after a restart: every
         request except PING/STATS/QUIT is shed with BUSY, because the
         half-replayed store must not answer queries *)
  demand_lock : Mutex.t;
  demand_ready : (string, unit) Hashtbl.t;
      (* demand mode only: query strings whose demanded fragment has
         been fixpointed to completion; guarded by [demand_lock]. Once
         the program is materialised (a fallback or a mutation ran the
         full fixpoint) every query is done. *)
  subs_lock : Mutex.t;
  subs : (int, subscription) Hashtbl.t;
  mutable next_sub_id : int;
  cancel : bool Atomic.t;
      (* server-wide cancellation token, shared by every in-flight
         request's budget; set at shutdown so runaway evaluations stop at
         their next solver poll instead of holding admission slots *)
  stop_m : Mutex.t;
  mutable stopping : bool;
  wake : Unix.file_descr * Unix.file_descr;
      (* self-pipe: the stop request writes one byte, which wakes the
         accept loop out of its [select] at once *)
  mutable accept_thread : Thread.t option;
  conns_lock : Mutex.t;
  conns : (Unix.file_descr, Thread.t) Hashtbl.t;
  mutable closed : bool;
}

let address t = t.bound

let config t = t.config

let recovering t = Atomic.get t.recovering

(* Block until recovery (if any) has finished replaying; clients are
   answered BUSY until then. *)
let await_ready t =
  while Atomic.get t.recovering do
    Thread.delay 0.002
  done

let cache_stats t = Qcache.stats t.qcache

let request_stop t =
  Mutex.lock t.stop_m;
  if not t.stopping then begin
    t.stopping <- true;
    (* only the first request writes, so none writes after [shutdown]
       (which requests first) has closed the pipe *)
    try ignore (Unix.single_write (snd t.wake) (Bytes.make 1 '!') 0 1 : int)
    with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.stop_m

(* Waits on the wake-up pipe rather than on a condition. The SIGINT /
   SIGTERM handler only runs once some thread of the process reaches a
   safe point: a signal delivered to this thread interrupts its
   [select], and one delivered elsewhere (a thread parked in a condition
   wait, a domain worker) is picked up when the [select] times out. The
   flag is read without [stop_m], which the handler takes: a handler run
   inside that critical section would deadlock. *)
let await t =
  while not t.stopping do
    try ignore (Unix.select [ fst t.wake ] [] [] 0.2)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* ------------------------------------------------------------------ *)
(* Request evaluation (under a pool slot; validated, see below).      *)

(* Answer rows as tab-separated lines; every cell is written straight
   into one buffer shared by the rows. *)
let render_rows t rows =
  let u = Program.universe t.program and b = Buffer.create 64 in
  List.map
    (fun cells ->
      Buffer.clear b;
      List.iteri
        (fun i o ->
          if i > 0 then Buffer.add_char b '\t';
          Oodb.Universe.add_obj u b o)
        cells;
      Buffer.contents b)
    rows

let render_answer t (a : Program.answer) =
  match a.columns with
  | [] -> [ (if a.rows = [] then "no" else "yes") ]
  | columns -> String.concat "\t" columns :: render_rows t a.rows

(* Map evaluation exceptions to protocol errors: the shared fault
   boundary of the read-only, demand and subscribe paths. *)
let reply_of_eval t f =
  match f () with
  | reply -> reply
  | exception Program.Invalid msg -> Protocol.Err (Protocol.Parse, msg)
  | exception Engine.Budget.Exhausted reason ->
    (* killed mid-evaluation: the enumeration was abandoned, nothing
       was computed to completion — a hard per-request error, unlike
       the DEGRADED marker (sound answers over a partial model) *)
    (match reason with
    | Engine.Budget.Cancelled ->
      Protocol.Err (Protocol.Cancelled, "request cancelled")
    | Engine.Budget.Timeout ->
      Protocol.Err
        (Protocol.Timeout, "deadline exceeded during evaluation")
    | Engine.Budget.Derivations | Engine.Budget.Objects ->
      Protocol.Err
        ( Protocol.Timeout,
          "evaluation budget exhausted ("
          ^ Engine.Budget.reason_label reason
          ^ ")" ))
  | exception e -> (
    match Engine.Err.message (Program.store t.program) e with
    | Some msg -> Protocol.Err (Protocol.Parse, msg)
    | None -> Protocol.Err (Protocol.Internal, Printexc.to_string e))

(* Reads take no lock unless they have to. [f] runs once optimistically;
   the result stands if [write_seq] was even before and unchanged after,
   i.e. no writer held the store at any point of the run. Otherwise the
   run is discarded — whatever it returned or raised may come from a
   half-maintained model or a half-resized index — and [f] runs once
   more under [store_lock], where no writer can start (the seqlock is not
   bumped: the locked read writes nothing). So a read costs at most two
   runs, and a read that overlaps a batch waits for that batch instead of
   seeing part of it. *)
let validated_read t f =
  let seq0 = Atomic.get t.write_seq in
  let optimistic =
    if seq0 land 1 = 1 then None
    else
      match f () with
      | v -> Some (Ok v)
      | exception e -> Some (Error (e, Printexc.get_raw_backtrace ()))
  in
  match optimistic with
  | Some r when Atomic.get t.write_seq = seq0 -> (
    match r with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
  | Some _ | None ->
    Atomic.incr t.reads_locked;
    Mutex.lock t.store_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.store_lock) f

let outcome_of_reply = function
  | Protocol.Ok _ | Protocol.Pong -> Metrics.Ok
  | Protocol.Degraded _ -> Metrics.Degraded
  | Protocol.Busy _ -> Metrics.Busy
  | Protocol.Err (Protocol.Timeout, _) -> Metrics.Timeout
  | Protocol.Err (Protocol.Cancelled, _) -> Metrics.Cancelled
  | Protocol.Err _ -> Metrics.Error

(* A reply framed for the wire, with the outcome {!Metrics.record}
   counts it under: what a QUERY/WHY hands its session. *)
let framed reply = (outcome_of_reply reply, Protocol.render_reply reply)

(* Cache keys. A QUERY is keyed by its text; a request line holds no
   newline, so no QUERY text equals a WHY key. *)
let why_key q = "WHY\n" ^ q

(* The cached frame for [key] at the current model version, as a hit
   is answered: only [Ok] frames are cached. The lookup is a read like
   any other: one that overlaps a batch waits for it. *)
let cached t key =
  validated_read t (fun () ->
      Qcache.find_frame t.qcache ~epoch:(Atomic.get t.model_version) key)
  |> Option.map (fun frame -> (Metrics.Ok, frame))

(* QUERY and WHY, after a cache miss. Queries are read-only modulo
   interning: they may add objects to the universe (constants first seen
   in query text) but never isa edges or method tuples. The model
   version, read before the run, keys the reply in the result cache. The
   store epoch is the read-only assertion: under {!validated_read} no
   writer ran during the run, so an epoch that moved means the request
   itself wrote to the store: the invariant violation is reported, never
   cached. The reply is rendered once; a validated [Ok] caches those
   same bytes. *)
let eval_readonly t ~cache_key f =
  let st = Program.store t.program in
  let attempt () =
    let version = Atomic.get t.model_version in
    let snap = Oodb.Store.freeze st in
    let reply = reply_of_eval t f in
    if Oodb.Store.snapshot_stale snap then `Moved else `Fresh (version, reply)
  in
  match validated_read t attempt with
  | `Fresh (version, reply) ->
    let ((_, frame) as answer) = framed reply in
    (match (cache_key, reply) with
    | Some key, Protocol.Ok _ ->
      Qcache.add_frame t.qcache ~epoch:version key frame
    | _ -> ());
    answer
  | `Moved ->
    framed
      (Protocol.Err
         ( Protocol.Internal,
           "invariant violation: the store changed under a read-only request" ))

(* A sound answer over a budget-terminated (partial) materialisation is
   surfaced as DEGRADED, not hidden behind OK: the client learns the set
   may be incomplete. Degraded replies are never cached — the marker
   depends on program state, and a reload to a complete model must not
   serve stale markers. *)
let mark_degraded t = function
  | Protocol.Ok lines when Program.degraded t.program <> None ->
    Protocol.Degraded lines
  | reply -> reply

(* Serialised write access to the program's store — mutation batches,
   subscriptions, first-time demand materialisation and recovery. The
   seqlock brackets the critical section so a concurrent lock-free read
   sees the write and re-runs under the lock (see {!validated_read}). *)
let with_store_write t f =
  Mutex.lock t.store_lock;
  Atomic.incr t.write_seq;
  Fun.protect
    ~finally:(fun () ->
      Atomic.incr t.write_seq;
      Mutex.unlock t.store_lock)
    f

(* Called under [store_lock] by a write that may change the minimal
   model: every cached answer becomes unreachable at its next lookup. *)
let model_moved t = Atomic.incr t.model_version

(* ------------------------------------------------------------------ *)
(* Demand mode: first sight of a query materialises only its demanded
   fragment (magic-sets transform, see {!Engine.Demand}) under the
   store write lock; every later request takes the ordinary lock-free
   read path over the accumulated store. *)

let demand_done t q =
  Program.materialised t.program
  || Mutex.protect t.demand_lock (fun () -> Hashtbl.mem t.demand_ready q)

let demand_pending t q = t.config.demand && not (demand_done t q)

(* Transform and fixpoint the fragment [q] demands; called under
   [store_lock]. When the transform declines (negation, inclusion,
   hilog) the engine materialises the full model instead, and
   [demand_done] holds for every query from then on. A budget-degraded
   run is not marked ready: the next identical query re-demands and can
   complete the fragment. It moves the model version, so no cached
   answer is served OK beside the degraded model. *)
let demand_materialise_locked ?budget t q =
  let ans, report = Program.query_demand_string ?budget t.program q in
  (match report.Program.d_fallback with
  | Some _ -> Atomic.incr t.demand_fallbacks
  | None ->
    Atomic.incr t.demand_queries;
    if Program.degraded t.program = None then begin
      Mutex.lock t.demand_lock;
      Hashtbl.replace t.demand_ready q ();
      Mutex.unlock t.demand_lock
    end);
  if Program.degraded t.program <> None then model_moved t;
  ans

(* A first-time demand query, under a pool slot. The double check under
   the lock covers the race where two sessions demand the same query:
   the loser answers from the store the winner just grew. Once the
   fragment is complete, the reply is cached at the model version the
   lock holds still. *)
let eval_demand ?budget t q =
  with_store_write t (fun () ->
      let reply =
        reply_of_eval t (fun () ->
            let ans =
              if demand_done t q then Program.query_string ?budget t.program q
              else demand_materialise_locked ?budget t q
            in
            mark_degraded t (Protocol.Ok (render_answer t ans)))
      in
      let ((_, frame) as answer) = framed reply in
      (match reply with
      | Protocol.Ok _ when demand_done t q ->
        Qcache.add_frame t.qcache ~epoch:(Atomic.get t.model_version) q frame
      | _ -> ());
      answer)

(* QUERY and WHY look in the cache first: in demand mode a cached QUERY
   key is demand-done by construction, so a repeat skips [demand_done].
   WHY is cached only over a materialised program: before that a demand
   first sight adds facts without moving the model version, and a proof
   it makes possible must not be answered "not in the model" from the
   cache. *)
let eval_request ?budget t req =
  match req with
  | Protocol.Query q -> (
    match cached t q with
    | Some answer -> answer
    | None when demand_pending t q -> eval_demand ?budget t q
    | None ->
      eval_readonly t ~cache_key:(Some q) (fun () ->
          mark_degraded t
            (Protocol.Ok
               (render_answer t (Program.query_string ?budget t.program q)))))
  | Protocol.Why q -> (
    let key = why_key q in
    match cached t key with
    | Some answer -> answer
    | None ->
      let cache_key =
        if Program.materialised t.program then Some key else None
      in
      eval_readonly t ~cache_key (fun () ->
          match Program.why_string ?budget t.program q with
          | Some proof ->
            Protocol.Ok
              (Engine.Provenance.proof_lines (Program.universe t.program) proof)
          | None -> Protocol.Ok [ "not in the model" ]))
  | Protocol.Ping | Protocol.Stats | Protocol.Quit | Protocol.Assert _
  | Protocol.Retract _ | Protocol.Subscribe _ ->
    (* handled inline by the session; unreachable here *)
    framed (Protocol.Err (Protocol.Internal, "verb not pooled"))

(* ------------------------------------------------------------------ *)
(* Live mutation and subscriptions                                     *)

let live_of t =
  (* called under [store_lock] only *)
  match t.live with
  | Some l -> l
  | None ->
    let l = Incremental.Live.attach t.program in
    t.live <- Some l;
    l

(* A subscription's answer set, as sorted single-line rows. A query with
   no variables renders as the single row "true" when entailed, so its
   delta stream reads "+ true" / "- true". *)
let subscription_rows t (a : Program.answer) =
  match a.columns with
  | [] -> if a.rows = [] then [] else [ "true" ]
  | _ -> List.sort compare (render_rows t a.rows)

(* Difference of two sorted string lists: (appeared, vanished). *)
let diff_sorted before after =
  let rec go before after appeared vanished =
    match (before, after) with
    | [], [] -> (List.rev appeared, List.rev vanished)
    | [], a :: after -> go [] after (a :: appeared) vanished
    | b :: before, [] -> go before [] appeared (b :: vanished)
    | b :: before', a :: after' ->
      let c = compare b a in
      if c = 0 then go before' after' appeared vanished
      else if c < 0 then go before' after appeared (b :: vanished)
      else go before after' (a :: appeared) vanished
  in
  go before after [] []

let drop_subscription t s =
  Mutex.lock t.subs_lock;
  Hashtbl.remove t.subs s.sub_id;
  Mutex.unlock t.subs_lock

(* Re-evaluate every standing query against the just-committed store and
   push a DELTA frame where the answer set changed. Runs inside
   [with_store_write], so the store is stable and frames are ordered
   consistently with commits. A subscriber whose socket is gone is
   dropped here; its session tears down on its own schedule. *)
let push_deltas t =
  let subs =
    Mutex.lock t.subs_lock;
    let l = Hashtbl.fold (fun _ s acc -> s :: acc) t.subs [] in
    Mutex.unlock t.subs_lock;
    List.sort (fun a b -> compare a.sub_id b.sub_id) l
  in
  List.iter
    (fun s ->
      match Program.query_string t.program s.sub_query with
      | exception _ -> ()
      | a ->
        let rows = subscription_rows t a in
        let appeared, vanished = diff_sorted s.sub_rows rows in
        if appeared <> [] || vanished <> [] then begin
          s.sub_rows <- rows;
          let frame =
            Protocol.render_delta
              { Protocol.sub_id = s.sub_id; appeared; vanished }
          in
          Mutex.lock s.sub_wlock;
          (match
             output_string s.sub_oc frame;
             flush s.sub_oc
           with
          | () -> Atomic.incr t.deltas_pushed
          | exception (Sys_error _ | Unix.Unix_error _) ->
            drop_subscription t s);
          Mutex.unlock s.sub_wlock
        end)
    subs

let render_batch_stats (st : Incremental.Live.batch_stats) =
  Protocol.Ok
    [
      Printf.sprintf "epoch %d" st.Incremental.Live.epoch;
      Printf.sprintf "strategy %s"
        (Incremental.Live.strategy_name st.Incremental.Live.strategy);
      Printf.sprintf "added %d" (List.length st.Incremental.Live.added);
      Printf.sprintf "removed %d" (List.length st.Incremental.Live.removed);
    ]

(* ASSERT / RETRACT, inline in the session thread. The batch first passes
   the same static-analysis gate as a program load — error-severity
   diagnostics reject it atomically with ERR ANALYSIS before any store
   write — then commits under the store lock, bumps the counters, and
   fans out DELTA frames while the store is still quiescent. *)
let handle_mutation t ~retract text =
  match Pathlog_analysis.Check.gate text with
  | Error msg -> Protocol.Err (Protocol.Analysis, msg)
  | Ok _ -> (
    with_store_write t (fun () ->
        model_moved t;
        (* incremental maintenance is defined against the full minimal
           model; with only demanded fragments materialised, attaching
           Live first materialises it (counted as a demand fallback) *)
        if t.config.demand && not (Program.materialised t.program) then
          Atomic.incr t.demand_fallbacks;
        let live = live_of t in
        let apply =
          if retract then Incremental.Live.retract_batch
          else Incremental.Live.assert_batch
        in
        match apply live text with
        | exception Incremental.Live.Rejected msg ->
          Protocol.Err (Protocol.Badreq, msg)
        | exception Program.Invalid msg -> Protocol.Err (Protocol.Parse, msg)
        | exception Fault.Injected _ ->
          (* an injected store or WAL fault escaped the engine's bounded
             retry; the batch was rolled back (and any partial log frame
             truncated) — shed it like a full queue *)
          Protocol.Busy
            ( t.config.busy_retry_after_ms,
              "transient fault during mutation; retry" )
        | exception Unix.Unix_error (e, fn, _) ->
          (* a real I/O failure in the WAL append: the batch was rolled
             back, nothing reached the log — the client must not see OK *)
          Protocol.Err
            ( Protocol.Internal,
              Printf.sprintf "durable log write failed: %s (%s)"
                (Unix.error_message e) fn )
        | st ->
          Atomic.incr (if retract then t.retracts_total else t.asserts_total);
          (* snapshot cadence: every [snapshot_every] committed batches,
             cut a snapshot at this epoch boundary while the store is
             quiescent (we still hold the write lock). Failure is
             contained — the WAL has everything *)
          (match t.durable with
          | Some d ->
            ignore
              (Durable.maybe_snapshot d ~every:t.config.snapshot_every
                 ~epoch:st.Incremental.Live.epoch
                 ~source:(fun () -> Incremental.Live.dump_source (live_of t))
                : bool)
          | None -> ());
          push_deltas t;
          render_batch_stats st))

(* SUBSCRIBE, inline in the session thread. Registration runs under the
   store lock so the baseline answer set is atomic with respect to
   commits: every later batch either predates the baseline or produces a
   DELTA. The reply carries the id and the baseline rows. *)
let handle_subscribe t ~fd ~oc ~wlock query =
  with_store_write t (fun () ->
      (* a standing query's fragment must exist before the baseline is
         taken; errors surface through the baseline query below *)
      (if t.config.demand && not (demand_done t query) then
         try ignore (demand_materialise_locked t query) with _ -> ());
      match
        reply_of_eval t (fun () ->
            Protocol.Ok
              (subscription_rows t (Program.query_string t.program query)))
      with
      | Protocol.Ok rows ->
        Mutex.lock t.subs_lock;
        let id = t.next_sub_id in
        t.next_sub_id <- id + 1;
        Hashtbl.replace t.subs id
          {
            sub_id = id;
            sub_query = query;
            sub_fd = fd;
            sub_oc = oc;
            sub_wlock = wlock;
            sub_rows = rows;
          };
        Mutex.unlock t.subs_lock;
        Protocol.Ok (Printf.sprintf "id %d" id :: rows)
      | reply -> reply)

let unsubscribe_session t fd =
  Mutex.lock t.subs_lock;
  let mine =
    Hashtbl.fold
      (fun id s acc -> if s.sub_fd = fd then id :: acc else acc)
      t.subs []
  in
  List.iter (Hashtbl.remove t.subs) mine;
  Mutex.unlock t.subs_lock

(* The STATS layout: every key, in print order, as its owner's counter
   or readout. The store-walking readouts are reads like any other, so
   they run under {!validated_read}. *)
let register_stats t =
  let m = t.metrics in
  let int key f =
    Metrics.readout m key (fun () -> [ (key, string_of_int (f ())) ])
  in
  let store_read f = validated_read t (fun () -> f (Program.store t.program)) in
  Metrics.readout m "uptime" (Metrics.uptime m);
  Metrics.counter m "connections_active" t.connections_active;
  Metrics.counter m "connections_total" t.connections_total;
  Metrics.readout m "request_totals" (Metrics.request_totals m);
  int "injected_faults" Fault.injected_total;
  Metrics.counter m "asserts_total" t.asserts_total;
  Metrics.counter m "retracts_total" t.retracts_total;
  int "subscriptions_active" (fun () ->
      Mutex.protect t.subs_lock (fun () -> Hashtbl.length t.subs));
  Metrics.counter m "deltas_pushed" t.deltas_pushed;
  Metrics.counter m "demand_queries_total" t.demand_queries;
  Metrics.counter m "demand_fallbacks_total" t.demand_fallbacks;
  Metrics.counter m "reads_locked_total" t.reads_locked;
  int "magic_facts" (fun () -> store_read Engine.Demand.magic_fact_total);
  Metrics.counter m "regex_plans_total" Semantics.Solve.regex_plans_total;
  Metrics.counter m "product_states_expanded"
    Semantics.Solve.product_states_expanded;
  Metrics.readout m "requests" (Metrics.request_table m);
  Metrics.readout m "store" (fun () ->
      let { Oodb.Store.objects; isa_edges; scalar_tuples; set_tuples } =
        store_read Oodb.Store.stats
      in
      [
        ("store_objects", string_of_int objects);
        ("store_isa_edges", string_of_int isa_edges);
        ("store_scalar_tuples", string_of_int scalar_tuples);
        ("store_set_tuples", string_of_int set_tuples);
      ]);
  (* the major heap now and at its peak, in words: O(1), no heap walk *)
  Metrics.readout m "heap" (fun () ->
      let { Gc.heap_words; top_heap_words; _ } = Gc.quick_stat () in
      [
        ("heap_words", string_of_int heap_words);
        ("top_heap_words", string_of_int top_heap_words);
      ]);
  Metrics.readout m "qcache" (fun () ->
      let { Qcache.hits; misses; entries; bytes; evictions; stale } =
        Qcache.stats t.qcache
      in
      [
        ("cache_hits", string_of_int hits);
        ("cache_misses", string_of_int misses);
        ("cache_entries", string_of_int entries);
        ("cache_bytes", string_of_int bytes);
        ("cache_evictions", string_of_int evictions);
        ("cache_stale", string_of_int stale);
      ]);
  match t.durable with
  | None -> ()
  | Some d ->
    Metrics.readout m "durable" (fun () ->
        let s = Durable.stats d in
        [
          ("wal_appends_total", string_of_int s.Durable.wal_appends_total);
          ("wal_bytes", string_of_int s.Durable.wal_bytes);
          ("snapshots_total", string_of_int s.Durable.snapshots_total);
          ( "last_recovery_ms",
            Printf.sprintf "%.3f" s.Durable.last_recovery_ms );
        ])

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

(* The wire-write fault boundary: [Short] flushes a truncated frame
   before raising, so the peer observes a short read mid-payload, not a
   clean close between frames. The raise tears down this session only —
   the outer handler closes the socket and the server lives on. *)
let write_frame oc s =
  match Fault.ask Fault.Wire_write with
  | None ->
    output_string oc s;
    flush oc
  | Some (Fault.Delay d) ->
    if d > 0. then Thread.delay d;
    output_string oc s;
    flush oc
  | Some Fault.Fail -> raise (Fault.Injected Fault.Wire_write)
  | Some Fault.Short ->
    output_substring oc s 0 (max 1 (String.length s / 2));
    flush oc;
    raise (Fault.Injected Fault.Wire_write)

let busy t msg = Protocol.Busy (t.config.busy_retry_after_ms, msg)

(* Admission control ([--admit-cost]): reject a query whose statically
   predicted derivation count exceeds the bound — before the pool, the
   engine, or any evaluation sees it. A query that fails to parse is let
   through: the normal evaluation path owns the parse error reply. The
   estimate composes with per-request budgets: admission refuses work
   that is predictably too large, budgets stop work that turns out too
   large. *)
let admission_reject t req =
  match (t.admission, req) with
  | Some (bound, absint), Protocol.Query q -> (
    match Program.parse_query q with
    | exception Program.Invalid _ -> None
    | lits -> (
      let store = Program.store t.program in
      match
        Pathlog_analysis.Absint.query_cost absint store
          (Program.rules t.program) lits
      with
      | `Infinite ->
        Some
          (Protocol.Err
             ( Protocol.Cost,
               Printf.sprintf
                 "unbounded: predicted derivations are infinite \
                  (admit-cost bound %d)"
                 bound ))
      | `Bound est when est > bound ->
        Some
          (Protocol.Err
             ( Protocol.Cost,
               Printf.sprintf
                 "%d predicted derivations exceed the admit-cost bound %d"
                 est bound ))
      | `Bound _ -> None))
  | _, _ -> None

let handle_pooled_admitted t req =
  let admitted_at = Unix.gettimeofday () in
  let deadline =
    Option.map (fun d -> admitted_at +. d) t.config.deadline_s
  in
  (* the pool-dispatch fault boundary: an injected failure here models a
     dispatch layer shedding load — the client gets BUSY plus the
     retry-after hint, exactly like a full queue *)
  let dispatch_fault =
    match Fault.ask Fault.Pool_dispatch with
    | None -> false
    | Some (Fault.Delay d) ->
      if d > 0. then Thread.delay d;
      false
    | Some (Fault.Fail | Fault.Short) -> true
  in
  if dispatch_fault then framed (busy t "injected dispatch fault")
  else
    let eval () =
      (* the deadline is re-checked once a slot is free: a request can
         expire while waiting even though it was admitted in time... *)
      match deadline with
      | Some d when Unix.gettimeofday () > d ->
        framed (Protocol.Err (Protocol.Timeout, "deadline exceeded in queue"))
      | _ ->
        if t.config.work_delay_s > 0. then Thread.delay t.config.work_delay_s;
        (* ...and enforced during evaluation: the remaining deadline
           becomes an engine budget polled from the solver's enumeration
           loops, together with the server-wide cancellation token *)
        let budget =
          Engine.Budget.create ?deadline_at:deadline ~cancel:t.cancel ()
        in
        eval_request ~budget t req
    in
    match Pool.run t.pool eval with
    | Some answer -> answer
    | None ->
      framed
        (busy t
           (Printf.sprintf
              "admission queue full (%d workers, queue capacity %d)"
              (Pool.workers t.pool) (Pool.capacity t.pool)))

(* QUERY and WHY: the framed reply and its outcome. *)
let handle_pooled t req =
  match admission_reject t req with
  | Some reply -> framed reply
  | None -> handle_pooled_admitted t req

let session t fd =
  (* Like the client, the write side runs on a dup of the socket so each
     channel owns one descriptor and teardown closes each exactly once —
     a double-close of a shared fd races descriptor reuse across threads
     and can tear down an unrelated connection. *)
  match Unix.dup ~cloexec:true fd with
  | exception Unix.Unix_error _ ->
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns fd;
    Mutex.unlock t.conns_lock;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | fd_out ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd_out in
  Atomic.incr t.connections_active;
  Atomic.incr t.connections_total;
  (* serialises this session's reply writes with DELTA pushes from
     writer threads (see {!subscription}) *)
  let wlock = Mutex.create () in
  let write_frame oc frame =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () -> write_frame oc frame)
  in
  let write_reply oc reply = write_frame oc (Protocol.render_reply reply) in
  let finish () =
    unsubscribe_session t fd;
    Atomic.decr t.connections_active;
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns fd;
    Mutex.unlock t.conns_lock;
    (* a writer thread may be pushing a DELTA right now; wait it out so
       the channel is not closed mid-write *)
    Mutex.lock wlock;
    close_out_noerr oc;
    close_in_noerr ic;
    Mutex.unlock wlock
  in
  let record_outcome verb outcome started =
    Metrics.record t.metrics ~verb ~outcome
      ~latency_s:(Unix.gettimeofday () -. started)
  in
  let record verb reply started =
    record_outcome verb (outcome_of_reply reply) started
  in
  let rec loop () =
    (* the wire-read fault boundary; an injected failure drops this
       connection (caught below), never the server *)
    Fault.hit Fault.Wire_read;
    match Protocol.input_line_bounded ic ~max:t.config.max_request_bytes with
    | Error `Eof -> ()
    | Error `Toolarge ->
      let started = Unix.gettimeofday () in
      let reply =
        Protocol.Err
          ( Protocol.Toolarge,
            Printf.sprintf "request exceeds %d bytes"
              t.config.max_request_bytes )
      in
      write_reply oc reply;
      record "?" reply started;
      loop ()
    | Ok line -> (
      let started = Unix.gettimeofday () in
      match Protocol.parse_request line with
      | Error (code, msg) ->
        let reply = Protocol.Err (code, msg) in
        write_reply oc reply;
        record "?" reply started;
        loop ()
      | Ok req -> (
        let verb = Protocol.verb req in
        match req with
        | Protocol.Quit ->
          write_reply oc (Protocol.Ok []);
          record verb (Protocol.Ok []) started
        | Protocol.Ping ->
          write_reply oc Protocol.Pong;
          record verb Protocol.Pong started;
          loop ()
        | Protocol.Stats ->
          let reply = Protocol.Ok (Metrics.render t.metrics) in
          write_reply oc reply;
          record verb reply started;
          loop ()
        | Protocol.Assert _ | Protocol.Retract _ | Protocol.Subscribe _
        | Protocol.Query _ | Protocol.Why _
          when Atomic.get t.recovering ->
          (* the store is half-replayed: answering from it would expose
             a state that never existed. Shed with the retry-after hint
             — Client.request_with_retry backs off and lands after the
             replay finishes *)
          let reply = busy t "recovering: replaying the write-ahead log" in
          write_reply oc reply;
          record verb reply started;
          loop ()
        | Protocol.Assert text ->
          let reply = handle_mutation t ~retract:false text in
          write_reply oc reply;
          record verb reply started;
          if not t.stopping then loop ()
        | Protocol.Retract text ->
          let reply = handle_mutation t ~retract:true text in
          write_reply oc reply;
          record verb reply started;
          if not t.stopping then loop ()
        | Protocol.Subscribe q ->
          let reply = handle_subscribe t ~fd ~oc ~wlock q in
          write_reply oc reply;
          record verb reply started;
          if not t.stopping then loop ()
        | Protocol.Query _ | Protocol.Why _ ->
          let outcome, frame = handle_pooled t req in
          write_frame oc frame;
          record_outcome verb outcome started;
          if not t.stopping then loop ()))
  in
  (try loop () with
  | Sys_error _ | End_of_file -> ()
  | Unix.Unix_error _ -> ()
  | Fault.Injected _ -> ());
  finish ()

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)

(* A connection the server will not serve any more: answered BUSY, then
   closed. A request it already sent is read off first, so the close is
   a clean one and does not reset the connection under the reply. *)
let refuse_stopping t fd =
  (try
     let frame = Protocol.render_reply (busy t "shutting down") in
     ignore (Unix.write_substring fd frame 0 (String.length frame) : int);
     Unix.shutdown fd Unix.SHUTDOWN_SEND;
     Unix.set_nonblock fd;
     let buf = Bytes.create 4096 in
     while Unix.read fd buf 0 (Bytes.length buf) > 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* At shutdown, the connections still in the listen backlog: accepted
   without blocking and refused, so none sees a bare close. *)
let refuse_backlog t =
  match Unix.set_nonblock t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | () ->
    let rec loop () =
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _peer ->
        refuse_stopping t fd;
        loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        loop ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ()

let accept_loop t () =
  let rec loop () =
    if t.stopping then ()
    else
      match Unix.select [ t.listen_fd; fst t.wake ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      | ready, _, _ when not (List.mem t.listen_fd ready) -> loop ()
      | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
          ->
          loop ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
        | fd, _peer ->
          if t.stopping then refuse_stopping t fd
          else begin
            (* register under the lock, before the session can run: a
               session that dies instantly must find its entry to remove,
               or shutdown would miss (or double-see) the fd *)
            Mutex.lock t.conns_lock;
            let th = Thread.create (session t) fd in
            Hashtbl.replace t.conns fd th;
            Mutex.unlock t.conns_lock;
            loop ()
          end)
  in
  loop ()

(* ------------------------------------------------------------------ *)

let inet_addr_of host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      failwith ("cannot resolve host " ^ host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0))

(* Replay the WAL suffix into the freshly attached Live state, then
   install the commit hook so every later batch is logged before its OK.
   Runs in a dedicated thread: the listening socket is already up, and
   sessions shed everything but PING/STATS with BUSY until [recovering]
   clears. Each step takes the store write lock on its own, so a STATS
   read waits for one replayed batch, not for the whole replay. *)
let run_recovery t d (recovery : Durable.recovery) =
  let t0 = Unix.gettimeofday () in
  if t.config.recovery_delay_s > 0. then
    Thread.delay t.config.recovery_delay_s;
  let live = with_store_write t (fun () -> live_of t) in
  List.iter
    (fun (r : Durable.record) ->
      (* each record was gated when first accepted; re-validate with the
         same static-analysis gate so a log doctored (or rotted) into
         something provably broken is refused, not replayed *)
      match Pathlog_analysis.Check.gate r.Durable.text with
      | Error msg ->
        Printf.eprintf
          "pathlog: recovery: WAL record %d refused by the analysis gate, \
           skipped:\n%s\n%!"
          r.Durable.seq msg
      | Ok _ -> (
        let apply =
          if r.Durable.retract then Incremental.Live.retract_batch
          else Incremental.Live.assert_batch
        in
        match
          with_store_write t (fun () ->
              model_moved t;
              apply live r.Durable.text)
        with
        | (_ : Incremental.Live.batch_stats) -> ()
        | exception e ->
          Printf.eprintf
            "pathlog: recovery: WAL record %d failed to replay, skipped: \
             %s\n%!"
            r.Durable.seq (Printexc.to_string e)))
    recovery.Durable.r_tail;
  with_store_write t (fun () ->
      Incremental.Live.set_commit_hook live
        (Some
           (fun ~retract ~epoch ~text ->
             ignore (Durable.append d ~retract ~epoch text : int))));
  Durable.set_recovery_ms d ((Unix.gettimeofday () -. t0) *. 1000.);
  Atomic.set t.recovering false

let create ?(config = default_config) ~program addr =
  if Sys.os_type <> "Win32" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Durability: open the data directory first — recovery may replace
     the program wholesale with the newest valid snapshot's source
     (re-gated by the static analysis), and the WAL suffix beyond it
     replays through Live once the socket is listening. *)
  let durable, recovery, program =
    match config.data_dir with
    | None -> (None, None, program)
    | Some dir ->
      let d, r = Durable.open_dir dir in
      if r.Durable.r_torn_bytes > 0 then
        Printf.eprintf
          "pathlog: recovery: truncated %d torn byte(s) from the \
           write-ahead log tail\n%!"
          r.Durable.r_torn_bytes;
      let program =
        match r.Durable.r_snapshot with
        | None -> program
        | Some (seq, _epoch, src) -> (
          match
            Pathlog_analysis.Check.gate_program
              ~config:(Program.config program) src
          with
          | Ok (p, _) -> p
          | Error msg ->
            Durable.close d;
            failwith
              (Printf.sprintf
                 "recovery: snapshot %d refused by the static-analysis \
                  gate:\n%s"
                 seq msg))
      in
      (Some d, Some r, program)
  in
  let listen_fd, bound =
    match addr with
    | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (inet_addr_of host, port));
         Unix.listen fd 128
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      (fd, Tcp (host, port))
    | Unix_path path ->
      (try if Sys.file_exists path then Unix.unlink path
       with Unix.Unix_error _ | Sys_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 128
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      (fd, Unix_path path)
  in
  let t =
    {
      program;
      config;
      admission =
        (match config.admit_cost with
        | None -> None
        | Some bound ->
          Some
            ( bound,
              Pathlog_analysis.Absint.analyze ~facts:(Program.facts program)
                (Program.store program) (Program.rules program) ));
      listen_fd;
      bound;
      pool =
        Pool.create
          ~backend:(if config.pool_domains then Pool.Domains else Pool.Threads)
          ~workers:config.workers ~capacity:config.queue_capacity ();
      metrics = Metrics.create ();
      connections_active = Atomic.make 0;
      connections_total = Atomic.make 0;
      asserts_total = Atomic.make 0;
      retracts_total = Atomic.make 0;
      deltas_pushed = Atomic.make 0;
      demand_queries = Atomic.make 0;
      demand_fallbacks = Atomic.make 0;
      reads_locked = Atomic.make 0;
      qcache = Qcache.create ~capacity:config.cache_capacity;
      model_version = Atomic.make 0;
      store_lock = Mutex.create ();
      write_seq = Atomic.make 0;
      live = None;
      durable;
      recovering = Atomic.make (durable <> None);
      demand_lock = Mutex.create ();
      demand_ready = Hashtbl.create 16;
      subs_lock = Mutex.create ();
      subs = Hashtbl.create 8;
      next_sub_id = 1;
      cancel = Atomic.make false;
      stop_m = Mutex.create ();
      stopping = false;
      wake =
        (let r, w = Unix.pipe ~cloexec:true () in
         Unix.set_nonblock w;
         (r, w));
      accept_thread = None;
      conns_lock = Mutex.create ();
      conns = Hashtbl.create 32;
      closed = false;
    }
  in
  register_stats t;
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  (match (durable, recovery) with
  | Some d, Some r ->
    (* replay runs behind the listening socket: clients connect at once
       and are shed with BUSY until the tail is in the model *)
    ignore (Thread.create (fun () -> run_recovery t d r) () : Thread.t)
  | _ -> ());
  t

let shutdown t =
  request_stop t;
  let first =
    Mutex.lock t.conns_lock;
    let f = not t.closed in
    t.closed <- true;
    Mutex.unlock t.conns_lock;
    f
  in
  if first then begin
    (* 1. stop accepting *)
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* 2. cancel in-flight evaluations: every request budget shares this
       token, so runaway queries stop at their next solver poll and are
       answered ERR CANCELLED instead of pinning the drain *)
    Atomic.set t.cancel true;
    (* 3. every admitted request finishes (evaluated or cancelled);
       replies reach their sessions *)
    Pool.shutdown t.pool;
    (* 4. wake sessions parked in read and let them exit *)
    let sessions =
      Mutex.lock t.conns_lock;
      let l = Hashtbl.fold (fun fd th acc -> (fd, th) :: acc) t.conns [] in
      Mutex.unlock t.conns_lock;
      l
    in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      sessions;
    List.iter (fun (_, th) -> Thread.join th) sessions;
    (* 5. answer what is left in the backlog, and release the listener
       and the wake-up pipe *)
    refuse_backlog t;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; fst t.wake; snd t.wake ];
    (* 6. close the durable log — every acknowledged batch was already
       fsync'd at commit time, so this is bookkeeping, not a flush *)
    (match t.durable with
    | Some d -> ( try Durable.close d with Unix.Unix_error _ -> ())
    | None -> ());
    match t.bound with
    | Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ()
  end

let serve t =
  await t;
  shutdown t
