type outcome = Ok | Degraded | Error | Busy | Timeout | Cancelled

let outcome_to_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Error -> "error"
  | Busy -> "busy"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"

type t = {
  lock : Mutex.t;
  started_at : float;
  counters : (string * string, int ref) Hashtbl.t;
  latency : Histogram.t;
  mutable requests_total : int;
  mutable cancelled_total : int;
  mutable degraded_total : int;
  mutable connections_active : int;
  mutable connections_total : int;
  mutable asserts_total : int;
  mutable retracts_total : int;
  mutable subscriptions_active : int;
  mutable deltas_pushed : int;
  mutable demand_queries_total : int;
  mutable demand_fallbacks_total : int;
  mutable reads_locked_total : int;
}

let create () =
  {
    lock = Mutex.create ();
    started_at = Unix.gettimeofday ();
    counters = Hashtbl.create 16;
    latency = Histogram.create ();
    requests_total = 0;
    cancelled_total = 0;
    degraded_total = 0;
    connections_active = 0;
    connections_total = 0;
    asserts_total = 0;
    retracts_total = 0;
    subscriptions_active = 0;
    deltas_pushed = 0;
    demand_queries_total = 0;
    demand_fallbacks_total = 0;
    reads_locked_total = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t ~verb ~outcome ~latency_s =
  with_lock t (fun () ->
      let key = (verb, outcome_to_string outcome) in
      (match Hashtbl.find_opt t.counters key with
      | Some r -> incr r
      | None -> Hashtbl.add t.counters key (ref 1));
      t.requests_total <- t.requests_total + 1;
      (match outcome with
      | Cancelled -> t.cancelled_total <- t.cancelled_total + 1
      | Degraded -> t.degraded_total <- t.degraded_total + 1
      | Ok | Error | Busy | Timeout -> ());
      Histogram.observe t.latency latency_s)

let connection_opened t =
  with_lock t (fun () ->
      t.connections_active <- t.connections_active + 1;
      t.connections_total <- t.connections_total + 1)

let connection_closed t =
  with_lock t (fun () -> t.connections_active <- t.connections_active - 1)

let batch_committed t ~retract =
  with_lock t (fun () ->
      if retract then t.retracts_total <- t.retracts_total + 1
      else t.asserts_total <- t.asserts_total + 1)

let subscription_opened t =
  with_lock t (fun () ->
      t.subscriptions_active <- t.subscriptions_active + 1)

let subscription_closed t =
  with_lock t (fun () ->
      t.subscriptions_active <- t.subscriptions_active - 1)

let delta_pushed t =
  with_lock t (fun () -> t.deltas_pushed <- t.deltas_pushed + 1)

let demand_query t =
  with_lock t (fun () ->
      t.demand_queries_total <- t.demand_queries_total + 1)

let demand_fallback t =
  with_lock t (fun () ->
      t.demand_fallbacks_total <- t.demand_fallbacks_total + 1)

let read_locked t =
  with_lock t (fun () -> t.reads_locked_total <- t.reads_locked_total + 1)

type snapshot = {
  uptime_s : float;
  connections_active : int;
  connections_total : int;
  requests_total : int;
  cancelled_total : int;
  degraded_total : int;
  by_verb_outcome : (string * string * int) list;
  asserts_total : int;
  retracts_total : int;
  subscriptions_active : int;
  deltas_pushed : int;
  demand_queries_total : int;
  demand_fallbacks_total : int;
  reads_locked_total : int;
  latency_count : int;
  latency_min_s : float;
  latency_mean_s : float;
  latency_max_s : float;
  latency_p50_s : float;
  latency_p99_s : float;
  latency_buckets : (int * int) list;
}

let snapshot t =
  with_lock t (fun () ->
      {
        uptime_s = Unix.gettimeofday () -. t.started_at;
        connections_active = t.connections_active;
        connections_total = t.connections_total;
        requests_total = t.requests_total;
        cancelled_total = t.cancelled_total;
        degraded_total = t.degraded_total;
        by_verb_outcome =
          Hashtbl.fold
            (fun (v, o) r acc -> (v, o, !r) :: acc)
            t.counters []
          |> List.sort compare;
        asserts_total = t.asserts_total;
        retracts_total = t.retracts_total;
        subscriptions_active = t.subscriptions_active;
        deltas_pushed = t.deltas_pushed;
        demand_queries_total = t.demand_queries_total;
        demand_fallbacks_total = t.demand_fallbacks_total;
        reads_locked_total = t.reads_locked_total;
        latency_count = Histogram.count t.latency;
        latency_min_s = Histogram.min_s t.latency;
        latency_mean_s = Histogram.mean_s t.latency;
        latency_max_s = Histogram.max_s t.latency;
        latency_p50_s = Histogram.percentile t.latency 0.5;
        latency_p99_s = Histogram.percentile t.latency 0.99;
        latency_buckets = Histogram.buckets t.latency;
      })

let us s = int_of_float (ceil (s *. 1e6))

let render ?cache ?(injected_faults = 0) ?(magic_facts = 0)
    ?(regex_plans = 0) ?(product_states = 0) ?durable snap ~store =
  let { Oodb.Store.objects; isa_edges; scalar_tuples; set_tuples } = store in
  [
    Printf.sprintf "uptime_s %.3f" snap.uptime_s;
    Printf.sprintf "connections_active %d" snap.connections_active;
    Printf.sprintf "connections_total %d" snap.connections_total;
    Printf.sprintf "requests_total %d" snap.requests_total;
    Printf.sprintf "cancelled_total %d" snap.cancelled_total;
    Printf.sprintf "degraded_total %d" snap.degraded_total;
    Printf.sprintf "injected_faults %d" injected_faults;
    Printf.sprintf "asserts_total %d" snap.asserts_total;
    Printf.sprintf "retracts_total %d" snap.retracts_total;
    Printf.sprintf "subscriptions_active %d" snap.subscriptions_active;
    Printf.sprintf "deltas_pushed %d" snap.deltas_pushed;
    Printf.sprintf "demand_queries_total %d" snap.demand_queries_total;
    Printf.sprintf "demand_fallbacks_total %d" snap.demand_fallbacks_total;
    Printf.sprintf "reads_locked_total %d" snap.reads_locked_total;
    Printf.sprintf "magic_facts %d" magic_facts;
    Printf.sprintf "regex_plans_total %d" regex_plans;
    Printf.sprintf "product_states_expanded %d" product_states;
  ]
  @ List.map
      (fun (v, o, n) -> Printf.sprintf "requests %s %s %d" v o n)
      snap.by_verb_outcome
  @ [
      Printf.sprintf "latency_count %d" snap.latency_count;
      Printf.sprintf "latency_min_us %d" (us snap.latency_min_s);
      Printf.sprintf "latency_mean_us %d" (us snap.latency_mean_s);
      Printf.sprintf "latency_max_us %d" (us snap.latency_max_s);
      Printf.sprintf "latency_p50_us %d" (us snap.latency_p50_s);
      Printf.sprintf "latency_p99_us %d" (us snap.latency_p99_s);
    ]
  @ List.map
      (fun (bound, n) ->
        if bound = max_int then Printf.sprintf "latency_le inf %d" n
        else Printf.sprintf "latency_le %dus %d" bound n)
      snap.latency_buckets
  @ [
      Printf.sprintf "store_objects %d" objects;
      Printf.sprintf "store_isa_edges %d" isa_edges;
      Printf.sprintf "store_scalar_tuples %d" scalar_tuples;
      Printf.sprintf "store_set_tuples %d" set_tuples;
    ]
  @ (match cache with
    | None -> []
    | Some (hits, misses, entries) ->
      [
        Printf.sprintf "cache_hits %d" hits;
        Printf.sprintf "cache_misses %d" misses;
        Printf.sprintf "cache_entries %d" entries;
      ])
  @
  match durable with
  | None -> []
  | Some (appends, bytes, snapshots, recovery_ms) ->
    [
      Printf.sprintf "wal_appends_total %d" appends;
      Printf.sprintf "wal_bytes %d" bytes;
      Printf.sprintf "snapshots_total %d" snapshots;
      Printf.sprintf "last_recovery_ms %.3f" recovery_ms;
    ]
