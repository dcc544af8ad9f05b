(** Live server metrics: request counters by verb and outcome, a latency
    histogram, and connection gauges. All operations are thread-safe (one
    internal lock) and cheap enough to sit on the request path. *)

type t

type outcome = Ok | Degraded | Error | Busy | Timeout | Cancelled

val outcome_to_string : outcome -> string

val create : unit -> t

(** Count one finished request and fold its wall-clock latency into the
    histogram. *)
val record : t -> verb:string -> outcome:outcome -> latency_s:float -> unit

val connection_opened : t -> unit

val connection_closed : t -> unit

(** Count one committed mutation batch ([retract] selects the counter). *)
val batch_committed : t -> retract:bool -> unit

val subscription_opened : t -> unit

val subscription_closed : t -> unit

(** Count one [DELTA] frame flushed to a subscriber. *)
val delta_pushed : t -> unit

(** Count one QUERY answered through the demand-driven (magic-sets)
    path. *)
val demand_query : t -> unit

(** Count one request where the demand transform declined (negation,
    inclusion, hilog, or a mutation) and full materialisation ran. *)
val demand_fallback : t -> unit

(** Count one read (QUERY, WHY, or STATS's store counts) whose lock-free
    attempt overlapped a write and re-ran under the store lock. *)
val read_locked : t -> unit

type snapshot = {
  uptime_s : float;
  connections_active : int;
  connections_total : int;
  requests_total : int;
  cancelled_total : int;  (** requests that ended [ERR CANCELLED] *)
  degraded_total : int;  (** requests answered from a partial model *)
  by_verb_outcome : (string * string * int) list;
      (** (verb, outcome, count), sorted *)
  asserts_total : int;  (** committed ASSERT batches *)
  retracts_total : int;  (** committed RETRACT batches *)
  subscriptions_active : int;  (** live standing queries *)
  deltas_pushed : int;  (** DELTA frames flushed to subscribers *)
  demand_queries_total : int;  (** QUERYs answered demand-driven *)
  demand_fallbacks_total : int;
      (** demand transforms that declined to full materialisation *)
  reads_locked_total : int;
      (** reads that overlapped a write and re-ran under the store lock *)
  latency_count : int;
  latency_min_s : float;
  latency_mean_s : float;
  latency_max_s : float;
  latency_p50_s : float;
  latency_p99_s : float;
  latency_buckets : (int * int) list;  (** (upper_bound_us, count) *)
}

val snapshot : t -> snapshot

(** Render a snapshot plus the store statistics as [key value] lines —
    the payload of a [STATS] reply. [cache] adds the query-cache
    counters [(hits, misses, entries)]; [injected_faults] is the fault
    registry's running injection count (0 when disarmed); [magic_facts]
    is the store's live magic-tuple count (0 outside demand mode);
    [regex_plans] and [product_states] are the process-wide regular-path
    counters (automata compiled, (object, state) pairs popped by the
    product join — {!Semantics.Solve.regex_plans_total} and
    {!Semantics.Solve.product_states_expanded}); [durable] adds the
    write-ahead-log counters
    [(wal_appends_total, wal_bytes, snapshots_total, last_recovery_ms)]
    when the server runs with a data directory. *)
val render :
  ?cache:int * int * int -> ?injected_faults:int -> ?magic_facts:int ->
  ?regex_plans:int -> ?product_states:int ->
  ?durable:int * int * int * float ->
  snapshot -> store:Oodb.Store.stats -> string list
