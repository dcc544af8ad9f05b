(** A long-running concurrent query server over one materialised
    {!Engine.Program}.

    The program is loaded and evaluated once; after that [QUERY] and
    [WHY] are read-only with respect to the model — queries only
    {e intern} new constants appearing in query text into the universe,
    they never add isa edges or method tuples. The server asserts this
    around every read: a request that moves the store epoch while no
    writer ran is answered with [ERR INTERNAL] and never cached, instead
    of silently corrupting the model.

    Architecture: one accept thread and one lightweight session thread
    per connection (blocking reads). [PING]/[STATS]/[QUIT] are answered
    inline by the session thread so health checks and metrics stay
    responsive under full load. [QUERY]/[WHY] pass a {!Pool} admission
    gate: at most [workers] evaluations run at once, in the session's own
    thread (with [pool_domains], on one of [workers] domains), at most
    [queue_capacity] more wait for a turn, and the rest are shed with
    [BUSY].

    Reads are validated optimistic reads. Writers (ASSERT/RETRACT
    through [Live], SUBSCRIBE, demand first sights, recovery) hold the
    store lock and bump a seqlock around it. A read runs without the lock
    and stands only if no writer held the store at any point of the run;
    otherwise it runs once more under the lock. Every answer is therefore
    the model after some committed batch: a read that overlaps a batch
    waits for it instead of seeing a half-maintained model or a
    half-resized index ([reads_locked_total] in [STATS] counts these
    re-runs). Reads that overlap no write — all of them on a read-only
    load — take no lock, so with [pool_domains] the evaluations run on
    {!Domain}s and CPU-bound query loads scale across cores. Successful
    [QUERY] replies land in a result cache keyed by the model version
    ({!Qcache}): a repeated query over an unchanged model is answered
    without evaluation. A committed ASSERT/RETRACT batch, or a run that
    leaves the model degraded, moves the version and invalidates
    wholesale; materialisation does not, since a demand answer equals the
    full model's and materialising only adds facts of that model, so a
    demand first sight leaves every cached answer valid (counters in
    [STATS]).

    Failure model: each gated request evaluates under an
    {!Engine.Budget} combining the remaining per-request deadline with a
    server-wide cancellation token set at shutdown, so runaway
    evaluations end in [ERR TIMEOUT] / [ERR CANCELLED] instead of
    holding their slots. Answers computed over a budget-degraded (partial)
    model are marked [DEGRADED] rather than [OK]. When the {!Fault}
    registry is armed, the server exercises its wire-read, wire-write
    and pool-dispatch injection points: injected wire failures tear down
    the one session, injected dispatch failures shed the one request
    with [BUSY] — the server itself never crashes.

    Shutdown ({!shutdown}, or SIGINT/SIGTERM after
    {!install_signal_handlers}) drains gracefully: stop accepting (the
    stop request wakes the accept loop through a self-pipe, so no poll
    delays it), cancel in-flight evaluations via the shared token, finish every
    admitted request, push out the replies, then close all sockets and
    join all threads. A connection made after the stop, before the
    listening socket closes, is answered [BUSY] ("shutting down") and
    closed. *)

type address =
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)
  | Unix_path of string  (** path of a unix-domain socket *)

val pp_address : Format.formatter -> address -> unit

type config = {
  workers : int;
      (** at most this many [QUERY]/[WHY] evaluations run at once (in
          their session threads, or on this many domains with
          [pool_domains]) *)
  queue_capacity : int;
      (** requests that may wait for an evaluation slot; beyond it:
          [BUSY] *)
  max_request_bytes : int;  (** request-line limit; beyond it: [TOOLARGE] *)
  deadline_s : float option;
      (** per-request deadline, measured from admission. Enforced twice:
          a request that gets its evaluation slot after its deadline is
          answered
          [ERR TIMEOUT] without being evaluated, and a request whose
          evaluation is still running at the deadline is killed
          cooperatively mid-enumeration (the remaining time becomes an
          {!Engine.Budget} polled from the solver) and answered
          [ERR TIMEOUT] as well *)
  busy_retry_after_ms : int;
      (** the retry-after hint carried by every [BUSY] reply (queue full,
          injected dispatch fault); clients back off at least this long *)
  work_delay_s : float;
      (** artificial service time added under the slot before evaluation;
          0 in production — tests and the load generator use it to make
          saturation and deadline behaviour deterministic *)
  pool_domains : bool;
      (** evaluate on [workers] {!Domain}s instead of the session
          threads: parallel query evaluation on the validated lock-free
          read path, at the cost of a handoff per request. Off by default
          — domains are a scarce resource. *)
  cache_capacity : int;
      (** entry bound of the query result cache, keyed by the model
          version *)
  demand : bool;
      (** demand-driven evaluation: serve from a program that was parsed
          but {e not} materialised. The first sight of each query runs
          the magic-sets transform ({!Engine.Demand}) under the store
          write lock and fixpoints only the demanded fragment; repeats
          and other queries over the grown store take the ordinary
          validated read path. When the transform is unsound for the
          program (negation, inclusion strata, hilog) — or on the first
          [ASSERT]/[RETRACT], whose incremental maintenance is defined
          against the full model, so attaching [Live] runs it — the
          program is materialised once ([demand_fallbacks_total] in
          [STATS] counts these). From then on the program knows it holds
          the full model ({!Engine.Program.materialised}): every query
          takes the read path and the server behaves as without this
          flag. Off by default. *)
  admit_cost : int option;
      (** admission control by predicted cost: when set, the program is
          abstractly interpreted once at server creation
          ({!Pathlog_analysis.Absint}), and every [QUERY] whose
          statically predicted derivation count (evaluated at the
          current universe size) exceeds the bound is refused with
          [ERR COST <estimate>] {e before} it reaches the admission gate or
          the engine. Composes with [deadline_s]: admission refuses work
          that is predictably too large, budgets stop work that turns
          out too large. [None] (default) admits everything. *)
  data_dir : string option;
      (** durability: when set, the server keeps a write-ahead log and
          epoch snapshots under this directory ({!Durable}). Every
          accepted [ASSERT]/[RETRACT] batch is appended and fsync'd
          {e before} the client sees [OK], and startup recovers the
          state a previous process had acknowledged: load the newest
          valid snapshot (its source re-validated by the static-analysis
          gate), replay the WAL suffix beyond it, truncate any torn
          tail. While the suffix replays, mutating and querying requests
          are shed with [BUSY] plus the retry-after hint —
          [PING]/[STATS]/[QUIT] stay answered. [None] (default): fully
          in-memory, as before. *)
  snapshot_every : int;
      (** cut a snapshot every this many committed batches (at the epoch
          boundary, while the store is quiescent under the write lock);
          [0] disables periodic snapshots. Only meaningful with
          [data_dir]. *)
  recovery_delay_s : float;
      (** artificial delay at the start of WAL replay; 0 in production —
          tests use it to observe the [BUSY]-while-recovering window
          deterministically *)
}

val default_config : config

type t

(** Bind, listen, and start the accept thread. The listening socket is
    ready (and for [Tcp _ 0] the real port is known) when [create]
    returns. With [data_dir] set, recovery runs {e behind} the socket:
    the newest valid snapshot has replaced the program when [create]
    returns, and a background thread replays the WAL suffix while
    sessions shed requests with [BUSY] (see {!recovering}).
    @raise Unix.Unix_error if the address cannot be bound
    @raise Failure if a recovered snapshot fails the static-analysis
    gate *)
val create : ?config:config -> program:Engine.Program.t -> address -> t

(** Is startup recovery still replaying the WAL suffix? Requests other
    than [PING]/[STATS]/[QUIT] are answered [BUSY] until this clears.
    Always [false] without [data_dir]. *)
val recovering : t -> bool

(** Block (polling) until {!recovering} is false — test and embedding
    convenience; network clients get the same effect from
    {!Client.request_with_retry} backing off on [BUSY]. *)
val await_ready : t -> unit

(** The bound address, with the actual port filled in. *)
val address : t -> address

val config : t -> config

(** Query-result cache counters (also rendered into [STATS]). *)
val cache_stats : t -> Qcache.stats

(** Ask the server to stop. Cheap and async-signal-safe in spirit: sets a
    flag and wakes the accept loop; does not block, does not join.
    {!serve} / {!shutdown} complete the drain. *)
val request_stop : t -> unit

(** Graceful drain: {!request_stop}, finish admitted requests, answer
    the connections still in the listen backlog with [BUSY], close every
    socket, join every thread, unlink the unix socket path if any.
    Idempotent. *)
val shutdown : t -> unit

(** Route SIGINT and SIGTERM to {!request_stop} on this server. *)
val install_signal_handlers : t -> unit

(** [serve t] blocks until {!request_stop} (e.g. from a signal handler),
    then runs {!shutdown} — the body of [pathlog serve]. A signal is
    handled within 0.2 s whichever thread it interrupts. *)
val serve : t -> unit
