(** Bounded request evaluation with explicit admission control.

    At most [workers] requests are evaluated at once and at most
    [capacity] more wait for a turn; beyond that {!run} refuses at once
    instead of queueing unboundedly — the caller turns that refusal into
    a [BUSY] reply, which is the server's load-shedding contract: memory
    use is bounded by [capacity] regardless of offered load.

    {!shutdown} drains gracefully: no new admissions, every request
    already running or waiting still runs, then the call returns. *)

type t

(** [Threads] spawns nothing: {!run} evaluates in the calling thread once
    it holds one of [workers] slots (a counting gate, FIFO among waiters)
    — right for the default, where every thread shares the OCaml runtime
    lock and a handoff to a worker thread would buy no parallelism.
    [Domains] hands each request to one of [workers] domain workers and
    parks the caller until the result is back — right when query
    evaluation itself is the bottleneck and the read path takes no store
    lock. *)
type backend = Threads | Domains

(** [create ~workers ~capacity ()] admits at most [workers] running and
    [capacity] waiting requests (requests being evaluated do not count
    against [capacity]). [Domains] spawns [workers] domains.
    @raise Invalid_argument if [workers < 1] or [capacity < 0] *)
val create : ?backend:backend -> workers:int -> capacity:int -> unit -> t

(** [run t f] admits [f] and returns [Some (f ())] once it has run, or
    refuses with [None] (shed) when [workers + capacity] requests are
    already running or waiting, or the pool is shutting down. Blocks
    while waiting for a turn and while [f] runs. An exception raised by
    [f] is re-raised in the caller. *)
val run : t -> (unit -> 'a) -> 'a option

val workers : t -> int

val capacity : t -> int

(** Graceful drain: refuse new requests, wait until every request already
    running or waiting has finished, join the domain workers. Idempotent;
    safe to call from any thread except one inside {!run}. *)
val shutdown : t -> unit
