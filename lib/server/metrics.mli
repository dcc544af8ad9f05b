(** The server's metrics registry: the payload of a [STATS] reply.

    Every STATS key is registered by the subsystem that owns it, and
    {!render} prints the entries in registration order. An entry is
    either a {e counter}, an [int Atomic.t] that its owner bumps
    lock-free on its own path, or a {e readout}, a function called at
    render time that returns [(key, value)] lines read off state the
    owner already keeps. Adding a STATS key is one registration in its
    owner; this module names no other subsystem.

    The registry also keeps what every request feeds: {!record}'s
    [requests VERB OUTCOME] table and latency histogram, under one
    internal lock. They print through the readouts {!uptime},
    {!request_totals} and {!request_table}, which the owner registers
    where it wants them. *)

type t

type outcome = Ok | Degraded | Error | Busy | Timeout | Cancelled

(** An empty registry; the uptime clock starts now. *)
val create : unit -> t

(** [counter t key a] registers [a], rendered as [key n].
    @raise Invalid_argument if [key] is already registered *)
val counter : t -> string -> int Atomic.t -> unit

(** [readout t name f] registers [f]; every render calls it and prints
    each [(key, value)] it returns as [key value]. [name] identifies the
    entry, not a key.
    @raise Invalid_argument if [name] is already registered *)
val readout : t -> string -> (unit -> (string * string) list) -> unit

(** Count one finished request and fold its wall-clock latency into the
    histogram. *)
val record : t -> verb:string -> outcome:outcome -> latency_s:float -> unit

(** [uptime_s]: seconds since {!create}. *)
val uptime : t -> unit -> (string * string) list

(** [requests_total], [cancelled_total] (requests that ended
    [ERR CANCELLED]) and [degraded_total] (requests answered from a
    partial model), summed over {!record}'s table. *)
val request_totals : t -> unit -> (string * string) list

(** The [requests VERB OUTCOME] counts, sorted, then the latency summary
    ([latency_count], [latency_{min,mean,max,p50,p99}_us]) and the
    non-empty [latency_le BOUND] buckets. *)
val request_table : t -> unit -> (string * string) list

(** Every entry's lines, in registration order. *)
val render : t -> string list
