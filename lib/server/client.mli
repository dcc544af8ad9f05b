(** A blocking client for the PathLog query server — the other end of
    {!Protocol}. One request in flight per connection; not thread-safe
    (give each thread its own connection, as the bench load generator
    does). The first [connect] ignores [SIGPIPE] process-wide so a dead
    peer surfaces as an error, not a crash. *)

type t

(** Connect (retrying [EINTR]), or raise [Unix.Unix_error] if the server
    is not there. *)
val connect : Server.address -> t

val close : t -> unit

(** Send one raw request line and read the reply frame. No retry. *)
val request :
  t -> string -> (Protocol.reply, [ `Eof | `Malformed of string ]) result

(** Like {!request}, but a [BUSY] reply is retried up to [max_attempts]
    times with jittered exponential backoff. Each sleep is at least the
    server's retry-after hint and at least
    [base_delay_s * 2 ^ (attempt - 1)], capped at [max_delay_s], then
    scaled by a seeded multiplier in [0.5, 1.5) so concurrent rejected
    clients decorrelate. Errors and transport failures are returned
    immediately; a still-[BUSY] reply after the last attempt is returned
    as such. *)
val request_with_retry :
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?seed:int ->
  t ->
  string ->
  (Protocol.reply, [ `Eof | `Malformed of string ]) result

(** [PING] round-trip; [false] on any non-[PONG] outcome. *)
val ping : t -> bool

(** A counted payload plus whether the server marked it [DEGRADED]
    (sound answers over a budget-terminated partial model). *)
type payload_result = {
  lines : string list;
  degraded : bool;
}

(** [QUERY q]: payload lines on success ([["yes"]] / [["no"]] for ground
    queries, otherwise a tab-separated header line followed by rows).
    [BUSY] is retried with backoff ({!request_with_retry} defaults);
    [Error _] carries a one-line description of ERR/BUSY/transport
    failures. A [DEGRADED] payload is accepted transparently — use
    {!query_marked} to observe the marker. *)
val query : t -> string -> (string list, string) result

(** Like {!query}, keeping the [DEGRADED] marker. *)
val query_marked : t -> string -> (payload_result, string) result

(** [WHY f]: the proof-tree lines. *)
val why : t -> string -> (string list, string) result

(** [STATS]: the [key value] lines. *)
val stats : t -> (string list, string) result

(** The server's summary of a committed mutation batch. *)
type mutation_result = {
  epoch : int;  (** store epoch after the commit *)
  strategy : string;
      (** "counting", "dred" (a retraction deleted a derived fact) or
          "recompute" *)
  added : int;  (** net model facts added *)
  removed : int;  (** net model facts removed *)
}

(** [ASSERT <batch>]: submit facts/rules for incremental addition.
    Multi-line batch text is folded onto the single request line (the
    statement syntax does not need the newlines). [Error _] carries a
    one-line description — including [ANALYSIS: ...] when the batch was
    rejected by the static-analysis gate and [BADREQ: ...] when it was
    refused (conflict, unknown rule, non-extensional retraction). *)
val assert_facts : t -> string -> (mutation_result, string) result

(** [RETRACT <batch>]: submit facts/rules for incremental removal. *)
val retract_facts : t -> string -> (mutation_result, string) result

type subscription = {
  sub_id : int;  (** identifies this subscription's DELTA frames *)
  baseline : string list;  (** the answer set at registration, sorted *)
}

(** [SUBSCRIBE <query>]: register a standing query. After every committed
    ASSERT/RETRACT batch that changes its answer set, the server pushes a
    [DELTA] frame; read them with {!next_delta}. *)
val subscribe : t -> string -> (subscription, string) result

(** The next pushed [DELTA]: first from the queue of frames that arrived
    interleaved with earlier replies, then from the wire. With
    [timeout_s], waits at most that long for the socket to become
    readable and returns [None] on expiry; without it, blocks until a
    frame (or EOF, returning [None]) arrives. *)
val next_delta : ?timeout_s:float -> t -> Protocol.delta option
