(** Server-side query result cache, keyed by (request key, epoch), where
    the epoch is the version of the model a reply answers. The server
    passes its model version: it keys the cache by the model, not by the
    store.

    The server's model version changes exactly when the minimal model
    may change: a committed mutation batch, or a run that leaves the
    model degraded. Materialising more of the same model (a demand first
    sight, a fallback to full materialisation) does not change it: a
    cached answer was computed over its query's complete demanded
    fragment, which answers exactly as the full model does, and further
    materialisation only adds facts of that model. So a reply computed
    at version [v] stays valid as long as the server still reports [v]
    — no invalidation protocol is needed, stale entries are simply
    unreachable and dropped lazily when the same request key is seen
    again at a newer version. Only successful replies are worth caching;
    the caller decides what to add.

    An entry holds the exact bytes the wire sends for its reply (the
    [OK n] header and the payload lines), so a hit is written out as it
    is, with no rendering. The cache is bounded by bytes: an entry
    weighs its key, its frame and a fixed {!entry_overhead}.

    All operations take one internal lock and are safe to call from
    concurrent session threads or domains. *)

type t

(** The bytes an entry costs beside its key and frame: 128, the entry
    record, its hash bucket, its clock slot and two string headers. *)
val entry_overhead : int

(** [create ~capacity] bounds the total weight of the live entries by
    [capacity] bytes. An add that does not fit evicts entries by CLOCK
    (second chance) until it does: a hit only sets the entry's reference
    bit, and the hand, sweeping the entries in slot order, clears set
    bits and evicts entries not hit since it last passed. So the hit
    path does no list relinking, and entries hit again and again stay
    cached while one-off requests cycle out. Nothing is allocated in
    proportion to [capacity]: the clock grows with the entries.
    @raise Invalid_argument if [capacity < 1] *)
val create : capacity:int -> t

(** [find_frame t ~epoch key] returns the frame cached for [key] at
    exactly [epoch], counting a hit or a miss. An entry from another
    epoch is dropped on the way (and counted stale). *)
val find_frame : t -> epoch:int -> string -> string option

(** [add_frame t ~epoch key frame] records [frame] as the answer to [key]
    at [epoch], replacing what [key] held, and evicts until the total
    weight fits the budget. A frame weighing more than an eighth of the
    budget is never cached (and [key]'s older frame is dropped). *)
val add_frame : t -> epoch:int -> string -> string -> unit

(** {!find_frame} reading the frame back as [Ok] payload lines, and
    {!add_frame} of [Protocol.render_reply reply]. Only [Ok] replies may
    be added. The server uses the frame pair; these two are kept for
    [perfbench/replay.ml] until the next change to the benchmark, which
    can call the server's handlers instead. *)
val find : t -> epoch:int -> string -> Protocol.reply option

val add : t -> epoch:int -> string -> Protocol.reply -> unit

(** [bytes] is the total weight of the live entries; [evictions] counts
    entries dropped to make room, [stale] the entries {!find_frame}
    dropped because their epoch moved: capacity misses against
    invalidation misses. *)
type stats = {
  hits : int;
  misses : int;
  entries : int;
  bytes : int;
  evictions : int;
  stale : int;
}

val stats : t -> stats
