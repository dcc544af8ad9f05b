(** Server-side query result cache, keyed by (request text, epoch), where
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
    unreachable and dropped lazily when the same request text is seen
    again at a newer version. Only successful replies are worth caching;
    the caller decides what to {!add}.

    All operations take one internal lock and are safe to call from
    concurrent session threads or domains. *)

type t

(** [create ~capacity] bounds the number of live entries. At capacity an
    [add] evicts one entry by CLOCK (second chance): a hit only sets the
    entry's reference bit, and the hand, sweeping the entries in slot
    order, clears set bits and evicts the first entry not hit since it
    last passed. So the hit path does no list relinking, and entries hit
    again and again stay cached while one-off requests cycle out.
    @raise Invalid_argument if [capacity < 1] *)
val create : capacity:int -> t

(** [find t ~epoch key] returns the cached reply computed for [key] at
    exactly [epoch], counting a hit or a miss. An entry from another
    epoch is dropped on the way (and counted stale). *)
val find : t -> epoch:int -> string -> Protocol.reply option

(** [add t ~epoch key reply] records [reply] as the answer to [key] at
    [epoch], replacing what [key] held; a new key evicts one entry if the
    cache is full. *)
val add : t -> epoch:int -> string -> Protocol.reply -> unit

(** [evictions] counts entries dropped to make room, [stale] the entries
    {!find} dropped because their epoch moved: capacity misses against
    invalidation misses. *)
type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  stale : int;
}

val stats : t -> stats
