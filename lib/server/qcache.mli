(** Server-side query result cache, keyed by (request text, store epoch).

    The store's epoch ({!Oodb.Store.epoch}) changes exactly when a fact is
    inserted, so a reply computed at epoch [e] stays valid as long as the
    store still reports [e] — no invalidation protocol is needed, stale
    entries are simply unreachable and evicted lazily when the same
    request text is seen again at a newer epoch. Only successful replies
    are worth caching; the caller decides what to [store].

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
    exactly [epoch], counting a hit or a miss. An entry from an older
    epoch is removed on the way. *)
val find : t -> epoch:int -> string -> Protocol.reply option

(** [add t ~epoch key reply] records [reply] as the answer to [key] at
    [epoch], replacing what [key] held; a new key evicts one entry if the
    cache is full. *)
val add : t -> epoch:int -> string -> Protocol.reply -> unit

(** [evictions] counts entries dropped to make room; a stale entry that
    {!find} removes is not one. *)
type stats = { hits : int; misses : int; entries : int; evictions : int }

val stats : t -> stats
