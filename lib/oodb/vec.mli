(** Growable arrays with stable indices.

    Method buckets in the store are append-only: the fixpoint engine
    remembers watermark indices into them to obtain semi-naive deltas, so
    elements are never moved once pushed. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a

val push : 'a t -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit

(** [iter_from f v i] applies [f] to elements [i], [i+1], ... in order;
    used to scan a semi-naive delta suffix. *)
val iter_from : ('a -> unit) -> 'a t -> int -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val clear : 'a t -> unit

(** [truncate v n] drops the elements from index [n] on. *)
val truncate : 'a t -> int -> unit

(** [seal v] makes [v] permanently immutable: any later [push] or [clear]
    raises [Invalid_argument]. Used for the shared empty bucket the store
    hands out for missing methods, so an accidental write fails loudly
    instead of corrupting unrelated lookups. *)
val seal : 'a t -> 'a t
