(** Object identities.

    Every element of the universe — named objects, integers, strings,
    classes, methods and skolem (virtual) objects alike — is referred to by a
    dense integer id allocated by {!Universe}. Classes and methods are
    ordinary objects, exactly as in the paper (section 3). *)

type t = int

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t

module Map : Map.S with type key = t


(** Int-keyed tables under a mixing hash: object ids, and keys that pack
    two ints into one (the store's (method, object) indexes, plan keys,
    product-automaton states). *)
module Tbl : Hashtbl.S with type key = int
