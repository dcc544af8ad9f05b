(** The extensional (and, during evaluation, intensional) state of a
    semantic structure [I = (U, <=_U, I_N, I_->, I_->>)].

    The paper (section 3) folds classes and methods into the universe of
    objects and keeps a single partial order [<=_U] relating objects to
    classes; we store its generating edges and answer queries through the
    transitive closure. [I_->] and [I_->>] interpret scalar and set-valued
    methods with [k-1 >= 0] extra arguments.

    All method buckets are append-only ({!Vec}), so the fixpoint engine can
    take watermarks and scan only the delta suffixes (semi-naive
    evaluation). Removal never shrinks a bucket: it tombstones the shared
    index record by stamping {!field-mentry.dead}, keeping every watermark
    valid (see {!remove_scalar}). *)

type t

(** What a record says about how its tuple got into the store. The store
    only writes [Unrecorded]: on a fresh record, and when it tombstones
    one, so a dead record pins nothing. The engine's provenance extends
    the type with its sources and writes them into live records. *)
type why = ..

type why += Unrecorded

(** [dead] is [max_int] while the tuple is live; a removal stamps it with
    the epoch the removal produced. The same record is shared between the
    method bucket, the inverse index and the receiver index (and, for a
    scalar tuple, the lookup table), so a tuple is one record wherever it
    is found. [why] is the tuple's recorded source. *)
type mentry = {
  recv : Obj_id.t;
  args : Obj_id.t list;
  res : Obj_id.t;
  mutable dead : int;
  mutable why : why;
}

(** An isa edge in the append-only log, tombstoned the same way; its
    object's list of direct edges ({!isa_parents}) shares the record. *)
type ientry = {
  i_sub : Obj_id.t;
  i_cls : Obj_id.t;
  mutable i_dead : int;
  mutable i_why : why;
}

val live : mentry -> bool

val isa_live : ientry -> bool

type scalar_insert = Added | Duplicate | Conflict of Obj_id.t
type set_insert = SAdded | SDuplicate
type isa_insert = IAdded | IDuplicate | ICycle

val create : unit -> t

val universe : t -> Universe.t

(** Shorthands for interning through the store's universe. *)

val name : t -> string -> Obj_id.t

val int : t -> int -> Obj_id.t

val str : t -> string -> Obj_id.t

(** [pack a b] is the pair of two non-negative ints below [2^31] as one
    immediate int ([a] in the high half): the key of the store's
    (method, object) indexes, for an {!Obj_id.Tbl}. *)
val pack : int -> int -> int

(** The built-in method [self], interned on the first call and cached:
    what [name st "self"] returns, without the universe's lock. *)
val self_id : t -> Obj_id.t

(** {!Universe.scoped} on the store's universe (and its cached
    {!self_id}). *)
val scoped : t -> (unit -> 'a) -> 'a

(** {1 Class hierarchy / membership}

    One relation, as in the paper: [o : c] and [c :: c'] both assert an edge
    of the partial order [<=_U]. Queries go through the transitive closure,
    implemented {e strictly}: an object is not a member of itself, neither
    for tests nor for enumeration (the reflexive pairs of the formal
    partial order carry no information). Inserting an edge that would
    close a cycle is rejected ([ICycle]) to preserve antisymmetry. *)

val add_isa : t -> Obj_id.t -> Obj_id.t -> isa_insert

(** Membership test through the transitive closure, plus the built-in value
    classes: every integer value-object is a member of the class named
    [integer] and every string value-object of [string]. Built-in
    memberships hold for tests but are not enumerated by {!members} (the
    extensions are infinite in spirit). *)
val is_member : t -> Obj_id.t -> Obj_id.t -> bool

(** All strict ancestors of [o] (classes it belongs to, transitively). *)
val classes_of : t -> Obj_id.t -> Obj_id.Set.t

(** All strict descendants of [c] (its members, transitively). *)
val members : t -> Obj_id.t -> Obj_id.Set.t

(** Is [o : c] a live direct edge (not a membership through the closure)? *)
val has_isa : t -> Obj_id.t -> Obj_id.t -> bool

(** The live direct edges [o : c] of [o], newest first. O(1). *)
val isa_parents : t -> Obj_id.t -> ientry list

(** The record of the live direct edge [o : c], found among
    {!isa_parents}. *)
val isa_entry : t -> Obj_id.t -> Obj_id.t -> ientry option

(** Append-only log of directly asserted [o : c] edges, including
    tombstoned ones — filter with {!isa_live}. *)
val isa_log : t -> ientry Vec.t

(** Objects that appear as the target of an isa edge, i.e. in class
    position; used to enumerate candidate classes. *)
val known_classes : t -> Obj_id.t list

(** {1 Scalar methods [I_->]} *)

val add_scalar :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> res:Obj_id.t ->
  scalar_insert

val scalar_lookup :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> Obj_id.t option

(** The live record of [recv.meth@(args)], whatever its result. O(1). *)
val scalar_entry :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> mentry option

(** All tuples of a given method, in insertion order. *)
val scalar_bucket : t -> Obj_id.t -> mentry Vec.t

(** Tuples of [meth] whose result is [res] (inverse navigation). *)
val scalar_inverse : t -> meth:Obj_id.t -> res:Obj_id.t -> mentry Vec.t

(** Tuples of [meth] on receiver [recv] (any arguments); the bound-receiver
    secondary index, so such lookups never scan the whole method bucket. *)
val scalar_recv_index : t -> meth:Obj_id.t -> recv:Obj_id.t -> mentry Vec.t

(** Number of distinct receivers with at least one [meth] tuple; the
    planner's selectivity estimate for bound-receiver access. *)
val scalar_recv_keys : t -> Obj_id.t -> int

(** Number of distinct results with at least one [meth] tuple (the key
    count of the inverse index); the planner's selectivity estimate for
    bound-result access. *)
val scalar_res_keys : t -> Obj_id.t -> int

(** Methods that have at least one scalar tuple. *)
val scalar_meths : t -> Obj_id.t list

(** {1 Set-valued methods [I_->>]} *)

val add_set :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> res:Obj_id.t ->
  set_insert

val set_lookup :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> Obj_id.Set.t

(** The live record of the member [res] of [recv..meth@(args)]: a
    newest-first search of the shorter of its receiver's and its result's
    index, so the record a tuple's insertion just appended is found at
    the first probe. *)
val set_entry :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> res:Obj_id.t ->
  mentry option

val set_bucket : t -> Obj_id.t -> mentry Vec.t

val set_inverse : t -> meth:Obj_id.t -> res:Obj_id.t -> mentry Vec.t

val set_recv_index : t -> meth:Obj_id.t -> recv:Obj_id.t -> mentry Vec.t

val set_recv_keys : t -> Obj_id.t -> int

val set_res_keys : t -> Obj_id.t -> int

(** Live (non-tombstoned) tuples of [meth], O(1). *)
val set_live_count : t -> Obj_id.t -> int

val set_meths : t -> Obj_id.t list

(** {1 Removal}

    Removal is tombstoning: the primary tables (lookup maps, member sets,
    hierarchy adjacency) are updated physically, while the shared bucket /
    index record is stamped dead with the epoch the removal produced.
    Buckets never shrink, so watermarks held by in-flight semi-naive
    evaluations stay monotone. Each successful removal bumps the epoch and
    decrements {!size}, and resets the record's [why] to [Unrecorded];
    re-asserting a removed tuple appends a fresh record. All three return
    whether the tuple was present (and live). *)

val remove_scalar :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> res:Obj_id.t ->
  bool

val remove_set :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> res:Obj_id.t ->
  bool

(** Removing an isa edge resets the memoized closure caches wholesale
    (additions patch them incrementally; deletions rebuild lazily). *)
val remove_isa : t -> Obj_id.t -> Obj_id.t -> bool

(** {1 Live iteration}

    Visit every {e live} tuple of the store — tombstoned entries
    filtered, buckets in method order. These are the building blocks of
    model dumps, the incremental layer's support-index audit, and the
    durability layer's snapshot content. *)

val iter_live_isa : t -> (Obj_id.t -> Obj_id.t -> unit) -> unit

(** The callback receives the method and the (live) bucket entry. *)
val iter_live_scalar : t -> (Obj_id.t -> mentry -> unit) -> unit

val iter_live_set : t -> (Obj_id.t -> mentry -> unit) -> unit

(** {1 Statistics} *)

type stats = {
  objects : int;
  isa_edges : int;
  scalar_tuples : int;
  set_tuples : int;
}

val stats : t -> stats

(** Live facts stored (isa edges + scalar + set tuples), O(1). Compiled
    query plans use it to decide when enough has changed to re-plan. *)
val size : t -> int

(** {1 Epochs and snapshots}

    {!epoch} is the store's data version, bumped on every actual
    insertion and removal (never on duplicates or misses). A snapshot is
    that counter read at {!freeze}; it pins no data. It answers one
    question — was the store written since? — and keys the server's
    epoch-keyed query cache.

    Thread-safety contract: one writer at a time, and a reader that runs
    beside a write must validate what it read. The store's indexes are
    plain hash tables that a write can resize, and incremental
    maintenance passes through states no committed batch ever had, so a
    read overlapping a write can miss tuples that are present or see
    ones that are about to go. The query server serialises writers under
    its store lock and validates every lock-free read with a seqlock
    around the write, re-running it under the lock when a write
    overlapped. What is safe without validation: the append-only
    buckets ({!Vec}) load their array once and clamp, so a concurrent
    grow never sends a reader out of bounds, and the lazily-memoized
    hierarchy closure caches carry an internal lock, so concurrent
    readers never corrupt each other. *)

(** The store's current data version; monotonically increasing. *)
val epoch : t -> int

type snapshot

(** Read the current epoch. O(1); allocates one small record and writes
    nothing to the store. *)
val freeze : t -> snapshot

val snapshot_epoch : snapshot -> int

(** Has the store been written to since the freeze? *)
val snapshot_stale : snapshot -> bool

(** Internal-consistency audit: primary tables agree with their buckets and
    inverse indexes, set memberships agree with the per-key sets, the
    hierarchy adjacency agrees with the edge log and stays acyclic.
    Returns human-readable descriptions of any violations (empty = sound);
    fuzz-tested after every random workload in the test suite. *)
val check_invariants : t -> string list
