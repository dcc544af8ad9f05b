(** Derivation provenance and proof trees.

    When enabled (the default), the fixpoint records, for every tuple it
    inserts, the {e first} derivation: one derivation per firing, shared
    by the facts the firing inserts. A fact's source is kept in its own
    store record ({!Oodb.Store.why}), so provenance adds one field per
    record and no table: a tombstoned record drops its source, and a
    re-asserted fact's fresh record starts unrecorded. [Live] re-points a
    record when a retraction takes its support and the fact keeps another
    proof. {!explain} then reconstructs a proof tree: the root fact, the
    rule that derived it, and recursively the body facts that rule matched
    — {!replay}ed, so the sub-facts shown are a real support set for the
    derivation.

    Facts asserted by fact statements (at load or in a [Live] ASSERT
    batch) are [Extensional] leaves; skolem-creating insertions point at
    the rule whose head invented the object. *)

(** A rule and the body solution the solver found, by [rule.body] slot. *)
type derivation = { rule : Rule.t; binding : Oodb.Obj_id.t array }

type source =
  | Extensional  (** asserted by a fact statement *)
  | Derived of derivation

type proof = {
  fact : Fact.t;
  source : source;
  support : proof list;  (** body facts of the deriving rule; [] for leaves *)
}

(** The provenance of a store's facts, kept in the store's records. *)
type t

val create : Oodb.Store.t -> t

(** Record the first derivation of a live fact (later derivations keep
    the first; {!repoint} replaces it). A fact not in the store records
    nothing. *)
val record : t -> Fact.t -> source -> unit

(** The recorded source of a live fact: its record is found as the
    store's removals find it (O(1) for a scalar tuple, a newest-first
    index search for a set member, the object's direct edges for a class
    edge). *)
val lookup : t -> Fact.t -> source option

(** Replace a live fact's recorded source. *)
val repoint : t -> Fact.t -> source -> unit

(** A live fact's store record, found once and then read or overwritten
    in place: a caller that checks a fact's record and may re-point it
    searches for it once. *)
type entry

(** The record of a live fact, found as {!lookup} finds it; [None] when
    the fact is not live. *)
val entry : t -> Fact.t -> entry option

val entry_source : entry -> source option

(** {!repoint} without the search. *)
val set_source : entry -> source -> unit

(** Live facts with a recorded source: a walk over the store. *)
val size : t -> int

(** {2 Recording without allocating}

    A source as a store record holds it. The fixpoint builds one per
    firing and records it for every fact the firing inserts; [stated] is
    one shared constant. *)

type why

val stated : why

val derived : derivation -> why

(** {!record} of a source already in its stored form. *)
val record_why : t -> Fact.t -> why -> unit

(** The derivation's named slots and their objects: the bindings under
    which any body solution justifies the same heads. *)
val named : derivation -> (int * Oodb.Obj_id.t) list

(** The first solution of [rule]'s body under [bindings] that [accept]
    takes, with the ground facts it rests on: method atoms, memberships as
    a chain of direct class edges, a regular-path atom as the edges of one
    witness path ({!Semantics.Solve.regex_witness}). *)
val prove :
  ?interrupt:(unit -> unit) ->
  Oodb.Store.t ->
  Rule.t ->
  (int * Oodb.Obj_id.t) list ->
  accept:(Oodb.Obj_id.t array -> Fact.t list -> bool) ->
  (derivation * Fact.t list) option

(** The ground facts of the first body solution with the derivation's
    {!named} slots pre-bound, or [None] once the body no longer holds. *)
val replay :
  ?interrupt:(unit -> unit) -> Oodb.Store.t -> derivation ->
  Fact.t list option

(** Build the proof tree of a recorded fact. [max_depth] truncates (cycles
    cannot occur — provenance records first derivations, which are
    well-founded — but deep chains can). Unknown facts yield [None]. *)
val explain :
  ?max_depth:int -> ?interrupt:(unit -> unit) -> Oodb.Store.t -> t ->
  Fact.t -> proof option
(** [interrupt] is the solver's cooperative cancellation hook (see
    {!Semantics.Solve.iter}); proof reconstruction replays rule bodies,
    so it too must be killable mid-flight. *)

(** The proof tree as text, one line per node in preorder, each child
    two spaces deeper than its parent: the fact ({!Fact.add}), then
    ["   (fact)"] for a leaf or ["   (by <rule>)"] for a derivation. *)
val proof_lines : Oodb.Universe.t -> proof -> string list

(** {!proof_lines} in a vertical box. *)
val pp_proof : Oodb.Universe.t -> Format.formatter -> proof -> unit
