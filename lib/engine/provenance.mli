(** Derivation provenance and proof trees.

    When enabled (the default), the fixpoint records, for every tuple it
    inserts, the {e first} derivation: one record per firing. [Live]
    re-points a record when a retraction takes its support and the fact
    keeps another proof. {!explain} then reconstructs a proof
    tree: the root fact, the rule that derived it, and recursively the
    body facts that rule matched — {!replay}ed, so the sub-facts shown are
    a real support set for the derivation.

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

type t

val create : unit -> t

(** Record the first derivation of a fact (later derivations keep the
    first; {!forget} first to replace it). *)
val record : t -> Fact.t -> source -> unit

val lookup : t -> Fact.t -> source option

(** Drop the recorded derivation of a fact (retraction support: a
    tombstoned fact must stop explaining itself). *)
val forget : t -> Fact.t -> unit

val size : t -> int

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

val pp_proof : Oodb.Universe.t -> Format.formatter -> proof -> unit
