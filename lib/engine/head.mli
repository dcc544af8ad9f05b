(** Rule-head execution: make the head true under a body solution.

    This is where virtual objects come from (section 6 of the paper). The
    head is a scalar reference; executing it under a variable valuation
    walks the reference and

    - {e locates} every sub-object, creating a deterministic skolem object
      when a scalar path is undefined ("a path in a rule head may lead to
      the definition of virtual objects") — including paths in method
      position, which is how the generic [kids.tc] program mints its
      closure method;
    - {e asserts} every filter: [->] inserts a scalar tuple (raising
      {!Err.Functional_conflict} if a different result already exists),
      [->>] inserts memberships, [:] inserts a hierarchy edge;
    - for a [->>] filter whose right-hand side is a set-valued reference
      (program 4.4 used as a head), inserts every {e current} member of the
      reference's valuation — no objects are invented for it.

    Nested molecules in result position are asserted recursively: the head
    must become true, and assertion is the minimal way to make it so.

    [changes] counts the tuples actually inserted, which is what the
    fixpoint uses to detect saturation. *)

val execute :
  ?on_insert:(Fact.t -> unit) ->
  ?on_assert:(Fact.t -> unit) ->
  Oodb.Store.t ->
  env:Semantics.Valuation.env ->
  rule:Syntax.Ast.rule ->
  changes:int ref ->
  Syntax.Ast.reference ->
  Oodb.Obj_id.t
(** [on_insert] is called once per tuple actually inserted (provenance
    recording). [on_assert] is called once per tuple the head {e asserts} —
    whether it was freshly inserted or already present — which is what
    support counting needs: a derivation supports its head facts even when
    another derivation got there first. That includes the link of a head
    path that is already defined ([X.address] found, not created): the
    head relies on it as much as on a skolem link it creates. *)
