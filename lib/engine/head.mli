(** Rule-head execution: make the head true under a body solution.

    This is where virtual objects come from (section 6 of the paper). The
    head is a scalar reference; executing it under a body solution walks
    the reference and

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

    A head is compiled once ({!compile}) into its AST with resolved
    leaves: head variables read the body's binding slots, and names and
    literals become object ids, interned the first time the head runs and
    cached, so object numbering is what walking the AST would give. Only a
    [->>] set reference is evaluated by {!Semantics.Valuation}. A head
    whose body names no variable — a fact statement — is compiled each
    time it runs instead, so a program's statements keep no second copy
    of their heads. *)

type t

(** [compile ~named head]: [named] maps the body's source variables to
    its binding slots ({!Semantics.Ir.query}'s [named]); a ground head
    takes [~named:[]]. A head variable the body does not bind raises
    {!Semantics.Valuation.Unbound_variable} when the head runs. *)
val compile : named:(string * int) list -> Syntax.Ast.reference -> t

(** Run the head under the body solution [binding], writing through the
    store; returns the object the head denotes. [changes] counts the
    tuples actually inserted, which is what the fixpoint uses to detect
    saturation; [on_insert] is called once per tuple inserted
    (provenance recording); [rule] is the error context of a functional
    conflict. Transient injected store-write faults are retried. *)
val execute :
  ?on_insert:(Fact.t -> unit) ->
  Oodb.Store.t ->
  binding:Oodb.Obj_id.t array ->
  rule:Syntax.Ast.rule ->
  changes:int ref ->
  t ->
  Oodb.Obj_id.t

(** What running the head under [binding] would assert, without writing:
    [(heads, relied)]. [heads] holds its filters, class edges and links
    to the virtual objects its paths denote; [relied] the links its paths
    find to other objects, which a virtual object would replace if they
    went. A path to an object never created asserts nothing about it:
    the facts that would name it are left out. *)
val asserts :
  Oodb.Store.t ->
  binding:Oodb.Obj_id.t array ->
  t ->
  Fact.t list * Fact.t list
