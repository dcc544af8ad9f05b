(** Cardinality and termination abstract interpretation.

    A worklist fixpoint over the rule dependency graph infers, per
    relation and per rule, an upper bound on tuple counts / firings in
    the abstract domain {!card}: exact counts for ground contributions,
    store-size-parameterised polynomial bounds [c·n^k] for derived
    relations ([n] = universe cardinality), and [Inf] for relations fed
    by a skolem-creation cycle — those grow the universe itself, so no
    bound in terms of the initial [n] is sound.

    Soundness: every inferred bound over-approximates the true fixpoint
    size {e at the final store size} (property-tested). Structural caps
    bound every relation by n^width (scalar methods are functional in
    receiver and arguments, so their width drops the result dimension);
    recursive rules are widened straight to those caps, which also
    bounds the worklist ascent. The results drive three consumers:
    admission control ({!query_cost} behind [serve --admit-cost]), the
    PL05x diagnostics ({!check}), and the per-node annotations of
    [explain --estimates] ({!predicted}). They never order joins: every
    plan comes from the store heuristic in
    {!Semantics.Solve.compile_plan}. *)

type card =
  | Exact of int  (** exactly counted ground contribution *)
  | Poly of int * int  (** [Poly (c, k)]: at most c·n^k tuples *)
  | Inf  (** unbounded skolem creation *)

val eval_card : n:int -> card -> int
(** Concretise at universe size [n] (saturating; [Inf] gives
    [max_int]). *)

type verdict =
  | Finite  (** polynomial in the (final) store size *)
  | Bounded_by_budget
      (** the stratum recursively creates objects without a proven
          feedback cycle: growth is data-dependent and only the engine's
          divergence budget is a guaranteed stop *)
  | Potentially_infinite  (** contains a proven creation cycle *)

type rule_card = {
  rc_rule : Engine.Rule.t;
  rc_firings : card;  (** bound on body solutions across the whole run *)
  rc_recursive : bool;
  rc_creation_cycle : Semantics.Ir.rel option;
      (** the back-edge relation when the rule sits on a skolem-creation
          cycle ({!Analyses.creation_cycles}) *)
}

type t

val analyze :
  ?strat:Engine.Stratify.t ->
  ?facts:Engine.Rule.fact list ->
  Oodb.Store.t ->
  Engine.Rule.t list ->
  t
(** Run the fixpoint over the rules. The facts seed their relations with
    exact counts (a fact fires once) and add their class edges to the
    hierarchy; they get no {!rule_card}. [strat] reuses an
    already-computed stratification for the termination verdicts;
    without it one is computed, and an unstratifiable program simply
    gets no verdicts (the cardinality pass itself does not need
    strata). *)

val rel_cards : t -> (Semantics.Ir.rel * card) list
val rule_cards : t -> rule_card list

val verdicts : t -> (int * verdict) list
(** termination verdict per stratum, ascending *)

val check :
  ?threshold:int ->
  t ->
  Oodb.Store.t ->
  queries:Syntax.Ast.literal list list ->
  Diagnostic.t list
(** The PL05x diagnostics of an {!analyze} result:

    - [PL050] (error): a rule on a skolem-creation cycle is live for one
      of the program's queries — provably unbounded object creation
      reachable from a query.
    - [PL051] (warning): the predicted fixpoint size at the current
      universe size (the rules' firings plus one per fact) exceeds
      [threshold]; attached to the dominating rule. Skipped when some rule is already [Inf] (PL050/PL030 cover
      that).
    - [PL052] (hint): the rule body's enumerating literals split into
      more than one variable-connected component — a cross-product join
      no planner order or demand adornment can prune.

    Diagnostics anchor on the rule's source span and pretty-print its
    origin (the user-written rule, for demand-transformed variants). *)

val predicted : t -> Oodb.Store.t -> Semantics.Ir.rel -> int option
(** Predicted cardinality of a relation, evaluated at the store's
    universe size at call time; [Inf] and unknown relations answer
    [None]. What [explain --estimates] annotates plan nodes with. *)

val query_cost :
  t ->
  Oodb.Store.t ->
  Engine.Rule.t list ->
  Syntax.Ast.literal list ->
  [ `Bound of int | `Infinite ]
(** Predicted derivation count needed to answer a query: the summed
    firing bounds of the rules live for its goal relations, evaluated at
    the current universe size. Facts derive nothing, so they add nothing.
    The rules must be those [t] was analysed over: their relevance index
    ({!Engine.Stratify.index}) was built once, by {!analyze}. [serve --admit-cost] rejects the query
    when this exceeds the bound (or is [`Infinite]) {e before} any
    evaluation starts. *)

val describe : Oodb.Store.t -> t -> string list
(** Human-readable report: per-relation bounds, per-rule firing bounds
    with recursion/cycle markers, and per-stratum verdicts — the body of
    [pathlog check --estimates]. *)
