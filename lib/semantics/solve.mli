(** Enumeration of the variable valuations satisfying a flattened query.

    Where {!Valuation} checks one given valuation, this module {e finds} all
    of them, driving the search from the store's indexes. It is the
    workhorse of both query answering and rule bodies in the fixpoint
    engine.

    Atom scheduling has one rule. A join order is compiled {e once} per
    (query, seed) from the static cost model ({!compile_plan}): repeatedly
    take the cheapest remaining atom under the boundness reached so far
    (1 for a fully keyed lookup, the average receiver-index hit for a
    bound-receiver scan, the bucket length for a method scan, and so on).
    Every solution prefix then follows that order; the fixpoint engine
    caches the plan across rounds. A caller may instead pass its own
    [~plan] — a source-order ablation is the identity permutation.

    Set-inclusion atoms ([A_subset]) and negation run as nested
    sub-enumerations once their outer variables are bound; any still-unbound
    variable (including an output variable constrained by no atom, as in the
    query [?- X.]) falls back to enumerating the whole universe, which keeps
    the solver total on well-formed input. *)

(** Restrict one atom of the query to the delta suffix of its relation's
    bucket (tuples with index [>= from]); used by the semi-naive fixpoint.
    The seeded atom is executed first. For [A_isa] atoms the delta is the
    suffix of the direct-edge log, expanded through the hierarchy closure. *)
type seed = { seed_atom : int; seed_from : int }

(** A compiled join order: the seeded atom (or [-1]), the remaining atoms
    in execution order, and the store size at compile time. Every
    permutation is {e sound} — each atom executes correctly under any
    boundness — so plans can be cached and reused across rounds and
    bindings; only their quality decays as the store grows (see
    {!plan_stale}). [plan_seed] and [plan_perm] together must name every
    atom index exactly once. *)
type plan = {
  plan_seed : int;
  plan_perm : int array;
  plan_size : int;
}

(** Compile a join order for [q] from the static cost model: repeatedly
    pick the cheapest remaining atom under the boundness reached so far,
    using the store's current bucket sizes and receiver-index
    selectivities.

    @param bindings slots known to be bound before the search starts
    @param seed_atom atom index executed first from its delta (semi-naive
    seeding); its variables are bound when the rest is ordered. *)
val compile_plan :
  ?bindings:(int * Oodb.Obj_id.t) list ->
  ?seed_atom:int ->
  Oodb.Store.t ->
  Ir.query ->
  plan

(** Has the store grown enough (roughly 2x) since [plan] was compiled that
    re-planning is worthwhile? *)
val plan_stale : Oodb.Store.t -> plan -> bool

exception Stopped

(** The enumeration calls [interrupt] (when given) at least once every
    {!poll_interval} unification steps — the solver's cooperative
    cancellation point. An exception raised by it (e.g.
    [Engine.Budget.Exhausted]) aborts the search and propagates to the
    caller of {!iter}; every solution costs at least one step, so an
    interrupt observes its condition within a bounded amount of further
    work (property-tested). *)
val poll_interval : int

(** Process-wide STATS counters for the automaton-product join: regular
    path plans compiled (Thompson NFAs, {!Flatten}) and (object, state)
    product pairs expanded by the BFS. *)
val regex_plans_total : int Atomic.t

val product_states_expanded : int Atomic.t

(** A witness that [res] is reachable from [recv] along a word of the
    automaton's language: the edges [(label, from, to)] of one shortest
    such path over the live store, in path order ([Some []] when the
    empty word is accepted and [recv = res]). [None] when [res] is not
    reachable. The regex atom's support, for provenance and incremental
    maintenance. *)
val regex_witness :
  Oodb.Store.t ->
  Ir.automaton ->
  recv:Oodb.Obj_id.t ->
  res:Oodb.Obj_id.t ->
  (Ir.label * Oodb.Obj_id.t * Oodb.Obj_id.t) list option

(** [iter store q ~f] calls [f] once per satisfying assignment, with a
    binding array of length [q.nvars] (fully bound). Raise {!Stopped} from
    [f] to stop early; [iter] catches it.

    @param limit stop after this many solutions.
    @param interrupt polled every {!poll_interval} steps; see above. *)
val iter :
  ?hilog_virtual:bool ->
  ?interrupt:(unit -> unit) ->
  ?bindings:(int * Oodb.Obj_id.t) list ->
  ?seed:seed ->
  ?plan:plan ->
  ?limit:int ->
  Oodb.Store.t ->
  Ir.query ->
  f:(Oodb.Obj_id.t array -> unit) ->
  unit
(** [bindings] pre-binds slots before the search starts (used to replay a
    rule body under a known variable valuation, e.g. for provenance).

    [plan] executes atoms in a precompiled order: its seed must match
    [seed] and, with it, its permutation must name every atom of [q]
    exactly once, else [Invalid_argument]. Without it, {!compile_plan}
    compiles one under [bindings]. Nested set-inclusion and negation
    bodies are ranked by the same cost model when entered, under the
    boundness they see there.

    [hilog_virtual] (default [false]): when a {e method-position} variable
    is enumerated (HiLog-style higher-order atoms such as [X\[M ->> {Y}\]]),
    include virtual (skolem) objects among the candidate methods. Off by
    default: with it on, the generic transitive-closure program of section
    6 has an infinite minimal model — [tc] applies to [kids.tc], yielding
    [(kids.tc).tc], and so on — and bottom-up evaluation only stops at the
    divergence budget. All the paper's examples work with the restricted
    enumeration. Explicitly named virtual methods (e.g. the query
    [peter\[(kids.tc) ->> {X}\]]) are unaffected. *)

(** Distinct bindings of the query's named variables, in the order of
    [q.named]; answers are deduplicated. *)
val named_solutions :
  ?interrupt:(unit -> unit) -> ?limit:int -> Oodb.Store.t -> Ir.query ->
  Oodb.Obj_id.t list list

(** Is the query satisfiable? *)
val satisfiable :
  ?interrupt:(unit -> unit) -> Oodb.Store.t -> Ir.query -> bool

(** Number of distinct named-variable bindings (or of full bindings when the
    query names no variable, capped at 1 for a ground query). *)
val count : ?interrupt:(unit -> unit) -> Oodb.Store.t -> Ir.query -> int

(** The plan the solver follows: the atom execution order and the access
    path chosen for each atom (keyed lookup, receiver index, inverse
    index, bucket scan, ...), one line per atom. This is {e exactly} the
    plan {!iter} executes: both come from {!compile_plan}.

    [bindings] marks slots as bound before the plan is compiled and the
    access paths are described — the {e adorned} plan a magic-guarded rule
    body follows once demand seeding has bound those slots (the values are
    ignored; only the slots matter).

    With [predicted], each plan node is additionally annotated with the
    predicted cardinality of the relation it reads ([~N tuples]; a regex
    node with [~N product pairs]). The annotation never changes the join
    order or the access paths. *)
val explain :
  ?predicted:(Ir.rel -> int option) ->
  ?bindings:(int * Oodb.Obj_id.t) list ->
  Oodb.Store.t ->
  Ir.query ->
  string list
