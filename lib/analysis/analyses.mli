(** The whole-program analyses over compiled rules: skolem-creation
    cycles (PL030), dead rules (PL031/PL032), static
    scalar-functionality conflicts (PL040/PL041) and unsatisfiable
    regular path expressions (PL060). See {!Diagnostic} for the code
    taxonomy and {!Check.analyze} for the driver that runs them as part
    of [pathlog check]. *)

val creation_cycles :
  facts:Engine.Rule.fact list ->
  Oodb.Store.t ->
  Engine.Rule.t list ->
  (Engine.Rule.t * Semantics.Ir.rel) list
(** The creation-cycle core shared by PL030 and {!Absint}: non-fact rules
    whose fresh skolem objects can flow back into a relation their own
    body reads, paired with the back-edge relation. Such a rule's model
    contribution is potentially infinite (each firing can enable another
    on a fresh receiver). *)

val skolem_cycles :
  Oodb.Store.t ->
  Engine.Rule.t list ->
  cycles:(Engine.Rule.t * Semantics.Ir.rel) list ->
  Diagnostic.t list
(** PL030, given the program's {!creation_cycles} (which {!Absint}
    already computes as [rc_creation_cycle]): rules that create virtual objects ([X.m] in a head) and whose
    fresh objects can flow back into the rule's own reads — each firing
    can then enable another on a fresh receiver, so the minimal model is
    likely infinite. Skolemisation is functional, so the flow starts only
    from the relations the fresh object {e enters} in a matchable data
    position: class membership ([X.m : c] heads) and method assertions on
    the skolem as receiver ([X.m\[k -> v\]] heads). Result, method and
    class positions are excluded — variable method/class positions do not
    enumerate virtual objects under the default semantics
    (hilog_virtual=false) — so the paper's generic transitive-closure
    rules and the [c.list] constructor are not flagged while
    [X.succ : nat <- X : nat] is. An under-approximation: a warning means
    "very likely diverges", silence is not a termination proof. *)

module Rel_set : Set.S with type elt = Semantics.Ir.rel

(** Which relations some chain of rule firings, seeded by facts, can
    ever populate. *)
type producibility = {
  p_produced : Rel_set.t;  (** class relations closed upward *)
  p_any_isa : bool;  (** some class membership is produced *)
  p_unknown_isa : bool;  (** a head asserts a variable class *)
  p_unknown_meth : bool;  (** a head asserts a variable method *)
  p_fired : (int, unit) Hashtbl.t;  (** uids of the rules that can fire *)
  p_visits : int;
      (** how often the worklist woke a waiting rule: at most once per
          distinct requirement of each rule, whatever the rules' order *)
}

val producibility :
  facts:Engine.Rule.fact list -> Engine.Rule.t list -> producibility
(** The producibility fixpoint over head definitions, seeded by the
    facts' relations and shared by {!dead_rules} (PL031) and
    {!regex_dead} (PL060). A worklist: each rule waits on its distinct
    unmet requirements and fires when the last is met. *)

val dead_rules :
  Oodb.Store.t ->
  Engine.Rule.t list ->
  producibility ->
  queries:Syntax.Ast.literal list list ->
  Diagnostic.t list
(** PL031 (warning): rules whose body requires a relation no rule or fact
    can produce, by the {!producibility} fixpoint. PL032 (hint): with
    embedded queries, non-fact rules outside the backward-reachability
    closure of the queried relations ({!Engine.Stratify.live_rules}).
    Such a rule cannot contribute to any answer; it still runs. *)

val regex_dead :
  Oodb.Store.t ->
  Engine.Rule.t list ->
  producibility ->
  queries:Syntax.Ast.literal list list ->
  Diagnostic.t list
(** PL060 (warning): a regular path expression whose automaton accepts no
    word over the producible vocabulary — transitions reading a relation
    no rule or fact produces are erased and no accepting state stays
    reachable from the start state. Such an atom can never match and
    silently kills its rule or query. Nullable automata ([m*]) keep the
    empty word (the expression degenerates to the identity but still
    matches), so they are not flagged. *)

val scalar_conflicts :
  facts:Engine.Rule.fact list -> Engine.Rule.t list -> Diagnostic.t list
(** PL040 (error): two ground facts assign the same scalar method
    application two different results — {!Engine.Err.Functional_conflict}
    is certain. PL041 (warning): two head assignments with ground,
    distinct results and receivers not provably distinct may collide at
    runtime. Results that are variables or paths are not compared. The
    facts' and rules' assignments are taken in statement order (by
    source offset). *)

(** One scalar head assignment [recv\[meth@(args) -> res\]], with
    parentheses, class memberships and enclosing filters stripped from
    the receiver and result. *)
type assignment = {
  a_meth : Syntax.Ast.reference;  (** always ground *)
  a_recv : Syntax.Ast.reference;
  a_args : Syntax.Ast.reference list;
  a_res : Syntax.Ast.reference;
  a_source : Syntax.Ast.rule;  (** the statement assigning it *)
  a_origin : Syntax.Ast.rule option;  (** {!Engine.Rule.t.origin} *)
  a_span : Syntax.Token.span option;
}

val head_assignments : Engine.Rule.t -> assignment list
(** The rule head's scalar assignments with a ground method, in head
    order. *)

val fact_assignments : Engine.Rule.fact -> assignment list
(** {!head_assignments} of a fact statement. *)

val conflict_diagnostic : assignment * assignment -> Diagnostic.t
(** The PL040/PL041 diagnostic for a conflicting pair, anchored on the
    later assignment. {!scalar_conflicts} renders the program's
    conflicting pairs [(a_i, a_j)], [i < j] over the program's
    assignment sequence, in that order. *)
