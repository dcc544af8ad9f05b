(** Stratification (section 6 of the paper).

    A rule whose body contains a set-inclusion filter with a set-valued
    reference — [... <- X\[friends ->> p1..assistants\]] — or a negated
    literal must only run once the relations that sub-reference reads are
    fully computed. We build the dependency graph over relations (an edge
    [D -> R] whenever a rule defining [D] reads [R], marked {e completion}
    when the read needs the full extension), condense it into strongly
    connected components, and reject the program if a completion edge lies
    inside a component. Strata are numbered so that completion edges
    strictly descend.

    [R_any] (variable or computed method positions, e.g. the generic
    [kids.tc] rules) is handled conservatively: a rule defining [R_any] may
    define anything, a rule reading [R_any] may read anything, and a
    completion read of [R_any] is rejected outright.

    Class membership is refined per named class ([R_isa_c]): negating
    [X : hasKids] while deriving [X : leaf] is stratifiable. A membership
    insert into class [c] also feeds every class above [c]; the hierarchy
    used is the {e static} one — constant-to-constant class edges visible
    in rule heads. Class edges created at runtime between objects that are
    only bound by variables (meta-programming on the hierarchy) escape this
    approximation, as they do in every practical stratification. *)

type t = {
  strata : Rule.t list array;  (** rules grouped by stratum, ascending *)
  rule_stratum : (Rule.t * int) list;
}

val compute : ?facts:Rule.fact list -> Oodb.Store.t -> Rule.t list -> t
(** Stratify the rules. Facts read nothing, so they take no stratum of
    their own; their class edges still belong to the static hierarchy.
    Every fact's relations sit at or below the top rule stratum, so the
    stratum count is what it would be with the facts among the rules.
    @raise Err.Unstratifiable *)

val static_ancestors :
  ?facts:Rule.fact list -> Rule.t list -> Oodb.Obj_id.t -> Oodb.Obj_id.Set.t
(** static superclasses of a class: the constant-to-constant hierarchy
    visible in rule and fact heads, transitively closed *)

val live_rules : Rule.t list -> goals:Semantics.Ir.rel list -> Rule.t list
(** Rules transitively relevant to the goal relations, by class-normalised
    backward reachability over defines/reads. Returns all rules when a goal
    is [R_any]. Skipping the complement is sound: [Rule.t.reads] includes
    negated and inclusion-checked relations. The order is that of a
    round-robin scan (each round takes, in program order, every rule not
    yet taken that defines a relevant relation), computed from an index
    from relation to defining rules in O(n + k log k) for n rules of
    which k read something. *)

type index
(** The rules' part of {!live_rules}: the rules that read and an index
    from relation to the readers defining it. Immutable once built, so
    concurrent {!live} calls may share it. *)

val index : Rule.t list -> index

val live : index -> goals:Semantics.Ir.rel list -> Rule.t list
(** [live (index rules) ~goals = live_rules rules ~goals], without
    rebuilding the index: a caller asking for many goal sets over one
    program (admission control) builds it once. *)
