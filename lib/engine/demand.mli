(** Demand-driven evaluation: the magic-sets transform.

    Materialising the whole minimal model makes every query pay for every
    derivable fact. Given a query, this module rewrites the program so the
    semi-naive fixpoint derives only the fragment the query can actually
    read — the binding-aware generalisation of {!Stratify.live_rules}'s
    static relevance.

    The transform adorns relations from the query's bound/free pattern
    (receiver-bound path queries like [alice\[boss ->> {Y}\]] are the
    headline case, adornment [B]); a relation every occurrence of which has
    a bound receiver gets a {e magic predicate} — a set-valued method
    [magic$...] ({!Fact.magic_prefix}; the model renderer skips these
    facts) on the reserved object [$demand] holding the receivers demand
    has reached. Each rule defining a [B]-adorned relation is
    {e guarded}: its body is prefixed with a magic-membership literal on
    its head receiver, so it only fires for demanded receivers. {e Magic
    rules} propagate demand sideways: for every bound-receiver application
    in a rule body, a rule derives that receiver into the application's
    magic set from the body prefix that binds it (plus the guard). The
    query's own constants become magic {e seed} facts. Relations demanded
    with a free receiver anywhere stay unadorned ([F]) and their rules run
    unrestricted, exactly as relevance pruning would.

    Soundness: guarded rules derive a subset of the original program's
    minimal model (dropping body solutions of a monotone program loses
    only completeness, never soundness). Completeness for the seeded
    query follows the classic magic-sets argument: the demand analysis
    and the magic-rule emission walk rule bodies with the same
    left-to-right sideways-information-passing discipline, so every fact
    a query answer depends on has its receiver reached by a magic set
    (adornment [B]) or its relation fully derived (adornment [F]).

    The transform refuses programs it cannot treat soundly — see
    {!fallback}; callers then fall back to full materialisation. *)

(** Why the transform declined, in fallback-to-full-materialisation order
    of precedence:
    - [Negation]: a negated literal in the query or a relevant rule body.
      Restricting a stratum that a negation reads would make the
      complement unsound.
    - [Inclusion]: a set-inclusion filter ([t\[m ->> s\]] with a set-valued
      reference [s]) in the query or a relevant rule body — same
      completion-semantics problem as negation.
    - [Hilog]: a variable or computed method position ([R_any]) in the
      query or a relevant rule: demand cannot be attributed to a specific
      relation.
    - [Unsafe]: a generated rule failed the well-formedness check — a
      defensive impossibility guard, never expected in practice. *)
type fallback = Negation | Inclusion | Hilog | Unsafe

val fallback_to_string : fallback -> string

(** The uncompiled non-seed rules of a transform. *)
type pending

(** {1 Query skeletons}

    A query's {e skeleton} is its literals with every constant outside a
    method position (receivers, arguments, results, classes) replaced by
    a numbered placeholder, the reserved name [$q<k>]. A constant keeps
    its kind in the key, and a repeated constant keeps one number:
    [a\[boss -> a\]] and [a\[boss -> b\]] are different skeletons.
    {!transform} treats a placeholder as the constant it stands for, so
    one transform of the skeleton serves every query it stands for:
    {!seed_template} turns its seeds into heads that read the constants
    from a binding, and {!specialise} puts the constants into the rules
    that carry them. *)

type skeleton = {
  sk_key : string;  (** equal keys: equal skeletons *)
  sk_lits : Syntax.Ast.literal list;  (** the literals, with placeholders *)
  sk_consts : Syntax.Ast.reference array;
      (** the constant placeholder [k] stands for *)
}

val skeleton : Syntax.Ast.literal list -> skeleton

(** A transform result: the query's seed facts plus its {e shape}, the
    non-seed rules (magic rules, guarded rules, and the untouched
    [F]-adorned rules, which keep their original compiled identity so
    plan-cache entries survive). Queries that differ only in the
    constants that become seeds — [c1\[up ->> \{Y\}\]] and
    [c2\[up ->> \{Y\}\]] — share a shape. *)
type t = {
  key : string;
      (** identifies the shape: equal keys mean equal non-seed rules, so
          a caller may evaluate a shape it compiled earlier instead of
          calling {!compile} again *)
  seeds : Syntax.Ast.rule list;
      (** ground magic facts from the query's constants *)
  carried : int list;
      (** the placeholders the non-seed rules mention: a magic rule whose
          body starts from a query constant, as
          [a0\[boss -> X\], X\[up ->> \{Y\}\]] gives
          [$demand\[magic$set$up ->> \{X\}\] <- a0\[boss -> X\]]. Such
          a skeleton's rules differ per constant; see {!specialise} *)
  n_seeds : int;
  n_magic : int;  (** demand-propagation rules *)
  n_guarded : int;  (** rules restricted by a magic guard *)
  n_unguarded : int;  (** relevant rules kept unrestricted *)
  n_dropped : int;  (** relevant rules no demand reaches *)
  pending : pending;
}

(** A compiled shape. *)
type shape = {
  strat : Stratify.t;  (** the non-seed rules, compiled and stratified *)
  generated : int list;
      (** uids of the magic and guarded rules compiled for this shape
          (the unguarded rules are the program's own) *)
}

(** [transform store rules query] analyses [query] against the program
    [rules] and emits its demand-transformed program, uncompiled. Pure
    facts (empty body, no reads) never affect the result, so callers may
    leave them out of [rules]; they are extensional and loaded directly
    by the program's fact loader. Interns magic method names into the
    store's universe but inserts no tuples. *)
val transform :
  Oodb.Store.t ->
  Rule.t list ->
  Syntax.Ast.literal list ->
  (t, fallback) result

(** [specialise d consts]: a skeleton's transform [d] with placeholder
    [k] replaced by [consts.(k)] in its non-seed rules — the non-seed
    rules {!transform} gives the query itself (magic rules that become
    equal merge, as they do there). Its [key] is recomputed and its
    [carried] is empty. *)
val specialise : t -> Syntax.Ast.reference array -> t

(** The constants a specialised shape of [d] is keyed by: [d.carried]'s,
    printed. Empty when [d] carries none. *)
val carried_key : t -> Syntax.Ast.reference array -> string

(** The seed template: each seed with its head compiled once, its
    placeholder [k] read from binding slot [k] ([slots] is the
    skeleton's constant count). Running a head under the query's
    constant objects inserts the seed {!transform} gives the query. *)
val seed_template : t -> slots:int -> (Syntax.Ast.rule * Head.t) list

(** How many distinct seeds the query with these constants has (two
    placeholder seeds can be one fact). *)
val seed_count : t -> Syntax.Ast.reference array -> int

(** Compile and stratify a transform's non-seed rules. Each call mints
    fresh rule uids. *)
val compile : Oodb.Store.t -> t -> shape

(** The adorned, transformed program rendered as PathLog source with
    section comments, plus the bound-receiver plan of each guarded body —
    what [explain --demand] prints. *)
val listing : Oodb.Store.t -> t -> string list

(** Number of live magic tuples currently in the store — the size of all
    demand sets, across every transform that ran against it (the
    [magic_facts] STATS gauge). O(#set methods). *)
val magic_fact_total : Oodb.Store.t -> int
