(** The user-facing engine API: load a PathLog program, evaluate it to its
    minimal model, answer queries.

    A program is a sequence of statements: facts, rules, signature
    declarations ([c\[m => r\]], [c\[m =>> r\]]) and queries ([?- ...]).
    Loading parses, checks well-formedness (Definition 3 plus head and
    safety conditions), compiles rules, and stratifies. {!run} evaluates to
    the minimal model; {!query} / {!query_string} answer ad-hoc queries
    against the current store. {!query_demand} is the goal-directed
    alternative: it derives only the part of the model one query
    demands. *)

type t

exception Invalid of string
(** Parse error, ill-formed reference, unsafe rule, bad signature
    declaration — with a human-readable message. *)

type answer = {
  columns : string list;  (** query variables, first-occurrence order *)
  rows : Oodb.Obj_id.t list list;  (** distinct bindings *)
}

val create :
  ?config:Fixpoint.config -> Syntax.Ast.statement list -> t

(** As {!create}, with a source span per statement (diagnostics anchor on
    them); {!of_string} uses this. *)
val create_spanned :
  ?config:Fixpoint.config ->
  (Syntax.Ast.statement * Syntax.Token.span option) list -> t

val of_string : ?config:Fixpoint.config -> string -> t

(** Load one extracted signature declaration (see
    {!Syntax.Wellformed.signature_of_statement}) into a signature table.
    Exposed for the static-analysis driver, which collects diagnostics
    instead of stopping at the first bad statement.
    @raise Invalid when a declaration names a non-ground reference *)
val load_signature :
  Oodb.Store.t ->
  Oodb.Signature.t ->
  Syntax.Ast.reference * Syntax.Ast.reference * Syntax.Ast.reference list
  * Syntax.Ast.reference * Syntax.Scalarity.t ->
  unit

val store : t -> Oodb.Store.t

(** The fixpoint configuration the program was created with (incremental
    maintenance re-enters the fixpoint with it). *)
val config : t -> Fixpoint.config

val universe : t -> Oodb.Universe.t

val rules : t -> Rule.t list

val signatures : t -> Oodb.Signature.t

(** Queries that appeared in the program text, in order. *)
val embedded_queries : t -> Syntax.Ast.literal list list

(** Stratum of each rule (diagnostics; experiment E8). *)
val strata : t -> Rule.t list array

(** Evaluate to the minimal model. Idempotent: a second call finds nothing
    new to derive. [budget] (deadline, cancellation, work caps) overrides
    the one in the program's config for this run; a budget-terminated run
    leaves the sound partial model in the store, records the reason (see
    {!degraded}), and still returns normally. *)
val run : ?budget:Budget.t -> t -> Fixpoint.stats

(** [Some r] when the latest {!run} was cut short by its budget: the
    model is partial (answers are a sound subset); cleared when a later
    run reaches the fixpoint. *)
val degraded : t -> Budget.reason option

(** Has an uncut {!run} reached the fixpoint? From then on the store holds
    the full minimal model ({!Incremental.Live} keeps it so under writes,
    and is the only code that removes facts), and {!query_demand} answers
    from it. Safe to read without a lock. *)
val materialised : t -> bool

(** Answer a query (the program should normally have been {!run} first).
    A query with no variables yields one empty row if entailed, no rows
    otherwise. [budget] bounds the enumeration itself: exhaustion raises
    {!Budget.Exhausted} mid-query — the server's mid-flight
    [ERR TIMEOUT]/[ERR CANCELLED] path. *)
val query : ?budget:Budget.t -> t -> Syntax.Ast.literal list -> answer

(** Parse and answer, e.g. [query_string p "?- X : employee."] (the leading
    [?-] and trailing [.] are optional). *)
val query_string : ?budget:Budget.t -> t -> string -> answer

(** Parse query text to literals without evaluating (the parsing half of
    {!query_string}; admission control estimates costs from these).
    @raise Invalid on a parse error. *)
val parse_query : string -> Syntax.Ast.literal list

(** Run every embedded query. *)
val run_queries : t -> (Syntax.Ast.literal list * answer) list

(** Render an answer row / table using the program's universe. *)
val row_to_string : t -> Oodb.Obj_id.t list -> string

val pp_answer : t -> Format.formatter -> answer -> unit

(** Check the store against the program's signature declarations. *)
val check_types :
  t -> mode:[ `Lenient | `Strict ] -> Oodb.Signature.violation list

(** Static type lint: check rule heads against signatures without running
    the program (see {!Typecheck}). *)
val lint_types : t -> Typecheck.warning list

(** The execution plan the solver would follow for a query; one line per
    flattened atom (see {!Semantics.Solve.explain}). [predicted] only
    annotates each node with a predicted cardinality; the plan is the
    one {!run} and {!query} execute either way. *)
val explain :
  ?predicted:(Semantics.Ir.rel -> int option) ->
  t ->
  Syntax.Ast.literal list ->
  string list

val explain_string :
  ?predicted:(Semantics.Ir.rel -> int option) -> t -> string -> string list

(** Derivation provenance recorded during {!run}. *)
val provenance : t -> Provenance.t

(** Execute the program's fact statements (empty-body rules) into the
    store without running any rule; idempotent. Demand-driven evaluation
    loads the extensional database this way and derives the rest from the
    query. *)
val load_facts : t -> unit

(** What a demand-driven query did: the transform shape (or the fallback
    that prevented it), the fixpoint statistics of the demanded run, and
    the store's live magic-tuple count afterwards. *)
type demand_report = {
  d_fallback : Demand.fallback option;
      (** [Some _]: the transform was unsound for this program/query and
          full materialisation ran instead (or had already run) *)
  d_stats : Fixpoint.stats;
      (** the demanded run's counters; the seed facts are inserted
          before it starts and are not counted *)
  d_resumed : bool;
      (** the run resumed from its shape's watermark: only what arrived
          since the shape's last complete run was propagated *)
  d_seeds : int;
      (** this and the next four count the transform's output; all 0 on
          a fallback and on a {!materialised} program *)
  d_magic_rules : int;
  d_guarded : int;
  d_unguarded : int;
  d_dropped : int;
  d_magic_facts : int;
}

(** Demand-driven answering: magic-sets transform seeded by the query's
    bound receivers (see {!Demand}), facts loaded extensionally, then a
    semi-naive fixpoint over the demanded fragment only. Falls back to
    {!run} when the transform is unsound (negation, inclusion, hilog).
    On a {!materialised} program it answers from the model: no seeds, no
    magic tuples, no fixpoint (a declined transform still reports its
    fallback). Answers always agree with {!run} + {!query}
    (property-tested at jobs 1 and 4). [budget] bounds the demanded run
    {e and} the final enumeration; a budget-cut run is flagged in
    {!degraded} and the report's stats.

    Demand is incremental per query {e shape} (the transform's non-seed
    rules, {!Demand.t.key}): the program keeps each shape compiled — its
    rule uids, stratification and plans stay stable — and records the
    relation watermark at the end of the shape's last complete run. A
    later query of that shape inserts its seed facts and resumes the
    fixpoint from the watermark ({!Fixpoint.run}'s [from]), so it costs
    its own fragment plus whatever arrived since, not every earlier
    demand. A budget-cut run drops its shape's watermark; the next query
    of the shape then runs a full first round. No watermark can miss a
    removal: facts leave the store only through {!Incremental.Live},
    which materialises the program first. At most 256 shapes stay
    compiled; the oldest is retired (with its plans) beyond that. *)
val query_demand :
  ?budget:Budget.t ->
  t ->
  Syntax.Ast.literal list ->
  answer * demand_report

val query_demand_string :
  ?budget:Budget.t -> t -> string -> answer * demand_report

(** Compiled plans cached for this program, across every evaluation
    mode. *)
val plan_count : t -> int

(** All-zero counters, for work that ran no fixpoint. *)
val idle_stats : unit -> Fixpoint.stats

(** The adorned, magic-transformed program for a query, rendered as
    PathLog source with section comments — seeds, magic rules, guarded
    rules, unguarded rules, and the bound-receiver plan of each guarded
    body. A single comment line explaining the fallback when the
    transform declines. *)
val explain_demand : t -> Syntax.Ast.literal list -> string list

val explain_demand_string : t -> string -> string list

(** The proof tree of a derived or extensional fact ([None] if the store
    does not contain it). The reference must be ground and fact shaped:
    [o : c], [o\[m -> r\]] or [o\[m ->> {r}\]]; paths are resolved against
    the store.
    @raise Invalid on other shapes *)
val why :
  ?budget:Budget.t -> t -> Syntax.Ast.reference -> Provenance.proof option
(** [budget] bounds the proof reconstruction (it replays rule bodies);
    exhaustion raises {!Budget.Exhausted}. *)

val why_string : ?budget:Budget.t -> t -> string -> Provenance.proof option

(** Model check: do all rules hold in the current store? Brute force over
    variable valuations — tests and small programs only. *)
val verify_model : t -> (unit, Syntax.Ast.rule * string) result
