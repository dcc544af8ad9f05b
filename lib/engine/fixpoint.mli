(** Bottom-up evaluation to the minimal model, stratum by stratum.

    Within a stratum the engine iterates rule application until saturation.
    Two modes:

    - [Naive]: every rule re-evaluated from scratch every round; the
      baseline the classic semi-naive optimisation is measured against
      (experiment E7/E10).
    - [Seminaive]: a rule is re-evaluated only when a relation it reads
      grew in the previous round, and each matching top-level body atom is
      {e seeded} with the delta suffix of that relation's bucket, so joins
      start from the new tuples. Rules whose trigger is not seedable — a
      variable method position, a changed relation appearing only inside a
      set-inclusion filter or a head right-hand side — fall back to full
      re-evaluation for that round. Relevance and delta checks run on
      interned relation ids over plain arrays; no per-round map snapshots.

    Each (rule, seed adornment) pair gets a join order compiled once from
    the static cost model ({!Semantics.Solve.compile_plan}) and cached
    across rounds and strata (keyed by {!Rule.t.uid}), recompiled only
    when the store has roughly doubled since compilation.

    With [jobs > 1] each round runs domain-parallel: the round's (rule,
    seed) evaluation tasks solve their bodies concurrently against the
    quiescent store into private production buffers, then a
    single-threaded merge executes heads in task order, then discovery
    order — a deterministic schedule. The final model is identical to
    [jobs = 1] (evaluation is monotone and skolems are keyed by their
    defining path, so the derived fact set is confluent; property-tested),
    but per-round counters differ: rules no longer see derivations made
    earlier in the {e same} round, so saturation can take more rounds. *)

(** Skolemisation can make the minimal model infinite; [max_rounds] and
    [max_objects] bound the evaluation and {!Err.Diverged} reports the
    budget exceeded. *)

type mode = Naive | Seminaive

type config = {
  mode : mode;
  hilog_virtual : bool;
      (** enumerate virtual (skolem) objects for variable method positions;
          see {!Semantics.Solve.iter}. Default [false]: the literal
          semantics makes programs like the generic [tc] diverge. *)
  max_rounds : int;  (** per stratum *)
  max_objects : int;  (** universe cardinality budget *)
  jobs : int;
      (** degree of parallelism: rule-body evaluations per round run on
          this many domains (the calling domain included). [1] is the
          historical sequential engine, bit for bit. Must be [>= 1]. *)
  budget : Budget.t option;
      (** soft evaluation budget: deadline, cancellation token, work
          caps. Checked at round boundaries, between parallel task
          claims, and from the solver's cooperative poll. Exhaustion does
          {e not} raise out of {!run}: the run stops, the store keeps the
          sound partial model derived so far, and {!stats.degraded}
          records the reason. Default [None]. *)
}

(** [jobs] defaults to [1], or to [$PATHLOG_JOBS] when that environment
    variable holds an integer [>= 1] — the hook CI uses to run the whole
    test corpus through the parallel evaluator. *)
val default_config : config

type stats = {
  mutable rounds : int;  (** total evaluation rounds across strata *)
  mutable rule_evaluations : int;  (** rule-evaluation passes *)
  mutable firings : int;  (** body solutions found *)
  mutable insertions : int;  (** new tuples/edges inserted *)
  strata : int;  (** number of strata *)
  mutable degraded : Budget.reason option;
      (** [Some r] when the run was cut short by its budget: the model is
          a sound subset of the minimal model (evaluation is monotone, so
          every derived fact is entailed — only completeness is lost) *)
}

val pp_stats : Format.formatter -> stats -> unit

(** The solver interrupt for a budget: polls cancellation + deadline, and
    the {!Fault.Solver_step} injection point when the fault registry is
    armed; [None] when there is nothing to poll. Exposed for query-time
    evaluation ({!Program.query}), which runs outside the fixpoint. *)
val interrupt_of : Budget.t option -> (unit -> unit) option

(** Compiled-plan cache, keyed by (rule uid, seed adornment). {!run}
    creates a private one when none is passed; callers that evaluate the
    same program repeatedly ({!Program.t} does) pass one shared cache so
    plans survive across runs. Plans are recompiled in place when the
    store outgrows them, so sharing is always sound. *)
type plan_cache

val plan_cache : unit -> plan_cache

(** Compiled plans currently cached. *)
val plan_count : plan_cache -> int

(** Drop every plan compiled for one of these rule uids — for callers
    that retire generated rules and would otherwise leave their plans
    behind. *)
val forget_plans : plan_cache -> int list -> unit

(** The current per-relation watermark: every relation's raw bucket/log
    length (tombstoned entries included, so lengths are append-monotone;
    a relation first seen later reads as [0], i.e. wholly delta). Pass it
    back as {!run}'s [from] to propagate everything inserted since. *)
val watermark : Oodb.Store.t -> Semantics.Ir.rel -> int

(** Evaluate the stratified program against the store.
    @raise Err.Functional_conflict
    @raise Err.Isa_cycle
    @raise Err.Reserved_self
    @raise Err.Diverged *)
val run :
  ?config:config ->
  ?provenance:Provenance.t ->
  ?on_insert:(Fact.t -> unit) ->
  ?from:(Semantics.Ir.rel -> int) ->
  ?plans:plan_cache ->
  Oodb.Store.t ->
  Stratify.t ->
  stats
(** [provenance] records the first derivation of every inserted tuple.

    [on_insert] is called once per tuple actually inserted, after
    provenance recording — the hook incremental maintenance uses to track
    the net model delta of a run.

    [from] gives a per-relation watermark (a bucket/log length captured
    earlier). When set, every stratum skips its full first round and goes
    straight to semi-naive delta rounds seeded at the watermark: only
    rules reading a relation that grew past its watermark re-evaluate.
    This is how a committed batch of new facts propagates without
    re-running the whole program. The watermarks must come from a moment
    no later than the insertions to propagate (raw lengths are
    append-monotone; tombstoned entries still count). *)
