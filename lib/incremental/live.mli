(** Live mutation: incremental view maintenance over an evaluated program.

    A [Live.t] wraps an evaluated {!Engine.Program.t} and keeps a support
    index over its minimal model, so batches of asserted and retracted
    facts (and rules) maintain the model without recomputing it:

    - {b Asserts} re-enter the fixpoint as ordinary semi-naive delta
      rounds: relation watermarks are captured before the batch, the new
      extensional tuples are inserted, and only rules reading a grown
      relation re-evaluate, seeded at the watermark.
    - {b Retracts} cascade through the support index. Each derived fact
      carries a count of live derivations. In {e non-recursive} strata
      counting is exact (support cannot be cyclic), and a derivation that
      lost a body fact is first re-validated — replayed against the store
      under its recorded bindings — so an alternative support set (a
      different isa chain) keeps the fact alive. In {e recursive} strata
      counts cannot be trusted (cyclic derivations sustain each other), so
      affected facts are {e over-deleted} and a re-derivation pass (DRed)
      restores whatever still has well-founded support.
    - {b Negation / inclusion}: when the batch can transitively affect a
      relation some rule reads under completion semantics, incremental
      maintenance is unsound in both directions; the batch falls back to
      an honest recompute from the extensional store. Rule retraction
      takes the same path.

    Every committed batch leaves the store at a new epoch (each physical
    insert/tombstone bumps it), so validated readers and the epoch-keyed
    query cache invalidate exactly as they do for loads. *)

type t

exception Rejected of string
(** The batch was refused (parse error, ill-formed statement, unknown
    rule, non-extensional retraction, conflict, unstratifiable result) and
    the store was left exactly as before the call. *)

type strategy =
  | Counting  (** pure counting maintenance (delta rounds / cascade) *)
  | Dred  (** counting over-deleted; a re-derivation pass ran *)
  | Recompute  (** full recompute from the extensional store *)

val strategy_name : strategy -> string

type batch_stats = {
  epoch : int;  (** store epoch after the commit *)
  added : string list;  (** net model facts added (rendered, sorted) *)
  removed : string list;  (** net model facts removed (rendered, sorted) *)
  strategy : strategy;
  fixpoint : Engine.Fixpoint.stats option;
      (** the maintenance run, when one was needed *)
}

(** Evaluate the program unless it is already
    {!Engine.Program.materialised}, and build the support index: the
    extensional multiplicities from its fact statements, and one recorded
    derivation per (rule, body solution) from a tracing fixpoint pass.
    The magic tuples and fragments earlier demand queries left are
    dropped, and the run re-derives the fragments under the program's rules. *)
val attach : Engine.Program.t -> t

val program : t -> Engine.Program.t

val store : t -> Oodb.Store.t

(** The current proper (non-fact) rules. *)
val rules : t -> Engine.Rule.t list

(** Assert a batch of statements (facts, rules, signature declarations;
    parsed as ordinary PathLog text). Atomic: on [Rejected] — or any
    evaluation failure such as a scalar conflict — the model is restored
    to its pre-batch state.
    @raise Rejected *)
val assert_batch : t -> string -> batch_stats

(** Retract a batch of statements: fact statements must resolve to
    extensional facts (multiplicity-positive), rule statements must match
    a live rule structurally. Atomic as {!assert_batch}.
    @raise Rejected *)
val retract_batch : t -> string -> batch_stats

(** Install (or clear) the pre-commit log hook, the durability seam:
    called with the batch verb, the post-commit store epoch and the
    batch text after the maintenance run succeeds but {e before}
    {!assert_batch}/{!retract_batch} return. If the hook raises — an
    injected WAL fault, a real disk error — the batch is rolled back
    exactly like any other mid-batch failure and the exception
    propagates: a batch reaches the log iff it reaches the model. *)
val set_commit_hook :
  t -> (retract:bool -> epoch:int -> text:string -> unit) option -> unit

(** The live source: current extensional facts plus current rules, as a
    loadable PathLog program. [Program.of_string] on this text rebuilds an
    isomorphic model — the reference point for equivalence testing and
    chaos replay. A fact appears once per extensional multiplicity
    (asserting twice takes two retracts to undo), so {!attach} on the
    reloaded program restores the multiset exactly — snapshots would
    otherwise flatten the counts and recovery would over-retract. The
    fact lines are {!Engine.Fact.lines}, the model renderer's printer.
    A what-if analysis is a batch on a scratch copy:
    [attach (Program.of_string (dump_source t))]. *)
val dump_source : t -> string

(** Support-index audit: every live derivation rests on live facts,
    counts agree with the live derivation multiset, every live stored
    fact has extensional or derived support. Returns violations (empty
    when consistent). *)
val check_support : t -> string list
