(** Live mutation: incremental view maintenance over an evaluated program.

    A [Live.t] wraps an evaluated {!Engine.Program.t} and maintains its
    minimal model under batches of asserted and retracted facts (and
    rules). Beside the store and the program's provenance table it keeps
    only the extensional multiplicities:

    - {b Asserts} re-enter the fixpoint as semi-naive delta rounds from
      relation watermarks captured before the batch.
    - {b Retracts} run Backward/Forward (Motik, Nenov, Piro, Horrocks,
      AAAI 2015): the rules solved with a body atom bound to a lost fact
      name its candidate consequences; a candidate stays, re-pointed, if a
      backward search finds it a well-founded proof (its provenance record
      first, then the other rules defining its relation); the others are
      deleted and their consequences become candidates. Delta rounds then
      re-derive what the search could not decide.
    - {b Negation / inclusion}: when the batch can transitively affect a
      relation some rule reads under completion semantics, the batch
      recomputes from the extensional store, as rule retraction does.

    Every committed batch leaves the store at a new epoch (each physical
    insert/tombstone bumps it), so validated readers and the epoch-keyed
    query cache invalidate exactly as they do for loads. *)

type t

exception Rejected of string
(** The batch was refused (parse error, ill-formed statement, unknown
    rule, non-extensional retraction, conflict, unstratifiable result) and
    the store was left exactly as before the call. *)

type strategy =
  | Counting
      (** an assert, or a retraction whose derived consequences all keep
          a proof: only retracted statements left the model *)
  | Dred  (** a retraction that deleted at least one derived fact *)
  | Recompute  (** full recompute from the extensional store *)

val strategy_name : strategy -> string

type batch_stats = {
  epoch : int;  (** store epoch after the commit *)
  added : string list;  (** net model facts added (rendered, sorted) *)
  removed : string list;  (** net model facts removed (rendered, sorted) *)
  strategy : strategy;
  fixpoint : Engine.Fixpoint.stats option;
      (** the maintenance run, when one was needed; a fact retraction's
          [rule_evaluations] also counts the rules its backward step
          solved *)
}

(** Register the extensional multiplicities from the program's fact
    statements and evaluate the program unless it is already
    {!Engine.Program.materialised}. The magic tuples and fragments earlier
    demand queries left are dropped, and the run re-derives the fragments
    under the program's rules. *)
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

(** Provenance audit: every live fact's record names a proof it still
    has — a statement, or a derivation that replays on live facts — the
    records form no cycle (so WHY is well-founded), and every fact with a
    statement is live. Returns violations (empty when consistent). *)
val check_support : t -> string list
