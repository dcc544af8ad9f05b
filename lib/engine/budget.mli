(** Cooperative evaluation budgets: wall-clock deadlines, work caps, and
    a cancellation token, checked cheaply from the solver's enumeration
    loops and at fixpoint round boundaries.

    A budget is the {e soft} counterpart of the hard divergence guards in
    {!Fixpoint.config} ([max_rounds]/[max_objects] raise {!Err.Diverged},
    a hard error): exhausting a budget raises {!Exhausted}, which the
    fixpoint engine catches and converts into a {e degraded} result — the
    sound partial model computed so far, flagged in
    {!Fixpoint.stats.degraded} — and which query evaluation propagates so
    the server can answer [ERR TIMEOUT] / [ERR CANCELLED] mid-flight.

    The token is an [Atomic.t] flag, so cancellation works across
    domains: with [jobs > 1] every {!Dpool} worker polls it from inside
    its solver task and between task claims. *)

type reason =
  | Timeout  (** the wall-clock deadline passed *)
  | Cancelled  (** the cancellation token was set *)
  | Derivations  (** the rule-firing cap was hit *)
  | Objects  (** the universe-cardinality cap was hit *)

exception Exhausted of reason

type t

(** [create ()] is an unlimited budget carrying only a cancellation
    token. [deadline_at] is an absolute [Unix.gettimeofday] instant;
    [deadline_in] is relative to now ([deadline_at] wins when both are
    given). [cancel] shares an existing token (e.g. one server-wide
    shutdown flag across all in-flight requests). Caps bound the work of
    one evaluation: [max_derivations] caps rule firings, [max_objects]
    caps universe cardinality (skolem creation). *)
val create :
  ?deadline_at:float ->
  ?deadline_in:float ->
  ?cancel:bool Atomic.t ->
  ?max_derivations:int ->
  ?max_objects:int ->
  unit ->
  t

(** Set the cancellation token; every evaluation sharing it observes the
    flag at its next poll. Idempotent, safe from any thread or domain. *)
val cancel : t -> unit

val cancelled : t -> bool

val token : t -> bool Atomic.t

(** Raise {!Exhausted} if the token is set or the deadline has passed.
    The solver's poll: one atomic load plus (when a deadline is armed)
    one [gettimeofday]. *)
val check : t -> unit

(** {!check} plus the work caps; the fixpoint's round-boundary check. *)
val check_caps : t -> derivations:int -> objects:int -> unit

(** ["timeout"], ["cancelled"], ["derivations"], ["objects"]. *)
val reason_label : reason -> string

val pp_reason : Format.formatter -> reason -> unit
