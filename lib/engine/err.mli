(** Evaluation-time errors shared by the engine modules. *)

type functional_conflict = {
  c_meth : Oodb.Obj_id.t;
  c_recv : Oodb.Obj_id.t;
  c_args : Oodb.Obj_id.t list;
  existing : Oodb.Obj_id.t;
  proposed : Oodb.Obj_id.t;
  rule : Syntax.Ast.rule option;  (** the rule whose head caused it *)
}

exception Functional_conflict of functional_conflict
(** Two derivations assign different results to the same scalar method
    application; scalar methods interpret partial {e functions}
    (section 3), so this is an inconsistent program. *)

exception Isa_cycle of Oodb.Obj_id.t * Oodb.Obj_id.t
(** Deriving this class edge would close a hierarchy cycle, breaking the
    antisymmetry of the partial order [<=_U]. *)

exception Reserved_self
(** A rule tries to define the built-in method [self]. *)

type unstratifiable = {
  u_message : string;  (** the core message, no rule text embedded *)
  u_rule : Syntax.Ast.rule option;  (** offending rule, when one is known *)
}

exception Unstratifiable of unstratifiable
(** A set-inclusion body filter or a negation depends recursively on what
    it needs completed (section 6). *)

exception Diverged of string
(** Virtual-object creation exceeded the configured object or iteration
    budget; the program most likely has an infinite minimal model. *)

(** Raise {!Unstratifiable} from a format string, optionally naming the
    offending rule. *)
val unstratifiable :
  ?rule:Syntax.Ast.rule -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Render any of the above exceptions; [None] for other exceptions. *)
val message : Oodb.Store.t -> exn -> string option

(** {2 Process exit codes}

    Shared by every [pathlog] subcommand:
    {ul
    {- 0 — success.}
    {- {!exit_runtime} (1) — the program loaded but evaluation failed:
       scalar conflict, hierarchy cycle, divergence budget exceeded.}
    {- {!exit_load} (2) — the program did not load: lexing or parse error,
       ill-formed rule or query, bad signature declaration.}
    {- {!exit_analysis} (3) — static analysis refused the program:
       [check] found diagnostics at or above the [--deny] level, or
       [lint] / [run --types] reported issues.}} *)

val exit_runtime : int
val exit_load : int
val exit_analysis : int
