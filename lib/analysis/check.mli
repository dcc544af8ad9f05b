(** The static-analysis driver behind [pathlog check] and the server's
    load gate.

    [analyze] runs the whole pipeline over program text and collects every
    diagnostic instead of stopping at the first problem: parse (PL001),
    per-statement well-formedness (PL010–PL017), signature loading
    (PL018), stratification (PL020), the signature type lint (PL021), and
    the whole-program analyses of {!Analyses} (PL030–PL041, PL060).
    Statements that fail well-formedness are excluded from the later
    stages; a parse error short-circuits everything (there is no
    statement stream to continue with). *)

type t = {
  diagnostics : Diagnostic.t list;
      (** sorted by source position, then severity *)
  n_rules : int;  (** rules (facts included) that passed well-formedness *)
  n_queries : int;  (** embedded queries that passed well-formedness *)
  n_strata : int;  (** 0 when stratification failed *)
}

val analyze : ?card_threshold:int -> string -> t
(** [card_threshold] tunes PL051 (1_000_000 predicted derivations
    when omitted). *)

val analyze_spanned :
  ?card_threshold:int -> (Syntax.Ast.statement * Syntax.Token.span) list -> t
(** {!analyze} of statements already parsed. *)

val ok : t -> bool
(** No error-severity diagnostics. *)

val worst : t -> Diagnostic.severity option
(** Highest severity present, [None] for a clean program. *)

val schema_version : int
(** Version of the JSON shape below; bumped on any change to fields,
    span encoding or ordering. *)

val to_json : t -> string
(** [{"schema_version":…,"ok":…,"rules":…,"queries":…,"strata":…,
    "diagnostics":[…]}]. Deterministic: diagnostics are sorted by
    (byte offset, code, severity, message), and spans carry both
    start and end byte offsets. *)

val program_of :
  string ->
  (Oodb.Store.t * Engine.Rule.t list * Syntax.Ast.literal list list) option
(** The compiled rules and embedded queries of a parseable program
    ([None] on a parse error; malformed statements are skipped). For
    callers that feed {!Absint} directly — [check --estimates],
    admission control. *)

val gate :
  ?deny:Diagnostic.severity -> ?card_threshold:int -> string ->
  (t, string) result
(** Refuse program text carrying diagnostics at or above [deny]
    (default [Error]); the error string is the rendered offending
    diagnostics, one per line. The server calls this before loading. *)

val gate_spanned :
  ?deny:Diagnostic.severity -> ?card_threshold:int -> string ->
  ((Syntax.Ast.statement * Syntax.Token.span) list * t, string) result
(** {!gate}, handing back the parsed statements as well, so a caller that
    loads the program ({!Engine.Program.of_spanned}) parses it once. *)
