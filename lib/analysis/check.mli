(** The static-analysis driver behind [pathlog check] and the server's
    load gate.

    [analyze] runs the whole pipeline over program text and collects every
    diagnostic instead of stopping at the first problem: parse (PL001),
    per-statement well-formedness (PL010–PL017), signature loading
    (PL018), stratification (PL020), the signature type lint (PL021), and
    the whole-program analyses of {!Analyses} (PL030–PL041, PL060).
    Statements that fail well-formedness are excluded from the later
    stages; a parse error short-circuits everything (there is no
    statement stream to continue with).

    The analyses run over the program itself ({!Engine.Program.compile}):
    its rules, and its fact statements as data, each fact check one pass
    over the extensional list. The program is handed back unrun, so a
    server compiles and stratifies its text once; the analyses intern
    nothing into its store. *)

type t = {
  diagnostics : Diagnostic.t list;
      (** sorted by source position, then severity *)
  n_rules : int;
      (** statements, facts and rules, that passed well-formedness *)
  n_queries : int;  (** embedded queries that passed well-formedness *)
  n_strata : int;  (** 0 when stratification failed *)
  program : Engine.Program.t option;
      (** the analysed program, unless it failed to parse or stratify;
          not yet run. The analyses leave its object numbering as
          compiling it alone gives. *)
  estimates : string list;
      (** {!Absint.describe}'s report, when asked for *)
}

val analyze :
  ?card_threshold:int ->
  ?estimates:bool ->
  ?config:Engine.Fixpoint.config ->
  string ->
  t
(** [card_threshold] tunes PL051 (1_000_000 predicted derivations
    when omitted). [estimates] fills {!t.estimates}; [config] is the
    program's. *)

val analyze_spanned :
  ?card_threshold:int ->
  ?estimates:bool ->
  ?config:Engine.Fixpoint.config ->
  (Syntax.Ast.statement * Syntax.Token.span) list ->
  t
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

val gate :
  ?deny:Diagnostic.severity -> ?card_threshold:int -> string ->
  (t, string) result
(** Refuse program text carrying diagnostics at or above [deny]
    (default [Error]); the error string is the rendered offending
    diagnostics, one per line. The server gates each write batch and
    each replayed WAL record with it. *)

val gate_program :
  ?deny:Diagnostic.severity ->
  ?card_threshold:int ->
  ?config:Engine.Fixpoint.config ->
  string ->
  (Engine.Program.t * t, string) result
(** {!gate}, handing back the analysed program as well: a caller that
    serves it parses, compiles and stratifies the text once. *)
