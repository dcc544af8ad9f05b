(** Pretty-printing back to concrete PathLog syntax.

    The output reparses to the same AST ([Parser.reference (to_string t) =
    t] for parser-produced [t]); property-tested in the test suite.
    Method and class positions that are not simple references are
    defensively parenthesised, so printing is total even for hand-built
    ASTs. *)

(** The one printer, appending to a buffer; the [pp_] printers and the
    [_to_string] functions render through it. *)

val add_reference : Buffer.t -> Ast.reference -> unit

val add_literal : Buffer.t -> Ast.literal -> unit

val add_rule : Buffer.t -> Ast.rule -> unit

val pp_reference : Format.formatter -> Ast.reference -> unit

val pp_literal : Format.formatter -> Ast.literal -> unit

val pp_rule : Format.formatter -> Ast.rule -> unit

val pp_program : Format.formatter -> Ast.program -> unit

val reference_to_string : Ast.reference -> string

val rule_to_string : Ast.rule -> string

val statement_to_string : Ast.statement -> string

val program_to_string : Ast.program -> string
