(** Static rule typing against signature declarations — a lint.

    The paper (section 2) motivates method-based virtual objects partly by
    the fact that signatures "make type checking techniques applicable" in
    the sense of [KLW93]. {!Oodb.Signature.check} is the dynamic half
    (validate the computed model); this module is the static half: without
    running the program, infer classes for rule variables from the body's
    membership literals and flag head method assertions that contradict an
    applicable signature.

    It is an approximation in both directions and is reported as warnings:
    variables whose class cannot be inferred are not checked, and
    hierarchy information is limited to the constant class edges visible in
    the program (same approximation as the stratifier). *)

type warning = {
  w_rule : Syntax.Ast.rule;
  w_span : Syntax.Token.span option;
      (** source extent of the rule's statement, when parsed from text *)
  w_message : string;
}

val pp_warning : Format.formatter -> warning -> unit

(** Check every rule of a compiled program against declared signatures.
    A fact's head is ground, so it has no inferred classes to check; its
    class edges join the hierarchy. *)
val check_rules :
  facts:Rule.fact list ->
  Oodb.Store.t -> Oodb.Signature.t -> Rule.t list -> warning list
