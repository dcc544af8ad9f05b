(** Compiled rules: flattened body plus the dependency information the
    stratifier and the semi-naive fixpoint need. *)

type t = {
  uid : int;
      (** process-unique identity; the fixpoint engine keys its compiled
          plan cache on it *)
  source : Syntax.Ast.rule;
  origin : Syntax.Ast.rule option;
      (** for rules synthesized by a transform (demand guards, magic
          rules), the user-written rule they were derived from;
          diagnostics report this rule's text instead of the synthesized
          form *)
  span : Syntax.Token.span option;
      (** source extent of the statement the rule was parsed from, when it
          came from text (diagnostics anchor on it); transforms propagate
          the originating rule's span *)
  body : Semantics.Ir.query;
  head : Head.t;
      (** the source head compiled against [body]'s binding slots; every
          firing runs it *)
  defines : Semantics.Ir.rel list;
      (** relations the head may insert into (skolemised paths included) *)
  reads : Semantics.Ir.rel list;
      (** relations whose growth must re-trigger this rule: all body
          relations (top-level and nested) plus the relations a head
          set-valued right-hand side evaluates *)
  head_reads : Semantics.Ir.rel list;
      (** the part of [reads] the head's set-valued right-hand sides
          evaluate; a body atom seeded on a change cannot stand in for
          it *)
  completion_reads : Semantics.Ir.rel list;
      (** relations that must be fully computed before this rule runs: the
          sub-query relations of body set-inclusion filters and of negated
          literals (section 6 stratification) *)
  seedable : (Semantics.Ir.rel * int) list;
      (** top-level body atom indexes usable as semi-naive delta seeds,
          with the relation each one scans *)
  reads_any : bool;  (** reads [R_any]: re-evaluate on any change *)
  class_edges : (Oodb.Obj_id.t * Oodb.Obj_id.t) list;
      (** constant-to-constant class edges asserted by the head; the
          stratifier's static class hierarchy *)
}

(** A fact statement: a body-less statement whose head reads no relation.
    It is data, not a rule: {!Program} executes it into the store once,
    before any rule runs, and the analyses take its relations as their
    seeds. *)
type fact = {
  f_source : Syntax.Ast.rule;  (** the statement, with its empty body *)
  f_span : Syntax.Token.span option;
  f_defines : Semantics.Ir.rel list;  (** as {!t.defines} *)
  f_class_edges : (Oodb.Obj_id.t * Oodb.Obj_id.t) list;
      (** as {!t.class_edges} *)
}

(** A compiled statement: a fact, or a rule proper (a body, or a head
    that reads a relation, as [a\[f ->> b..g\]] does). *)
type statement = Fact of fact | Rule of t

(** Compile a well-formedness-checked statement, interning exactly what
    {!compile} would, in the same order. *)
val classify : ?span:Syntax.Token.span -> Oodb.Store.t -> Syntax.Ast.rule -> statement

(** Compile a well-formedness-checked rule. Interning happens against the
    store's universe. [origin] records the user-written rule a synthesized
    rule was derived from. *)
val compile :
  ?span:Syntax.Token.span ->
  ?origin:Syntax.Ast.rule ->
  Oodb.Store.t ->
  Syntax.Ast.rule ->
  t

(** Relations of scalar head paths that can create skolem (virtual)
    objects — [X.address], [M.tc] — for the static skolem-cycle analysis.
    Variable/computed method positions contribute [R_any]. *)
val skolem_defines :
  Oodb.Store.t -> Syntax.Ast.reference -> Semantics.Ir.rel list
