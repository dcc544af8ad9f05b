(** Naive conjunctive-query evaluation — the one-dimensional baseline.

    This evaluator deliberately plays the role of the flat, join-based
    query processing the paper's introduction contrasts path expressions
    with: atoms are evaluated strictly {e left to right as written}, every
    method atom is answered by {e scanning the method's whole extent} (one
    flat relation per method, no indexes, no reordering), and intermediate
    bindings are carried through nested loops.

    It is also an independent implementation of the same semantics as
    {!Semantics.Solve}, which the test suite uses for differential
    testing: on every query both evaluators must produce the same answer
    set. *)

(** Distinct named-variable rows, like {!Semantics.Solve.named_solutions}. *)
val named_solutions :
  Oodb.Store.t -> Semantics.Ir.query -> Oodb.Obj_id.t list list

val satisfiable : Oodb.Store.t -> Semantics.Ir.query -> bool
