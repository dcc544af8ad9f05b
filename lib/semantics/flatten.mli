(** Flattening references to conjunctions of core atoms.

    This realises, constructively, the paper's central observation: the
    two-dimensional path

    {v X : employee[age -> 30]..vehicles : automobile[cylinders -> 4].color[Z] v}

    is the conjunction

    {v isa(X, employee) & scalar(age; X) = 30 & member(V) in set(vehicles; X)
       & isa(V, automobile) & scalar(cylinders; V) = 4
       & scalar(color; V) = Z v}

    over a fresh intermediate variable [V] — which is exactly the
    "conjunction of several one-dimensional paths" (query 1.4) that XSQL
    needs. Names are interned into the store's universe during flattening.

    The built-in method [self] is compiled away: [t.self] and [t..self]
    flatten to [t], and [t\[self -> r\]] to an equality atom, implementing
    "for every object the method self yields the object itself".

    Signature arrows are not formulas; flattening one raises
    [Invalid_argument]. Callers are expected to have run {!Syntax.Wellformed}
    first. *)

(** [reference store t] is the query whose solutions (projected on the
    result term) are exactly [nu_I(t)]; the result term denotes the
    object(s) the reference evaluates to. *)
val reference : Oodb.Store.t -> Syntax.Ast.reference -> Ir.query * Ir.term

(** Flatten a conjunction of body or query literals; shared variables keep
    shared slots. *)
val literals : Oodb.Store.t -> Syntax.Ast.literal list -> Ir.query
