(** Parametric object-link graphs: scalar-method chains and set-method DAGs
    for scaling the solver and the fixpoint independently of the company
    domain. *)

(** [scalar_chain ~name ~length] — objects [name0 .. name<length>] linked by
    the scalar method [next]: navigating [name0.next.next...] has exactly
    one answer. *)
val scalar_chain : name:string -> length:int -> Syntax.Ast.statement list

(** [layered_dag ~layers ~width ~fanout ~seed] — a DAG of [layers]×[width]
    objects where each object links (set method [to_]) to [fanout] random
    objects of the next layer. Good join-depth stress. *)
val layered_dag :
  layers:int -> width:int -> fanout:int -> seed:int ->
  Syntax.Ast.statement list

