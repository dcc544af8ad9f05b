(** Combinators for constructing PathLog ASTs programmatically — used by the
    workload generators, tests and examples instead of going through the
    parser.

    {[
      let open Syntax.Build in
      fact (obj "e1" @: "employee" |-> ("age", int 30) |-> ("city", obj "newYork"))
    ]} *)

open Ast

val obj : string -> reference  (** a name *)

val var : string -> reference

val int : int -> reference

val str : string -> reference

val paren : reference -> reference

(** [t @: c] is the molecule [t : c]. *)
val ( @: ) : reference -> string -> reference

(** [t |-> (m, r)] is the molecule [t\[m -> r\]]. *)
val ( |-> ) : reference -> string * reference -> reference

(** [t |->> (m, rs)] is the molecule [t\[m ->> {rs}\]]. *)
val ( |->> ) : reference -> string * reference list -> reference

(** [t |->>+ (m, s)] is the molecule [t\[m ->> s\]] with a set-valued
    reference right-hand side. *)
val ( |->>+ ) : reference -> string * reference -> reference

(** [dot t m] is the scalar path [t.m]; [dotdot t m] is [t..m]. *)
val dot : ?args:reference list -> reference -> string -> reference

val dotdot : ?args:reference list -> reference -> string -> reference

val dotdot_ref : ?args:reference list -> reference -> reference -> reference

val fact : reference -> statement

val rule : reference -> literal list -> statement

val query : literal list -> statement

val pos : reference -> literal

(** [scalar_sig c m r] is the declaration [c\[m => r\]]. *)
val scalar_sig : ?args:string list -> string -> string -> string -> statement

val set_sig : ?args:string list -> string -> string -> string -> statement
