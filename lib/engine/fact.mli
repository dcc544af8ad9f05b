(** Ground facts — the unit of provenance.

    Every tuple the engine inserts is one of these; {!Provenance} maps them
    to the rule and variable valuation that derived them. *)

type t =
  | F_isa of Oodb.Obj_id.t * Oodb.Obj_id.t
  | F_scalar of app
  | F_set of app

and app = {
  meth : Oodb.Obj_id.t;
  recv : Oodb.Obj_id.t;
  args : Oodb.Obj_id.t list;
  res : Oodb.Obj_id.t;
}

val equal : t -> t -> bool

val hash : t -> int

(** The one fact printer, appending to a buffer: [o : c],
    [o\[m@(a, b) -> r\]], [o\[m ->> {r}\]]. Objects print as
    {!Oodb.Universe.add_obj} writes them; virtual objects in method and
    class position are parenthesised ([o : (kids.tc)]), so the text parses
    back to the same fact. *)
val add : Oodb.Universe.t -> Buffer.t -> t -> unit

(** {!add} as a [Format] printer. *)
val pp : Oodb.Universe.t -> Format.formatter -> t -> unit

(** Demand's magic methods are set methods named [magic$...] ([$] cannot
    be lexed, so no user method collides); {!lines} skips their facts. *)
val magic_prefix : string

val is_magic_name : string -> bool

(** Every live fact of the store: isa edges, scalar, then set tuples. *)
val iter_live : Oodb.Store.t -> (t -> unit) -> unit

(** The facts an iterator yields, printed by {!pp} with [stop] appended
    (default none), sorted; magic facts are skipped. Duplicates the
    iterator yields are kept. *)
val lines :
  ?stop:string -> Oodb.Universe.t -> ((t -> unit) -> unit) -> string list

(** The model renderer: the store's live facts as sorted fact statements
    ([lines ~stop:"."] over {!iter_live}). Reloading them with
    [Program.of_string] rebuilds an isomorphic store: virtual objects
    re-skolemise deterministically. *)
val model : Oodb.Store.t -> string list

(** Recognise a ground fact-shaped reference: [o : c],
    [o\[m@(args) -> r\]], or [o\[m@(args) ->> {r}\]] with a single element,
    where every position is a name, literal, or an already-existing path
    (resolved against the store without creating anything). *)
val of_reference : Oodb.Store.t -> Syntax.Ast.reference -> t option
