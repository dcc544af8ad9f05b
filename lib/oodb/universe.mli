(** The universe [U] of objects and the naming function [I_N].

    Following section 3 of the paper, the set of names [N] contains symbolic
    names, integers and strings; [I_N : N -> U] maps each name to an object.
    We intern names so that [I_N] is injective on the extensional part —
    distinct names denote distinct objects — which yields the Herbrand-style
    structures the bottom-up evaluation computes. Virtual objects created by
    rules (section 6) are skolem objects: they carry the method application
    that denotes them but no name. *)

type t

type descriptor =
  | Name of string  (** symbolic name, e.g. [employee], [john] *)
  | Int of int  (** integer value-object *)
  | Str of string  (** string value-object *)
  | Skolem of skolem  (** virtual object (section 6) *)

and skolem = {
  meth : Obj_id.t;  (** the method whose application denotes the object *)
  recv : Obj_id.t;  (** the receiver *)
  args : Obj_id.t list;  (** the argument objects *)
  ordinal : int;  (** creation rank, for stable printing *)
}

val create : unit -> t

(** Number of objects allocated so far. Ids are dense in [0..card-1]. *)
val cardinality : t -> int

(** [name u s] interns the symbolic name [s]; idempotent. *)
val name : t -> string -> Obj_id.t

(** [int u n] interns the integer value-object [n]. *)
val int : t -> int -> Obj_id.t

(** [str u s] interns the string value-object [s]. *)
val str : t -> string -> Obj_id.t

(** [find_name u s] is the object named [s], if already interned. *)
val find_name : t -> string -> Obj_id.t option

(** [skolem u ~meth ~recv ~args] returns the virtual object denoted by the
    scalar method application [recv.meth@(args)], creating it on first use.
    Deterministic: the same application always yields the same object. *)
val skolem : t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> Obj_id.t

(** The virtual object of [recv.meth@(args)], if {!skolem} created it. *)
val find_skolem :
  t -> meth:Obj_id.t -> recv:Obj_id.t -> args:Obj_id.t list -> Obj_id.t option

(** [scoped u f] runs [f], then forgets every object interned since it
    started, so the universe is as [f] found it: the static analyses
    resolve query text against a program's names this way without
    numbering anything new. Nothing else may intern meanwhile, and no id
    interned inside may be kept. *)
val scoped : t -> (unit -> 'a) -> 'a

(** Objects created by {!skolem}, in creation order. *)
val skolems : t -> Obj_id.t list

val descriptor : t -> Obj_id.t -> descriptor

val is_skolem : t -> Obj_id.t -> bool

(** [add_obj u b o] appends [o] to [b] the way the paper writes it: names
    bare, integers in decimal, strings quoted as OCaml's [%S] does,
    skolems as the path that denotes them, e.g. [p1.boss] or
    [p1.salary\@(1994,x)], with a virtual method parenthesised
    ([p1.(kids.tc)]) so the text parses back to the same object. *)
val add_obj : t -> Buffer.t -> Obj_id.t -> unit

(** {!add_obj}, parenthesising a skolem: for method and class positions,
    where the parser would otherwise read a path ([o : (kids.tc)]). *)
val add_paren : t -> Buffer.t -> Obj_id.t -> unit

(** [to_string u o] is the text {!add_obj} writes; a name's own string,
    unallocated. *)
val to_string : t -> Obj_id.t -> string

(** {!add_obj} as a [Format] printer. *)
val pp_obj : t -> Format.formatter -> Obj_id.t -> unit

(** {!add_paren} as a [Format] printer. *)
val pp_paren : t -> Format.formatter -> Obj_id.t -> unit

(** Iterate over all objects in id order. *)
val iter : t -> (Obj_id.t -> descriptor -> unit) -> unit
