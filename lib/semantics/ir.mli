(** Internal representation: references flattened to conjunctions of core
    atoms.

    This is the formal counterpart of the paper's key observation that a
    two-dimensional path expression replaces a {e conjunction} of
    one-dimensional paths: {!Flatten} turns any well-formed reference into
    the equivalent conjunction over fresh intermediate variables, and both
    the query solver and the relational baseline consume this form. *)

type term =
  | Const of Oodb.Obj_id.t
  | V of int  (** variable slot *)

type label = {
  lbl_set : bool;  (** set-valued ([..]) vs scalar ([.]) edge relation *)
  lbl_meth : Oodb.Obj_id.t;
  lbl_args : Oodb.Obj_id.t list;
}
(** One transition label of a path automaton: a ground method
    application. *)

type automaton = {
  a_nstates : int;
  a_start : int;
  a_accept : bool array;
  a_trans : (label * int) array array;  (** forward transitions per state *)
  a_rtrans : (label * int) array array;  (** reverse transitions per state *)
}
(** An epsilon-free NFA over ground labels, compiled from a regular path
    by {!Flatten} (Thompson construction, epsilon closures folded in,
    unreachable states pruned). *)

type atom =
  | A_isa of term * term  (** [recv <=_U cls] *)
  | A_scalar of app  (** [I_->(meth)(recv, args) = res] *)
  | A_member of app  (** [res ∈ I_->>(meth)(recv, args)] *)
  | A_eq of term * term  (** unification; the built-in method [self] *)
  | A_subset of subset
      (** [I_->>(meth)(recv, args) ⊇ {member | sub_atoms}] — the
          set-inclusion filter [t0\[m ->> s\]] with a set-valued reference
          [s]; requires stratification when [s] is intensional. *)
  | A_neg of negation
      (** no extension of the current binding satisfies [n_atoms]
          (stratified-negation extension) *)
  | A_regex of regex_app
      (** [x_res] reachable from [x_recv] along a word of the automaton's
          language — evaluated as an automaton-product join in {!Solve} *)

and app = { meth : term; recv : term; args : term list; res : term }

and regex_app = { x_auto : automaton; x_recv : term; x_res : term }

and subset = {
  s_meth : term;
  s_recv : term;
  s_args : term list;
  sub_atoms : atom list;
  member : term;  (** ranges over the members of the included set *)
  s_outer : int list;  (** slots that must be bound before evaluation *)
  s_locals : int list;  (** slots quantified inside the set reference *)
}

and negation = {
  n_atoms : atom list;
  n_outer : int list;
  n_locals : int list;
}

(** The relation a (positive, constant-method) atom reads or writes; used
    for dependency analysis, stratification and semi-naive deltas. [R_any]
    stands for "could be any relation" (variable or computed method
    position, as in the generic [kids.tc] program of section 6). *)
type rel =
  | R_isa  (** class membership with a non-constant class position *)
  | R_isa_c of Oodb.Obj_id.t  (** class membership of one named class *)
  | R_scalar of Oodb.Obj_id.t
  | R_set of Oodb.Obj_id.t
  | R_any

val equal_rel : rel -> rel -> bool

val compare_rel : rel -> rel -> int

type query = {
  atoms : atom list;
  nvars : int;  (** slots are numbered [0 .. nvars-1] *)
  named : (string * int) list;  (** source-variable name -> slot *)
}

val pp_atom : Oodb.Universe.t -> Format.formatter -> atom -> unit

val pp_query : Oodb.Universe.t -> Format.formatter -> query -> unit

val pp_rel : Oodb.Universe.t -> Format.formatter -> rel -> unit

(** Variable slots occurring in an atom, outermost level only (the locals of
    [A_subset]/[A_neg] sub-queries are not included, their outer slots
    are). *)
val atom_vars : atom -> int list

(** The relation an atom reads. [A_eq] reads nothing ([None]); so does
    [A_regex], whose multi-relation reads are exposed by
    {!automaton_rels} and {!query_rels} instead. *)
val atom_rel : atom -> rel option

(** The relation one transition label reads. *)
val label_rel : label -> rel

(** Distinct relations an automaton's transitions read. *)
val automaton_rels : automaton -> rel list

(** Collapse per-class membership relations ([R_isa_c]) to the shared isa
    edge log ([R_isa]) — the runtime store does not refine memberships per
    class, only the stratifier does. *)
val norm_rel : rel -> rel

(** All relations a query reads, normalised with {!norm_rel}, including
    those inside set-inclusion and negation sub-queries. *)
val query_rels : atom list -> rel list
