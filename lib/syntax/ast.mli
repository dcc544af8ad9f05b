(** Abstract syntax of PathLog (Definition 1 of the paper).

    References subsume paths and molecules and are mutually nested in the
    liberal way the paper allows: anywhere a sub-molecule may appear a path
    may appear, and vice versa. Parenthesised references are a distinct
    constructor, exactly as in Definition 1 — they matter for the class
    position ([L : (integer.list)] vs [L : integer.list]). *)

type scal =
  | Dot  (** [.] — scalar method application *)
  | Dotdot  (** [..] — set-valued method application *)

type reference =
  | Name of string  (** lowercase identifier; also classes and methods *)
  | Int_lit of int
  | Str_lit of string
  | Var of string  (** capitalised identifier *)
  | Paren of reference  (** [(t)] *)
  | Path of path  (** [t.m@(t1,...,tk)] or [t..m@(t1,...,tk)] *)
  | Regex of { x_recv : reference; x_re : regex }
      (** [t.m*], [t.(a|b)+], ... — a regular path step (X2Traverse-style
          Or/Concat/StarLike over path literals); denotes the set of
          objects reachable from [x_recv] along any word of [x_re] *)
  | Filter of filter  (** [t[m@(args) -> r]] and the other molecule forms *)
  | Isa of { recv : reference; cls : reference }  (** [t : c] *)

and regex =
  | Rlit of { l_sep : scal; l_meth : reference; l_args : reference list }
      (** one step: a named method with constant arguments; [l_sep]
          selects the scalar ([.]) or set-valued ([..]) edge relation *)
  | Rseq of regex list  (** concatenation, flattened (length >= 2) *)
  | Ralt of regex list  (** alternation [a|b], flattened (length >= 2) *)
  | Rstar of regex
  | Rplus of regex
  | Ropt of regex

and path = {
  p_recv : reference;
  p_sep : scal;
  p_meth : reference;  (** a simple reference (parser-enforced) *)
  p_args : reference list;
}

and filter = {
  f_recv : reference;
  f_meth : reference;  (** a simple reference (parser-enforced) *)
  f_args : reference list;
  f_rhs : filter_rhs;
}

and filter_rhs =
  | Rscalar of reference  (** [m -> t] *)
  | Rset_ref of reference  (** [m ->> s], [s] a set-valued reference *)
  | Rset_enum of reference list  (** [m ->> {t1,...,tl}] *)
  | Rsig_scalar of reference  (** [m => c] — signature, statement level only *)
  | Rsig_set of reference  (** [m =>> c] — signature, statement level only *)

type literal =
  | Pos of reference
  | Neg of reference  (** [not t] — stratified-negation extension *)

type rule = { head : reference; body : literal list }
(** A fact is a rule with an empty body. *)

type statement =
  | Rule of rule
  | Query of literal list  (** [?- l1, ..., ln.] *)

type program = statement list

val equal_reference : reference -> reference -> bool

val equal_statement : statement -> statement -> bool

(** [is_simple t] — simple references per Definition 1: names, variables,
    literals and parenthesised references. *)
val is_simple : reference -> bool

(** Free variables, left-to-right first occurrence order, no duplicates.
    The anonymous variable [_] is excluded: each of its occurrences stands
    for a fresh existential variable. *)
val vars_of_reference : reference -> string list

val vars_of_literal : literal -> string list

val vars_of_rule : rule -> string list

(** [fact r] is the rule [r <- .] *)
val fact : reference -> rule

(** Fold over every sub-reference (pre-order, including the root and the
    method/argument references of regular path literals). *)
val fold_reference : ('a -> reference -> 'a) -> 'a -> reference -> 'a

(** Fold over the method and argument references of every literal. *)
val fold_regex : ('a -> reference -> 'a) -> 'a -> regex -> 'a

(** Separator of the leftmost literal — the separator printed before the
    whole regular step. All heads of an alternation share it. *)
val regex_lead_sep : regex -> scal
