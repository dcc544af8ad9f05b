type scal = Dot | Dotdot

type reference =
  | Name of string
  | Int_lit of int
  | Str_lit of string
  | Var of string
  | Paren of reference
  | Path of path
  | Regex of { x_recv : reference; x_re : regex }
  | Filter of filter
  | Isa of { recv : reference; cls : reference }

and regex =
  | Rlit of { l_sep : scal; l_meth : reference; l_args : reference list }
  | Rseq of regex list
  | Ralt of regex list
  | Rstar of regex
  | Rplus of regex
  | Ropt of regex

and path = {
  p_recv : reference;
  p_sep : scal;
  p_meth : reference;
  p_args : reference list;
}

and filter = {
  f_recv : reference;
  f_meth : reference;
  f_args : reference list;
  f_rhs : filter_rhs;
}

and filter_rhs =
  | Rscalar of reference
  | Rset_ref of reference
  | Rset_enum of reference list
  | Rsig_scalar of reference
  | Rsig_set of reference

type literal = Pos of reference | Neg of reference

type rule = { head : reference; body : literal list }

type statement = Rule of rule | Query of literal list

type program = statement list

let equal_reference (a : reference) b = a = b
let equal_statement (a : statement) b = a = b

let is_simple = function
  | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ -> true
  | Path _ | Regex _ | Filter _ | Isa _ -> false

(* Leading separator of the leftmost literal: the one the printer emits
   before the whole regular step and the parser threads back in. *)
let rec regex_lead_sep = function
  | Rlit { l_sep; _ } -> l_sep
  | Rseq (r :: _) | Ralt (r :: _) -> regex_lead_sep r
  | Rseq [] | Ralt [] -> Dot
  | Rstar r | Rplus r | Ropt r -> regex_lead_sep r

let rec fold_regex f acc = function
  | Rlit { l_meth; l_args; _ } ->
    let acc = f acc l_meth in
    List.fold_left f acc l_args
  | Rseq rs | Ralt rs -> List.fold_left (fold_regex f) acc rs
  | Rstar r | Rplus r | Ropt r -> fold_regex f acc r

let fact head = { head; body = [] }

let rec fold_reference f acc t =
  let acc = f acc t in
  match t with
  | Name _ | Int_lit _ | Str_lit _ | Var _ -> acc
  | Paren t' -> fold_reference f acc t'
  | Path { p_recv; p_meth; p_args; _ } ->
    let acc = fold_reference f acc p_recv in
    let acc = fold_reference f acc p_meth in
    List.fold_left (fold_reference f) acc p_args
  | Regex { x_recv; x_re } ->
    let acc = fold_reference f acc x_recv in
    fold_regex (fold_reference f) acc x_re
  | Filter { f_recv; f_meth; f_args; f_rhs } ->
    let acc = fold_reference f acc f_recv in
    let acc = fold_reference f acc f_meth in
    let acc = List.fold_left (fold_reference f) acc f_args in
    (match f_rhs with
    | Rscalar t' | Rset_ref t' | Rsig_scalar t' | Rsig_set t' ->
      fold_reference f acc t'
    | Rset_enum ts -> List.fold_left (fold_reference f) acc ts)
  | Isa { recv; cls } ->
    let acc = fold_reference f acc recv in
    fold_reference f acc cls

let vars_of_reference t =
  let add acc = function
    | Var "_" -> acc  (* anonymous: fresh at every occurrence *)
    | Var v -> if List.mem v acc then acc else v :: acc
    | Name _ | Int_lit _ | Str_lit _ | Paren _ | Path _ | Regex _ | Filter _
    | Isa _ ->
      acc
  in
  List.rev (fold_reference add [] t)

let vars_of_literal = function
  | Pos t | Neg t -> vars_of_reference t

let vars_of_literals lits =
  let add acc l =
    List.fold_left
      (fun acc v -> if List.mem v acc then acc else v :: acc)
      acc (vars_of_literal l)
  in
  List.rev (List.fold_left add [] lits)

let vars_of_rule { head; body } =
  vars_of_literals (Pos head :: body)
