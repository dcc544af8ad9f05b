open Syntax.Ast
module Ir = Semantics.Ir

type t = {
  uid : int;
  source : Syntax.Ast.rule;
  origin : Syntax.Ast.rule option;
  span : Syntax.Token.span option;
  body : Ir.query;
  head : Head.t;
  defines : Ir.rel list;
  reads : Ir.rel list;
  head_reads : Ir.rel list;
  completion_reads : Ir.rel list;
  seedable : (Ir.rel * int) list;
  reads_any : bool;
  class_edges : (Oodb.Obj_id.t * Oodb.Obj_id.t) list;
}

type fact = {
  f_source : Syntax.Ast.rule;
  f_span : Syntax.Token.span option;
  f_defines : Ir.rel list;
  f_class_edges : (Oodb.Obj_id.t * Oodb.Obj_id.t) list;
}

type statement = Fact of fact | Rule of t

(* Process-wide: rules are compiled once at load time, and the uid only
   needs to distinguish rules, not number them densely. *)
let next_uid = ref 0

let add_rel acc r = if List.mem r acc then acc else r :: acc

let const_obj store : reference -> Oodb.Obj_id.t option = function
  | Name n -> Some (Oodb.Store.name store n)
  | Int_lit n -> Some (Oodb.Store.int store n)
  | Str_lit s -> Some (Oodb.Store.str store s)
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> None

let isa_rel store cls : Ir.rel =
  match const_obj store cls with
  | Some c -> R_isa_c c
  | None -> R_isa

let meth_rel store ~set (meth : reference) : Ir.rel =
  match meth with
  | Name n ->
    let m = Oodb.Store.name store n in
    if set then R_set m else R_scalar m
  | Int_lit n ->
    let m = Oodb.Store.int store n in
    if set then R_set m else R_scalar m
  | Str_lit s ->
    let m = Oodb.Store.str store s in
    if set then R_set m else R_scalar m
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> R_any

(* Every label relation a regular path's automaton can traverse. *)
let rec regex_label_rels store acc (re : regex) =
  match re with
  | Rlit { l_sep; l_meth; _ } ->
    add_rel acc (meth_rel store ~set:(l_sep = Dotdot) l_meth)
  | Rseq rs | Ralt rs -> List.fold_left (regex_label_rels store) acc rs
  | Rstar r | Rplus r | Ropt r -> regex_label_rels store acc r

(* Relations read when a reference is evaluated. *)
let rels_of_reference store t =
  let add acc = function
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ -> acc
    | Path { p_sep; p_meth; _ } ->
      add_rel acc (meth_rel store ~set:(p_sep = Dotdot) p_meth)
    | Regex { x_re; _ } -> regex_label_rels store acc x_re
    | Isa { cls; _ } -> add_rel acc (isa_rel store cls)
    | Filter { f_meth; f_rhs; _ } -> (
      match f_rhs with
      | Rscalar _ -> add_rel acc (meth_rel store ~set:false f_meth)
      | Rset_ref _ | Rset_enum _ ->
        add_rel acc (meth_rel store ~set:true f_meth)
      | Rsig_scalar _ | Rsig_set _ -> acc)
  in
  List.rev (fold_reference add [] t)

(* Relations the head may insert into. Scalar paths both read and (via
   skolemisation) define their method's relation; filters define theirs;
   class edges define isa. The whole head is walked because nested result
   molecules are asserted recursively by Head.execute. *)
let head_defines store head =
  let add acc = function
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ -> acc
    | Path { p_sep = Dot; p_meth = Name "self"; p_args = []; _ } -> acc
    | Path { p_sep = Dot; p_meth; _ } ->
      add_rel acc (meth_rel store ~set:false p_meth)
    | Path { p_sep = Dotdot; _ } -> acc  (* only inside ->> rhs; no creation *)
    | Regex _ -> acc  (* rejected in heads by Wellformed (PL019) *)
    | Isa { cls; _ } -> add_rel acc (isa_rel store cls)
    | Filter { f_meth; f_rhs; _ } -> (
      match f_rhs with
      | Rscalar _ -> add_rel acc (meth_rel store ~set:false f_meth)
      | Rset_ref _ | Rset_enum _ ->
        add_rel acc (meth_rel store ~set:true f_meth)
      | Rsig_scalar _ | Rsig_set _ -> acc)
  in
  List.rev (fold_reference add [] head)

(* Scalar head paths that can create skolem (virtual) objects when their
   method application is undefined: every [.]-path except the built-in
   [self]. Variable or computed method positions yield R_any; the default
   semantics does not enumerate skolems for those (hilog_virtual=false),
   so callers typically filter R_any out. *)
let skolem_defines store head =
  let add acc = function
    | Path { p_sep = Dot; p_meth = Name "self"; p_args = []; _ } -> acc
    | Path { p_sep = Dot; p_meth; _ } ->
      add_rel acc (meth_rel store ~set:false p_meth)
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _
    | Path { p_sep = Dotdot; _ }
    | Regex _ | Isa _ | Filter _ ->
      acc
  in
  List.rev (fold_reference add [] head)

(* Head sub-references that are evaluated (not asserted): the set-valued
   right-hand sides of ->> filters. Their relations are reads. *)
let head_eval_reads store head =
  let add acc = function
    | Filter { f_rhs = Rset_ref s; _ } ->
      List.fold_left add_rel acc (rels_of_reference store s)
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Path _ | Regex _
    | Isa _ | Filter _ ->
      acc
  in
  List.rev (fold_reference add [] head)

let rec atom_reads acc (a : Ir.atom) =
  match a with
  | A_isa (_, Const c) -> add_rel acc (Ir.R_isa_c c)
  | A_isa (_, V _) -> add_rel acc Ir.R_isa
  | A_scalar { meth = Const m; _ } -> add_rel acc (Ir.R_scalar m)
  | A_member { meth = Const m; _ } -> add_rel acc (Ir.R_set m)
  | A_scalar { meth = V _; _ } | A_member { meth = V _; _ } ->
    add_rel acc Ir.R_any
  | A_eq _ -> acc
  | A_subset s ->
    let acc =
      add_rel acc
        (match s.s_meth with Const m -> Ir.R_set m | V _ -> Ir.R_any)
    in
    List.fold_left atom_reads acc s.sub_atoms
  | A_neg n -> List.fold_left atom_reads acc n.n_atoms
  (* [atom_rel] reports no single relation for a regex atom; every label
     relation must count as a read here so growth of any of them
     re-triggers the rule in the semi-naive fixpoint *)
  | A_regex x -> List.fold_left add_rel acc (Ir.automaton_rels x.x_auto)

(* Relations inside set-inclusion and negation sub-queries: these are
   consulted with "is the set complete?" semantics and force
   stratification. *)
let rec atom_completions acc (a : Ir.atom) =
  match a with
  (* the star closure is a monotone least fixpoint over its label
     relations, so a regex read never forces stratification *)
  | A_isa _ | A_scalar _ | A_member _ | A_eq _ | A_regex _ -> acc
  | A_subset s ->
    let acc = List.fold_left atom_reads acc s.sub_atoms in
    List.fold_left atom_completions acc s.sub_atoms
  | A_neg n ->
    let acc = List.fold_left atom_reads acc n.n_atoms in
    List.fold_left atom_completions acc n.n_atoms

(* Class edges between two constants in the head, e.g. [manager :: employee]
   or a rule deriving a constant subclass link; the stratifier uses these as
   the static class hierarchy. *)
let head_class_edges store head =
  let add acc = function
    | Isa { recv; cls } -> (
      match (const_obj store recv, const_obj store cls) with
      | Some a, Some b -> (a, b) :: acc
      | _, _ -> acc)
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Path _ | Regex _
    | Filter _ ->
      acc
  in
  List.rev (fold_reference add [] head)

let compile ?span ?origin store (rule : Syntax.Ast.rule) : t =
  let body = Semantics.Flatten.literals store rule.body in
  let defines = head_defines store rule.head in
  let head_reads = head_eval_reads store rule.head in
  let reads =
    List.fold_left add_rel (List.fold_left atom_reads [] body.atoms) head_reads
  in
  let completion_reads = List.fold_left atom_completions [] body.atoms in
  let seedable =
    List.mapi (fun i a -> (i, a)) body.atoms
    |> List.filter_map (fun (i, a) ->
           match (a : Ir.atom) with
           | A_isa _ -> Some (Ir.R_isa, i)
           | A_scalar { meth = Const m; _ } -> Some (Ir.R_scalar m, i)
           | A_member { meth = Const m; _ } -> Some (Ir.R_set m, i)
           | A_scalar _ | A_member _ | A_eq _ | A_subset _ | A_neg _
           | A_regex _ ->
             None)
  in
  let uid = !next_uid in
  incr next_uid;
  {
    uid;
    source = rule;
    origin;
    span;
    body;
    head = Head.compile ~named:body.named rule.head;
    defines;
    reads;
    head_reads;
    completion_reads;
    seedable;
    reads_any = List.mem Ir.R_any reads;
    class_edges = head_class_edges store rule.head;
  }

(* [compile] interns the head's defines, then its reads, then its class
   edges; a body-less statement with no reads is a fact, and interns the
   same names in the same order. *)
let classify ?span store (rule : Syntax.Ast.rule) =
  if rule.body <> [] then Rule (compile ?span store rule)
  else
    let defines = head_defines store rule.head in
    match head_eval_reads store rule.head with
    | [] ->
      Fact
        {
          f_source = rule;
          f_span = span;
          f_defines = defines;
          f_class_edges = head_class_edges store rule.head;
        }
    | _ :: _ -> Rule (compile ?span store rule)
