type term = Const of Oodb.Obj_id.t | V of int

(* One transition label of a path automaton: a ground method application.
   [lbl_set] selects the set-valued ('..') edge relation over the scalar
   ('.') one. *)
type label = {
  lbl_set : bool;
  lbl_meth : Oodb.Obj_id.t;
  lbl_args : Oodb.Obj_id.t list;
}

(* An epsilon-free NFA over ground labels (Thompson construction with
   epsilon closures folded in, unreachable states pruned). [a_trans] is
   the forward transition table, [a_rtrans] its reverse — the
   automaton-product join walks whichever direction the bound side
   dictates. *)
type automaton = {
  a_nstates : int;
  a_start : int;
  a_accept : bool array;
  a_trans : (label * int) array array;
  a_rtrans : (label * int) array array;
}

type atom =
  | A_isa of term * term
  | A_scalar of app
  | A_member of app
  | A_eq of term * term
  | A_subset of subset
  | A_neg of negation
  | A_regex of regex_app

and app = { meth : term; recv : term; args : term list; res : term }

and regex_app = { x_auto : automaton; x_recv : term; x_res : term }

and subset = {
  s_meth : term;
  s_recv : term;
  s_args : term list;
  sub_atoms : atom list;
  member : term;
  s_outer : int list;
  s_locals : int list;
}

and negation = {
  n_atoms : atom list;
  n_outer : int list;
  n_locals : int list;
}

type rel =
  | R_isa
  | R_isa_c of Oodb.Obj_id.t
  | R_scalar of Oodb.Obj_id.t
  | R_set of Oodb.Obj_id.t
  | R_any

let equal_rel (a : rel) b = a = b
let compare_rel (a : rel) b = Stdlib.compare a b

type query = {
  atoms : atom list;
  nvars : int;
  named : (string * int) list;
}

let pp_term u ppf = function
  | Const o -> Oodb.Universe.pp_obj u ppf o
  | V i -> Format.fprintf ppf "_%d" i

let pp_terms u ppf ts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (pp_term u) ppf ts

let pp_app u kind ppf { meth; recv; args; res } =
  Format.fprintf ppf "%s(%a; %a" kind (pp_term u) meth (pp_term u) recv;
  if args <> [] then Format.fprintf ppf " @@ %a" (pp_terms u) args;
  Format.fprintf ppf ") = %a" (pp_term u) res

let rec pp_atom u ppf = function
  | A_isa (o, c) ->
    Format.fprintf ppf "isa(%a, %a)" (pp_term u) o (pp_term u) c
  | A_scalar app -> pp_app u "scalar" ppf app
  | A_member app -> pp_app u "member" ppf app
  | A_eq (a, b) -> Format.fprintf ppf "%a = %a" (pp_term u) a (pp_term u) b
  | A_subset s ->
    Format.fprintf ppf "set(%a; %a) >= { %a | %a }" (pp_term u) s.s_meth
      (pp_term u) s.s_recv (pp_term u) s.member
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
         (pp_atom u))
      s.sub_atoms
  | A_neg n ->
    Format.fprintf ppf "not (%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
         (pp_atom u))
      n.n_atoms
  | A_regex x ->
    Format.fprintf ppf "regex(%a ~%d states~> %a)" (pp_term u) x.x_recv
      x.x_auto.a_nstates (pp_term u) x.x_res

let pp_query u ppf q =
  Format.fprintf ppf "@[<v>vars: %d, named: %a@,%a@]" q.nvars
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (n, i) -> Format.fprintf ppf "%s=_%d" n i))
    q.named
    (Format.pp_print_list (pp_atom u))
    q.atoms

let pp_rel u ppf = function
  | R_isa -> Format.pp_print_string ppf "isa"
  | R_isa_c c -> Format.fprintf ppf "isa %a" (Oodb.Universe.pp_obj u) c
  | R_scalar m -> Format.fprintf ppf "scalar %a" (Oodb.Universe.pp_obj u) m
  | R_set m -> Format.fprintf ppf "set %a" (Oodb.Universe.pp_obj u) m
  | R_any -> Format.pp_print_string ppf "<any>"

let term_vars acc = function Const _ -> acc | V i -> i :: acc

let atom_vars = function
  | A_isa (a, b) | A_eq (a, b) -> term_vars (term_vars [] b) a
  | A_scalar { meth; recv; args; res } | A_member { meth; recv; args; res }
    ->
    List.fold_left term_vars [] (meth :: recv :: res :: args)
  | A_subset s ->
    List.fold_left term_vars s.s_outer (s.s_meth :: s.s_recv :: s.s_args)
  | A_neg n -> n.n_outer
  | A_regex x -> term_vars (term_vars [] x.x_res) x.x_recv

let label_rel l = if l.lbl_set then R_set l.lbl_meth else R_scalar l.lbl_meth

(* Distinct relations an automaton's transitions read. *)
let automaton_rels a =
  let acc = ref [] in
  Array.iter
    (fun out -> Array.iter (fun (l, _) -> acc := label_rel l :: !acc) out)
    a.a_trans;
  List.sort_uniq Stdlib.compare !acc

(* The store keeps one isa edge log for all classes; per-class refinement
   only matters to the stratifier, so runtime consumers normalise
   [R_isa_c] to [R_isa]. *)
let norm_rel = function
  | R_isa_c _ -> R_isa
  | (R_isa | R_scalar _ | R_set _ | R_any) as r -> r

let atom_rel = function
  | A_isa (_, Const c) -> Some (R_isa_c c)
  | A_isa (_, V _) -> Some R_isa
  | A_scalar { meth = Const m; _ } -> Some (R_scalar m)
  | A_member { meth = Const m; _ } -> Some (R_set m)
  | A_scalar { meth = V _; _ } | A_member { meth = V _; _ } -> Some R_any
  | A_eq _ -> None
  | A_subset { s_meth = Const m; _ } -> Some (R_set m)
  | A_subset { s_meth = V _; _ } -> Some R_any
  | A_neg _ -> None
  (* reads one relation per transition label; single-relation consumers
     ([Solve.explain]'s annotations) see none, multi-relation ones use
     [automaton_rels] via [query_rels] and [Rule.compile] *)
  | A_regex _ -> None

let query_rels atoms =
  let rec go acc a =
    let acc =
      match atom_rel a with Some r -> norm_rel r :: acc | None -> acc
    in
    match a with
    | A_subset s -> List.fold_left go acc s.sub_atoms
    | A_neg n -> List.fold_left go acc n.n_atoms
    | A_regex x -> List.rev_append (automaton_rels x.x_auto) acc
    | A_isa _ | A_scalar _ | A_member _ | A_eq _ -> acc
  in
  List.sort_uniq compare_rel (List.fold_left go [] atoms)
