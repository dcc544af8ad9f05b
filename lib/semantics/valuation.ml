open Syntax.Ast
module Set = Oodb.Obj_id.Set
module Env = Map.Make (String)

type env = Oodb.Obj_id.t Env.t

exception Unbound_variable of string

let env_of_list l = List.fold_left (fun m (k, v) -> Env.add k v m) Env.empty l

(* All tuples drawn from a list of candidate sets (the cartesian product of
   argument denotations in clauses 3-8). *)
let rec product = function
  | [] -> [ [] ]
  | s :: rest ->
    let tails = product rest in
    Set.fold (fun x acc -> List.map (fun t -> x :: t) tails @ acc) s []

let rec eval store env (t : reference) : Set.t =
  let self_id = Oodb.Store.self_id store in
  match t with
  | Name n -> Set.singleton (Oodb.Store.name store n)
  | Int_lit n -> Set.singleton (Oodb.Store.int store n)
  | Str_lit s -> Set.singleton (Oodb.Store.str store s)
  | Var x -> (
    match Env.find_opt x env with
    | Some o -> Set.singleton o
    | None -> raise (Unbound_variable x))
  | Paren t' -> eval store env t'
  | Path { p_recv; p_sep; p_meth; p_args } ->
    let recvs = eval store env p_recv in
    let meths = eval store env p_meth in
    let argss = List.map (eval store env) p_args in
    let acc = ref Set.empty in
    Set.iter
      (fun m ->
        Set.iter
          (fun recv ->
            List.iter
              (fun args ->
                if Oodb.Obj_id.equal m self_id && args = [] then
                  acc := Set.add recv !acc
                else
                  match p_sep with
                  | Dot -> (
                    match
                      Oodb.Store.scalar_lookup store ~meth:m ~recv ~args
                    with
                    | Some res -> acc := Set.add res !acc
                    | None -> ())
                  | Dotdot ->
                    acc :=
                      Set.union !acc
                        (Oodb.Store.set_lookup store ~meth:m ~recv ~args))
              (product argss))
          recvs)
      meths;
    !acc
  | Regex { x_recv; x_re } ->
    eval_regex store env x_re (eval store env x_recv)
  | Isa { recv; cls } ->
    let recvs = eval store env recv in
    let clss = eval store env cls in
    Set.filter
      (fun o -> Set.exists (fun c -> Oodb.Store.is_member store o c) clss)
      recvs
  | Filter { f_recv; f_meth; f_args; f_rhs } ->
    let recvs = eval store env f_recv in
    let meths = eval store env f_meth in
    let argss = product (List.map (eval store env) f_args) in
    let satisfied recv =
      Set.exists
        (fun m ->
          List.exists
            (fun args ->
              let is_self = Oodb.Obj_id.equal m self_id && args = [] in
              match f_rhs with
              | Rscalar rhs ->
                let targets = eval store env rhs in
                if is_self then Set.mem recv targets
                else (
                  match
                    Oodb.Store.scalar_lookup store ~meth:m ~recv ~args
                  with
                  | Some res -> Set.mem res targets
                  | None -> false)
              | Rset_ref s ->
                let wanted = eval store env s in
                (* the built-in self is an identity for method application
                   but has no set-valued extension (see DESIGN.md) *)
                let have =
                  if is_self then Set.empty
                  else Oodb.Store.set_lookup store ~meth:m ~recv ~args
                in
                Set.subset wanted have
              | Rset_enum elems ->
                (* Element-wise existential reading: each enumerated element
                   must denote an object that is a member. Definition 8
                   taken literally would make the molecule vacuously true
                   when an element denotes nothing, contradicting the
                   paper's own discussion in section 5 ("X is assigned such
                   an assistant"); see DESIGN.md. *)
                let have =
                  if is_self then Set.empty
                  else Oodb.Store.set_lookup store ~meth:m ~recv ~args
                in
                List.for_all
                  (fun e ->
                    let s = eval store env e in
                    (not (Set.is_empty s)) && Set.subset s have)
                  elems
              | Rsig_scalar _ | Rsig_set _ ->
                invalid_arg "Valuation: signature declaration in a formula")
            argss)
        meths
    in
    Set.filter satisfied recvs

(* The denotation of a regular path at a set of receivers: the objects
   reachable along some word of its language. Every clause is additive in
   [from], so the star closure's frontier iteration is exact. Labels are
   plain store relations (no built-in [self] identity), matching the
   automaton-product join in {!Solve}. *)
and eval_regex store env (re : regex) (from : Set.t) : Set.t =
  let lit_step l_sep m args from =
    Set.fold
      (fun recv acc ->
        match l_sep with
        | Dot -> (
          match Oodb.Store.scalar_lookup store ~meth:m ~recv ~args with
          | Some res -> Set.add res acc
          | None -> acc)
        | Dotdot ->
          Set.union acc (Oodb.Store.set_lookup store ~meth:m ~recv ~args))
      from Set.empty
  in
  let closure step from =
    let rec go acc frontier =
      if Set.is_empty frontier then acc
      else
        let next = Set.diff (step frontier) acc in
        go (Set.union acc next) next
    in
    go from from
  in
  match re with
  | Rlit { l_sep; l_meth; l_args } ->
    let m = Set.choose (eval store env l_meth) in
    let args = List.map (fun a -> Set.choose (eval store env a)) l_args in
    lit_step l_sep m args from
  | Rseq rs -> List.fold_left (fun s r -> eval_regex store env r s) from rs
  | Ralt rs ->
    List.fold_left
      (fun acc r -> Set.union acc (eval_regex store env r from))
      Set.empty rs
  | Ropt r -> Set.union from (eval_regex store env r from)
  | Rstar r -> closure (eval_regex store env r) from
  | Rplus r -> closure (eval_regex store env r) (eval_regex store env r from)
