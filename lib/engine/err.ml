type functional_conflict = {
  c_meth : Oodb.Obj_id.t;
  c_recv : Oodb.Obj_id.t;
  c_args : Oodb.Obj_id.t list;
  existing : Oodb.Obj_id.t;
  proposed : Oodb.Obj_id.t;
  rule : Syntax.Ast.rule option;
}

type unstratifiable = {
  u_message : string;
  u_rule : Syntax.Ast.rule option;
}

exception Functional_conflict of functional_conflict
exception Isa_cycle of Oodb.Obj_id.t * Oodb.Obj_id.t
exception Reserved_self
exception Unstratifiable of unstratifiable
exception Diverged of string

let unstratifiable ?rule fmt =
  Format.kasprintf
    (fun msg -> raise (Unstratifiable { u_message = msg; u_rule = rule }))
    fmt

let pp_functional_conflict store ppf c =
  let obj = Oodb.Universe.pp_obj (Oodb.Store.universe store) in
  Format.fprintf ppf
    "scalar method %a on %a already yields %a; cannot also yield %a" obj
    c.c_meth obj c.c_recv obj c.existing obj c.proposed;
  match c.rule with
  | Some r -> Format.fprintf ppf " (rule: %a)" Syntax.Pretty.pp_rule r
  | None -> ()

let message store = function
  | Functional_conflict c ->
    Some (Format.asprintf "%a" (pp_functional_conflict store) c)
  | Isa_cycle (o, c) ->
    let obj = Oodb.Universe.pp_obj (Oodb.Store.universe store) in
    Some
      (Format.asprintf "class edge %a : %a would close a hierarchy cycle" obj
         o obj c)
  | Reserved_self -> Some "the built-in method 'self' cannot be redefined"
  | Unstratifiable u ->
    let where =
      match u.u_rule with
      | Some r -> Format.asprintf " (rule: %a)" Syntax.Pretty.pp_rule r
      | None -> ""
    in
    Some ("program is not stratifiable: " ^ u.u_message ^ where)
  | Diverged msg -> Some ("evaluation diverged: " ^ msg)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Process exit codes shared by the CLI. Documented in README.md. *)

(* Evaluation errors: scalar conflicts, hierarchy cycles, divergence. *)
let exit_runtime = 1

(* Load errors: lexing/parse failures, ill-formed rules, bad signatures. *)
let exit_load = 2

(* Static analysis refused the program: [pathlog check] found diagnostics
   at or above the --deny level; [lint] / [run --types] found issues. *)
let exit_analysis = 3
