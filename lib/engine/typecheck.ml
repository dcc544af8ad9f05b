open Syntax.Ast
module Sig = Oodb.Signature
module Obj_set = Oodb.Obj_id.Set

type warning = {
  w_rule : Syntax.Ast.rule;
  w_span : Syntax.Token.span option;
  w_message : string;
}

let pp_warning ppf w =
  (match w.w_span with
  | Some sp -> Format.fprintf ppf "%a: " Syntax.Token.pp_span sp
  | None -> ());
  Format.fprintf ppf "%a: %s" Syntax.Pretty.pp_rule w.w_rule w.w_message

let const_obj store : reference -> Oodb.Obj_id.t option = function
  | Name n -> Some (Oodb.Store.name store n)
  | Int_lit n -> Some (Oodb.Store.int store n)
  | Str_lit s -> Some (Oodb.Store.str store s)
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> None

(* Classes statically known for a variable: collected from body literals of
   the form [X : c] with constant [c] (Isa nodes anywhere in positive
   literals). *)
let infer_var_classes store (body : literal list) =
  let tbl = Hashtbl.create 8 in
  let add v c =
    let cur = Option.value ~default:Obj_set.empty (Hashtbl.find_opt tbl v) in
    Hashtbl.replace tbl v (Obj_set.add c cur)
  in
  let visit_ref t =
    ignore
      (fold_reference
         (fun () sub ->
           match sub with
           | Isa { recv = Var v; cls } -> (
             match const_obj store cls with
             | Some c -> add v c
             | None -> ())
           | _ -> ())
         () t)
  in
  List.iter (function Pos t -> visit_ref t | Neg _ -> ()) body;
  tbl

(* Static class edges from the rules and facts, to close inferred
   classes upwards. *)
let static_closure facts rules =
  let edges =
    List.concat_map (fun (f : Rule.fact) -> f.f_class_edges) facts
    @ List.concat_map (fun (r : Rule.t) -> r.class_edges) rules
  in
  let parents = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let cur =
        Option.value ~default:Obj_set.empty (Hashtbl.find_opt parents a)
      in
      Hashtbl.replace parents a (Obj_set.add b cur))
    edges;
  let rec close c acc =
    let direct =
      Option.value ~default:Obj_set.empty (Hashtbl.find_opt parents c)
    in
    Obj_set.fold
      (fun p acc ->
        if Obj_set.mem p acc then acc else close p (Obj_set.add p acc))
      direct acc
  in
  fun c -> close c (Obj_set.singleton c)

let scalarity_of_rhs = function
  | Rscalar _ -> Some Sig.Scalar
  | Rset_ref _ | Rset_enum _ -> Some Sig.Set_valued
  | Rsig_scalar _ | Rsig_set _ -> None

(* Result classes statically known for a reference: constants with known
   classes are out of scope (they live in the store at runtime); variables
   use the inferred table. *)
let known_classes ~close tbl = function
  | Var v -> (
    match Hashtbl.find_opt tbl v with
    | Some cs ->
      Some (Obj_set.fold (fun c acc -> Obj_set.union acc (close c)) cs Obj_set.empty)
    | None -> None)
  | Name _ | Int_lit _ | Str_lit _ | Paren _ | Path _ | Regex _ | Filter _
  | Isa _ ->
    None

let check_rule store signatures ~close (rule : Rule.t) =
  let tbl = infer_var_classes store rule.source.body in
  let warnings = ref [] in
  let warn fmt =
    Format.kasprintf
      (fun m ->
        warnings :=
          { w_rule = rule.source; w_span = rule.span; w_message = m }
          :: !warnings)
      fmt
  in
  let obj = Oodb.Universe.pp_obj (Oodb.Store.universe store) in
  let visit () sub =
    match sub with
    | Filter { f_recv; f_meth; f_args; f_rhs } -> (
      match (scalarity_of_rhs f_rhs, const_obj store f_meth) with
      | Some scalarity, Some meth -> (
        match known_classes ~close tbl f_recv with
        | None -> ()
        | Some recv_classes ->
          let applicable =
            List.filter
              (fun (e : Sig.entry) ->
                Oodb.Obj_id.equal e.meth meth
                && e.scalarity = scalarity
                && List.length e.arg_classes = List.length f_args
                && Obj_set.mem e.cls recv_classes)
              (Sig.entries signatures)
          in
          List.iter
            (fun (e : Sig.entry) ->
              let results =
                match f_rhs with
                | Rscalar r -> [ r ]
                | Rset_enum rs -> rs
                | Rset_ref _ | Rsig_scalar _ | Rsig_set _ -> []
              in
              List.iter
                (fun r ->
                  match known_classes ~close tbl r with
                  | Some result_classes
                    when not (Obj_set.mem e.result_class result_classes) ->
                    warn
                      "result %a of method %a is inferred to be in %s but \
                       the signature requires %a"
                      Syntax.Pretty.pp_reference r obj meth
                      (String.concat ", "
                         (List.map
                            (Format.asprintf "%a" obj)
                            (Obj_set.elements result_classes)))
                      obj e.result_class
                  | Some _ | None -> ())
                results)
            applicable)
      | _ -> ())
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Path _ | Regex _
    | Isa _ ->
      ()
  in
  fold_reference visit () rule.source.head;
  List.rev !warnings

let check_rules ~facts store signatures rules =
  let close = static_closure facts rules in
  List.concat_map (check_rule store signatures ~close) rules
