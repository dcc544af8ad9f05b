module Ast = Syntax.Ast

type t = {
  diagnostics : Diagnostic.t list;
  n_rules : int;
  n_queries : int;
  n_strata : int;
  program : Engine.Program.t option;
  estimates : string list;
}

let ok t =
  List.for_all
    (fun (d : Diagnostic.t) -> d.severity <> Diagnostic.Error)
    t.diagnostics

let worst t =
  List.fold_left
    (fun acc (d : Diagnostic.t) ->
      match acc with
      | Some s when Diagnostic.severity_rank s >= Diagnostic.severity_rank d.severity
        ->
        acc
      | _ -> Some d.severity)
    None t.diagnostics

let code_of_wellformed (e : Syntax.Wellformed.error) =
  match e with
  | Anonymous_variable_in_head -> "PL010"
  | Anonymous_variable_in_negation -> "PL011"
  | Set_valued_at_scalar_position _ -> "PL012"
  | Scalar_at_set_position _ -> "PL013"
  | Signature_in_formula _ -> "PL014"
  | Set_valued_head _ -> "PL015"
  | Unsafe_head_variable _ -> "PL016"
  | Unsafe_negated_variable _ -> "PL017"
  | Regex_in_head _ -> "PL019"

(* The statements of [text], or the report of its parse error (PL001). *)
let parse text =
  match Syntax.Parser.program_spanned text with
  | spanned -> Ok spanned
  | exception Syntax.Parser.Error (pos, msg) ->
    let span = { Syntax.Token.s_start = pos; s_end = pos } in
    Error
      {
        diagnostics =
          [
            Diagnostic.make ~span ~code:"PL001" ~severity:Diagnostic.Error
              "%s" msg;
          ];
        n_rules = 0;
        n_queries = 0;
        n_strata = 0;
        program = None;
        estimates = [];
      }

let analyze_spanned ?card_threshold ?(estimates = false) ?config spanned =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let invalid stmt span (why : Engine.Program.invalid) =
    let code, message =
      match why with
      | Bad_signature msg -> ("PL018", msg)
      | Ill_formed e ->
        (code_of_wellformed e, Format.asprintf "%a" Syntax.Wellformed.pp_error e)
    in
    let context =
      match (why, stmt) with
      | Ill_formed _, Ast.Rule r -> Format.asprintf "%a" Syntax.Pretty.pp_rule r
      | (Bad_signature _ | Ill_formed _), _ ->
        Syntax.Pretty.statement_to_string stmt
    in
    emit
      (Diagnostic.make ?span ~context ~code ~severity:Diagnostic.Error "%s"
         message)
  in
  let c =
    Engine.Program.compile ~on_invalid:invalid
      (List.map (fun (stmt, span) -> (stmt, Some span)) spanned)
  in
  let store = c.c_store and facts = c.c_facts and rules = c.c_rules in
  let queries = c.c_queries in
  let strat =
    match Engine.Stratify.compute ~facts store rules with
    | strat -> Some strat
    | exception Engine.Err.Unstratifiable u ->
      let span, context =
        match u.u_rule with
        | None -> (None, None)
        | Some src ->
          let compiled =
            List.find_opt (fun (r : Engine.Rule.t) -> r.source == src) rules
          in
          ( Option.bind compiled (fun r -> r.span),
            Some (Format.asprintf "%a" Syntax.Pretty.pp_rule src) )
      in
      emit
        (Diagnostic.make ?span ?context ~code:"PL020"
           ~severity:Diagnostic.Error "program is not stratifiable: %s"
           u.u_message);
      None
  in
  let n_strata =
    match strat with
    | Some s -> Array.length s.Engine.Stratify.strata
    | None -> 0
  in
  (* The analyses resolve query text against the program's names;
     whatever they intern is forgotten, so the program numbers its
     objects as if it had not been analysed. *)
  let estimates =
    Oodb.Store.scoped store (fun () ->
        List.iter
          (fun (w : Engine.Typecheck.warning) ->
            emit
              (Diagnostic.make ?span:w.w_span
                 ~context:(Format.asprintf "%a" Syntax.Pretty.pp_rule w.w_rule)
                 ~code:"PL021" ~severity:Diagnostic.Warning "%s" w.w_message))
          (Engine.Typecheck.check_rules ~facts store c.c_signatures rules);
        (* each analysis once: PL030 reads Absint's creation cycles, and
           PL031/PL060 share one producibility fixpoint *)
        let absint = Absint.analyze ?strat ~facts store rules in
        (* before any query text is resolved: n is the program's own *)
        let report = if estimates then Absint.describe store absint else [] in
        let cycles =
          List.filter_map
            (fun (rc : Absint.rule_card) ->
              Option.map (fun back -> (rc.rc_rule, back)) rc.rc_creation_cycle)
            (Absint.rule_cards absint)
        in
        let producible = Analyses.producibility ~facts rules in
        List.iter emit (Analyses.skolem_cycles store rules ~cycles);
        List.iter emit (Analyses.dead_rules store rules producible ~queries);
        List.iter emit (Analyses.regex_dead store rules producible ~queries);
        List.iter emit (Analyses.scalar_conflicts ~facts rules);
        List.iter emit
          (Absint.check ?threshold:card_threshold absint store ~queries);
        report)
  in
  {
    diagnostics = List.stable_sort Diagnostic.compare (List.rev !diags);
    n_rules = List.length facts + List.length rules;
    n_queries = List.length queries;
    n_strata;
    program =
      Option.map (fun strat -> Engine.Program.of_compiled ?config ~strat c) strat;
    estimates;
  }

let analyze ?card_threshold ?estimates ?config text =
  match parse text with
  | Ok spanned -> analyze_spanned ?card_threshold ?estimates ?config spanned
  | Error t -> t

(* Bump when the JSON shape changes (fields, span encoding, ordering
   contract). 2: added schema_version itself and byte offsets in spans. *)
let schema_version = 2

let to_json t =
  Printf.sprintf
    "{\"schema_version\":%d,\"ok\":%b,\"rules\":%d,\"queries\":%d,\"strata\":%d,\"diagnostics\":%s}"
    schema_version (ok t) t.n_rules t.n_queries t.n_strata
    (Diagnostic.json_of_list t.diagnostics)

let refusal ds = String.concat "\n" (List.map Diagnostic.to_string ds)

let gate_program ?(deny = Diagnostic.Error) ?card_threshold ?config text =
  let t = analyze ?card_threshold ?config text in
  match
    ( List.filter
        (fun (d : Diagnostic.t) ->
          Diagnostic.severity_rank d.severity >= Diagnostic.severity_rank deny)
        t.diagnostics,
      t.program )
  with
  | [], Some p -> Ok (p, t)
  | offenders, _ -> Error (refusal offenders)

let gate ?deny ?card_threshold text =
  Result.map snd (gate_program ?deny ?card_threshold text)
