module Ast = Syntax.Ast

type t = {
  diagnostics : Diagnostic.t list;
  n_rules : int;
  n_queries : int;
  n_strata : int;
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
      }

let analyze_spanned ?card_threshold spanned =
  let store = Oodb.Store.create () in
  let signatures = Oodb.Signature.create () in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let rules = ref [] in
  let queries = ref [] in
  List.iter
    (fun (stmt, span) ->
      match Syntax.Wellformed.signature_of_statement stmt with
      | Some decl -> (
        try Engine.Program.load_signature store signatures decl
        with Engine.Program.Invalid msg ->
          emit
            (Diagnostic.make ~span
               ~context:(Syntax.Pretty.statement_to_string stmt)
               ~code:"PL018" ~severity:Diagnostic.Error "%s" msg))
      | None -> (
        match stmt with
        | Ast.Rule r -> (
          match Syntax.Wellformed.check_rule r with
          | Ok () -> rules := Engine.Rule.compile ~span store r :: !rules
          | Error e ->
            emit
              (Diagnostic.make ~span
                 ~context:(Format.asprintf "%a" Syntax.Pretty.pp_rule r)
                 ~code:(code_of_wellformed e) ~severity:Diagnostic.Error
                 "%a" Syntax.Wellformed.pp_error e))
        | Ast.Query lits -> (
          match Syntax.Wellformed.check_query lits with
          | Ok () -> queries := lits :: !queries
          | Error e ->
            emit
              (Diagnostic.make ~span
                 ~context:(Syntax.Pretty.statement_to_string stmt)
                 ~code:(code_of_wellformed e) ~severity:Diagnostic.Error
                 "%a" Syntax.Wellformed.pp_error e))))
    spanned;
  let rules = List.rev !rules in
  let queries = List.rev !queries in
  let strat =
    match Engine.Stratify.compute store rules with
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
  List.iter
    (fun (w : Engine.Typecheck.warning) ->
      emit
        (Diagnostic.make ?span:w.w_span
           ~context:(Format.asprintf "%a" Syntax.Pretty.pp_rule w.w_rule)
           ~code:"PL021" ~severity:Diagnostic.Warning "%s" w.w_message))
    (Engine.Typecheck.check_rules store signatures rules);
  (* each analysis once: PL030 reads Absint's creation cycles, and
     PL031/PL060 share one producibility fixpoint *)
  let absint = Absint.analyze ?strat store rules in
  let cycles =
    List.filter_map
      (fun (rc : Absint.rule_card) ->
        Option.map (fun back -> (rc.rc_rule, back)) rc.rc_creation_cycle)
      (Absint.rule_cards absint)
  in
  let producible = Analyses.producibility rules in
  List.iter emit (Analyses.skolem_cycles store rules ~cycles);
  List.iter emit (Analyses.dead_rules store rules producible ~queries);
  List.iter emit (Analyses.regex_dead store rules producible ~queries);
  List.iter emit (Analyses.scalar_conflicts rules);
  List.iter emit
    (Absint.check ?threshold:card_threshold absint store ~queries);
  {
    diagnostics = List.stable_sort Diagnostic.compare (List.rev !diags);
    n_rules = List.length rules;
    n_queries = List.length queries;
    n_strata;
  }

let analyze ?card_threshold text =
  match parse text with
  | Ok spanned -> analyze_spanned ?card_threshold spanned
  | Error t -> t

(* Bump when the JSON shape changes (fields, span encoding, ordering
   contract). 2: added schema_version itself and byte offsets in spans. *)
let schema_version = 2

let to_json t =
  Printf.sprintf
    "{\"schema_version\":%d,\"ok\":%b,\"rules\":%d,\"queries\":%d,\"strata\":%d,\"diagnostics\":%s}"
    schema_version (ok t) t.n_rules t.n_queries t.n_strata
    (Diagnostic.json_of_list t.diagnostics)

(* The compiled program a successfully parsed text denotes, for callers
   that need the rules themselves (check --estimates, admission
   control) rather than diagnostics. Malformed statements are skipped —
   the diagnostics pipeline reports them. *)
let program_of text =
  match Syntax.Parser.program_spanned text with
  | exception Syntax.Parser.Error _ -> None
  | spanned ->
    let store = Oodb.Store.create () in
    let rules = ref [] in
    let queries = ref [] in
    List.iter
      (fun (stmt, span) ->
        match Syntax.Wellformed.signature_of_statement stmt with
        | Some _ -> ()
        | None -> (
          match stmt with
          | Ast.Rule r ->
            if Syntax.Wellformed.check_rule r = Ok () then
              rules := Engine.Rule.compile ~span store r :: !rules
          | Ast.Query lits ->
            if Syntax.Wellformed.check_query lits = Ok () then
              queries := lits :: !queries))
      spanned;
    Some (store, List.rev !rules, List.rev !queries)

let refusal ds = String.concat "\n" (List.map Diagnostic.to_string ds)

let gate_spanned ?(deny = Diagnostic.Error) ?card_threshold text =
  match parse text with
  | Error t -> Error (refusal t.diagnostics)
  | Ok spanned -> (
    let t = analyze_spanned ?card_threshold spanned in
    match
      List.filter
        (fun (d : Diagnostic.t) ->
          Diagnostic.severity_rank d.severity >= Diagnostic.severity_rank deny)
        t.diagnostics
    with
    | [] -> Ok (spanned, t)
    | offenders -> Error (refusal offenders))

let gate ?deny ?card_threshold text =
  Result.map snd (gate_spanned ?deny ?card_threshold text)
