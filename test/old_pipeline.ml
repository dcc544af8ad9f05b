(* The load pipeline from before fact statements became data, kept as
   the oracle of [Program]'s extensional list: every rule statement,
   facts included, compiled to a [Rule.t], stratified together and run
   through [Fixpoint], whose first round executes each fact as a
   body-less rule. *)

open Pathlog

(* The compiled statements, facts among the rules, in statement order,
   and the embedded queries. *)
let compile text =
  let store = Store.create () and signatures = Signature.create () in
  let rules = ref [] and queries = ref [] in
  List.iter
    (fun (stmt, span) ->
      match Wellformed.signature_of_statement stmt with
      | Some decl -> Program.load_signature store signatures decl
      | None -> (
        match stmt with
        | Ast.Rule r -> (
          match Wellformed.check_rule r with
          | Ok () -> rules := Rule.compile ~span store r :: !rules
          | Error _ -> invalid_arg "Old_pipeline.compile: ill-formed rule")
        | Ast.Query lits -> queries := lits :: !queries))
    (Parser.program_spanned text);
  (store, List.rev !rules, List.rev !queries)

(* The store and provenance of the minimal model. *)
let run ?config text =
  let store, rules, _ = compile text in
  let provenance = Provenance.create store in
  ignore
    (Fixpoint.run ?config ~provenance store
       (Fixpoint.prepare (Stratify.compute store rules))
      : Fixpoint.stats);
  (store, provenance)
