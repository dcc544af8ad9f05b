(* Fact statements as data: a program keeps its facts in an extensional
   list, loaded straight into the store, and only its rules reach
   stratification, the fixpoint and the analyses. The served program
   must be the one the old pipeline built (test/old_pipeline.ml), and
   the analyses must report what they reported with every fact a
   rule. *)

open Pathlog
open Helpers

(* At jobs 1 the old pipeline's first round ran the facts in statement
   order among the rules; a parallel first round solved every body
   before any fact went in. The two agree record for record at jobs 1. *)
let config =
  (* the broken corpus diverges on purpose: stop it early, the same way
     in both pipelines *)
  { Fixpoint.default_config with jobs = 1; max_rounds = 200; max_objects = 20_000 }

(* Everything of a run that the read path can see: the universe in id
   order, every store record in order (tombstones included), the model,
   and each live fact's provenance source. *)
type source = [ `None | `Extensional | `Derived of Ast.rule * string list ]

type image = {
  universe : Universe.descriptor list;
  isa : (Obj_id.t * Obj_id.t * int) list;
  buckets : (bool * Obj_id.t * (Obj_id.t * Obj_id.t list * Obj_id.t * int) list) list;
  model : string list;
  sources : (string * source) list;  (* by live fact, rendered; sorted *)
}

let image store provenance =
  let u = Store.universe store in
  let universe = ref [] in
  Universe.iter u (fun _ d -> universe := d :: !universe);
  let records v =
    List.map
      (fun (e : Store.mentry) -> (e.recv, e.args, e.res, e.dead))
      (Vec.to_list v)
  in
  let buckets set meths bucket =
    List.map (fun m -> (set, m, records (bucket store m))) (List.sort compare meths)
  in
  let sources = ref [] in
  Fact.iter_live store (fun f ->
      let source : source =
        match Provenance.lookup provenance f with
        | None -> `None
        | Some Provenance.Extensional -> `Extensional
        | Some (Provenance.Derived d) ->
          `Derived
            (d.rule.source, List.map (Universe.to_string u) (Array.to_list d.binding))
      in
      sources := (Format.asprintf "%a" (Fact.pp u) f, source) :: !sources);
  {
    universe = List.rev !universe;
    isa =
      List.map
        (fun (e : Store.ientry) -> (e.i_sub, e.i_cls, e.i_dead))
        (Vec.to_list (Store.isa_log store));
    buckets =
      buckets false (Store.scalar_meths store) Store.scalar_bucket
      @ buckets true (Store.set_meths store) Store.set_bucket;
    model = Fact.model store;
    sources = List.sort compare !sources;
  }

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* The program the gate hands on, run. *)
let served text =
  outcome (fun () ->
      match (Check.analyze ~config text).program with
      | None -> None
      | Some p ->
        ignore (Program.run p : Fixpoint.stats);
        Some (image (Program.store p) (Program.provenance p)))

let old text =
  outcome (fun () ->
      match Old_pipeline.run ~config text with
      | store, provenance -> Some (image store provenance)
      | exception Err.Unstratifiable _ -> None)

(* Facts now load before any rule runs. The old pipeline ran them in
   its first round, in statement order among the rules, so where a rule
   precedes a fact and fires at once, the rule's derivations (and the
   virtual objects they create) came before that fact's objects. Only
   there may numbering and record order differ; the model and every
   fact's provenance, by name, may not. *)
let facts_first text =
  let c =
    Program.compile
      (List.map (fun (s, sp) -> (s, Some sp)) (Parser.program_spanned text))
  in
  let offset sp = (Option.get sp : Token.span).s_start.offset in
  let last_fact =
    List.fold_left (fun acc (f : Rule.fact) -> max acc (offset f.f_span)) (-1) c.c_facts
  in
  List.for_all (fun (r : Rule.t) -> offset r.span > last_fact) c.c_rules

let same_as_old text =
  match (served text, old text) with
  | Ok (Some a), Ok (Some b) when not (facts_first text) ->
    a.model = b.model && a.sources = b.sources
  | a, b -> a = b

let corpus () = Test_analysis.corpus_files ()

let test_corpus_served () =
  let reordered = ref [] in
  List.iter
    (fun file ->
      let text = Test_programs.read_file file in
      if not (facts_first text) then reordered := Filename.basename file :: !reordered;
      Alcotest.(check bool) (file ^ ": served = old pipeline") true
        (same_as_old text))
    (corpus ());
  (* the programs whose numbering may move; every other one is pinned
     record for record *)
  Alcotest.(check (list string)) "programs with a rule before a fact"
    [ "lists.plg"; "university.plg" ]
    (List.sort compare !reordered);
  (* lists.plg's type rules fire before its cells load, creating
     [integer.list] and [name.list] first; university.plg's rules read
     only relations its later facts define, so they fire after them
     either way *)
  let numbered file = served (Test_programs.read_file file) = old (Test_programs.read_file file) in
  List.iter
    (fun file ->
      let name = Filename.basename file in
      if List.mem name !reordered then
        Alcotest.(check bool) (name ^ ": numbering as before") (name = "university.plg")
          (numbered file))
    (corpus ())

let served_randprog =
  QCheck.Test.make ~name:"served program = old pipeline (Randprog)" ~count:150
    QCheck.(pair (int_range 1 10_000) (int_range 0 40))
    (fun (seed, facts) ->
      same_as_old
        (Randprog.generate { Randprog.seed; facts; rules = 1 + (seed mod 6) }))

(* A body-less statement whose head evaluates a set reference reads a
   relation: it stays a rule, re-run as that relation grows. One that
   reads none is a fact. *)
let test_reader_stays_rule () =
  let p =
    Program.of_string
      "a[f ->> b..g].\nb[g ->> {c}].\nX[g ->> {Y}] <- X[h ->> {Y}].\nb[h ->> {d}].\na[k ->> {e}]."
  in
  Alcotest.(check (list string))
    "rules"
    [ "a[f ->> b..g]."; "X[g ->> {Y}] <- X[h ->> {Y}]." ]
    (List.map (fun (r : Rule.t) -> Pretty.rule_to_string r.source) (Program.rules p));
  Alcotest.(check int) "facts" 3 (List.length (Program.facts p));
  ignore (Program.run p : Fixpoint.stats);
  Alcotest.(check (list string))
    "a[f] follows b's g" [ "c"; "d" ]
    (List.sort compare
       (List.concat (Program.query_string p "a[f ->> {X}]").rows
       |> List.map (Universe.to_string (Program.universe p))))

(* The gate's analyses intern nothing: the program it hands on numbers
   its objects as compiling it alone does, query constants included. *)
let test_gate_interns_nothing () =
  let text =
    "a[m -> b].\nX[n ->> {Y}] <- X[m -> Y].\n?- zz[n ->> {Q}].\n?- X.(yy)[Q]."
  in
  let compiled =
    Program.compile (List.map (fun (s, sp) -> (s, Some sp)) (Parser.program_spanned text))
  in
  let card = Universe.cardinality (Store.universe compiled.c_store) in
  match Check.gate_program text with
  | Error e -> Alcotest.fail e
  | Ok (p, _) ->
    Alcotest.(check int) "no object interned" card
      (Universe.cardinality (Program.universe p));
    Alcotest.(check bool) "zz unknown" true
      (Universe.find_name (Program.universe p) "zz" = None)

(* ---------------------------------------------------------------- *)
(* Producibility: the worklist against the sweep it replaced. *)

let pl03x_60 (ds : Diagnostic.t list) =
  List.filter (fun (d : Diagnostic.t) -> List.mem d.code [ "PL031"; "PL032"; "PL060" ]) ds
  |> List.stable_sort Diagnostic.compare

let sweep_diagnostics text =
  let store, rules, queries = Old_pipeline.compile text in
  let p = Producibility_oracle.producibility rules in
  pl03x_60
    (Analyses.dead_rules store rules p ~queries
    @ Analyses.regex_dead store rules p ~queries)

let worklist_agrees text =
  pl03x_60 (Check.analyze text).diagnostics = sweep_diagnostics text

(* Rules [X[m_i ->> {Y}] <- X[m_(i+1) ->> {Y}]] for i = 1 .. n-1, in
   that order, under the one fact [a[m_n ->> {b}]]: each sweep fires
   only the next rule up the chain, so the sweep makes n passes. *)
let reverse_chain n =
  String.concat "\n"
    (List.init (n - 1) (fun i ->
         Printf.sprintf "X[m%d ->> {Y}] <- X[m%d ->> {Y}]." (i + 1) (i + 2))
    @ [ Printf.sprintf "a[m%d ->> {b}]." n ])

let test_worklist_corpus () =
  List.iter
    (fun file ->
      Alcotest.(check bool) file true
        (worklist_agrees (Test_programs.read_file file)))
    (corpus ());
  Alcotest.(check bool) "reverse chain of 300" true
    (worklist_agrees (reverse_chain 300));
  (* a dead link: everything above it is dead *)
  Alcotest.(check bool) "broken reverse chain" true
    (worklist_agrees (reverse_chain 50 ^ "\nX[m7 ->> {Y}] <- X[zz ->> {Y}]."));
  (* heads at a variable method and class: every method and class
     relation becomes producible, waking the rules that wait on one *)
  Alcotest.(check bool) "variable method and class heads" true
    (worklist_agrees
       "m : meth.\na[k ->> {b}].\nX[z ->> {Y}] <- X[q ->> {Y}].\nX[w ->> {Y}] <- X : dd, X[k ->> {Y}].\nX[M ->> {Y}] <- X[k ->> {Y}], M : meth.\nX : C <- X[k ->> {C}].\n?- X[z ->> {Y}].")

let worklist_randprog =
  QCheck.Test.make ~name:"producibility worklist = sweep (Randprog)" ~count:150
    QCheck.(pair (int_range 1 10_000) (int_range 0 12))
    (fun (seed, facts) ->
      worklist_agrees
        (Randprog.generate { Randprog.seed; facts; rules = 1 + (seed mod 8) }))

(* Each rule is woken at most once per distinct relation it requires
   becoming produced, whatever the order of the rules. *)
let test_worklist_visits () =
  let producibility text =
    let c =
      Program.compile (List.map (fun (s, sp) -> (s, Some sp)) (Parser.program_spanned text))
    in
    Analyses.producibility ~facts:c.c_facts c.c_rules
  in
  let n = 2_000 in
  let p = producibility (reverse_chain n) in
  Alcotest.(check int) "every rule fires" (n - 1) (Hashtbl.length p.p_fired);
  Alcotest.(check int) "one visit per rule" (n - 1) p.p_visits;
  (* two requirements, produced at different times; a third never *)
  let p =
    producibility
      "a[x ->> {b}].\nX[y ->> {Y}] <- X[x ->> {Y}].\nX[z ->> {Y}] <- X[x ->> {Y}], X[y ->> {Y}], X[x ->> {Y}].\nX[w ->> {Y}] <- X[z ->> {Y}], X[gone ->> {Y}]."
  in
  Alcotest.(check int) "visits = distinct requirements met" 4 p.p_visits;
  Alcotest.(check int) "fired" 2 (Hashtbl.length p.p_fired)

let suite =
  [
    Alcotest.test_case "served program = old pipeline (corpus)" `Quick
      test_corpus_served;
    qtest served_randprog;
    Alcotest.test_case "a body-less reader stays a rule" `Quick
      test_reader_stays_rule;
    Alcotest.test_case "the gate interns nothing" `Quick
      test_gate_interns_nothing;
    Alcotest.test_case "producibility worklist = sweep (corpus, chains)" `Quick
      test_worklist_corpus;
    qtest worklist_randprog;
    Alcotest.test_case "producibility visits each requirement once" `Quick
      test_worklist_visits;
  ]
