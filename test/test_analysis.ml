(* The unified static-analysis subsystem: one golden program per
   diagnostic code, the JSON renderer, properties — [Check.analyze] is
   total on random programs, dead-rule pruning never changes
   embedded-query answers, the Absint bounds are sound — and the
   all-pairs oracles of the indexed conflict and recursion passes, with
   the corpus's pinned [check --json] / [--estimates] output. *)

module Check = Pathlog.Check
module Diagnostic = Pathlog.Diagnostic
module Program = Pathlog.Program

let contains = Helpers.contains

let codes (t : Check.t) =
  List.map (fun (d : Diagnostic.t) -> d.code) t.diagnostics

let start_line (sp : Pathlog.Token.span) = sp.s_start.line

let find code (t : Check.t) =
  match
    List.find_opt (fun (d : Diagnostic.t) -> d.code = code) t.diagnostics
  with
  | Some d -> d
  | None ->
    Alcotest.failf "expected %s, got [%s]" code (String.concat "; " (codes t))

let check_code ?(clean_rest = true) ~code ~severity ~line text =
  let t = Check.analyze text in
  let d = find code t in
  Alcotest.(check string)
    (code ^ " severity") severity
    (Diagnostic.severity_to_string d.severity);
  (match d.span with
  | None -> Alcotest.failf "%s carries no span" code
  | Some sp ->
    Alcotest.(check int) (code ^ " line") line (start_line sp));
  if clean_rest then
    List.iter
      (fun c ->
        if c <> code then
          Alcotest.failf "unexpected extra diagnostic %s for %s" c code)
      (codes t)

(* PL001 — parse error *)
let test_parse_error () =
  check_code ~code:"PL001" ~severity:"error" ~line:1 "x[m ->"

(* PL010–PL017 — the eight well-formedness conditions, in variant order *)
let test_wellformed_codes () =
  List.iter
    (fun (code, text) ->
      check_code ~code ~severity:"error" ~line:1 text)
    [
      ("PL010", "x[a -> _].");
      ("PL011", "x : c <- not y[a -> _].");
      ("PL012", "x[m -> y..kids].");
      ("PL013", "x[m ->> y].");
      ("PL014", "x[m => c] <- x : d.");
      ("PL015", "x..kids.");
      ("PL016", "x[a -> Y] <- x : c.");
      ("PL017", "x : c <- x : d, not y[a -> Z].");
    ]

(* PL018 — non-ground signature declaration *)
let test_bad_signature () =
  check_code ~code:"PL018" ~severity:"error" ~line:1 "X[age => integer]."

(* PL020 — unstratifiable negation *)
let test_unstratifiable () =
  let t = Check.analyze "x[m ->> {y}] <- not x[m ->> {y}]." in
  let d = find "PL020" t in
  Alcotest.(check string)
    "severity" "error"
    (Diagnostic.severity_to_string d.severity);
  Alcotest.(check bool)
    "mentions completion" true
    (contains ~sub:"completion" d.message)

(* PL021 — signature type lint *)
let test_type_lint () =
  let t =
    Check.analyze
      "employee[boss => employee].\nd1 : dept.\n\
       e1 : employee[managedBy -> d1].\n\
       X[boss -> Y] <- X : employee, Y : dept, X[managedBy -> Y]."
  in
  let d = find "PL021" t in
  Alcotest.(check string)
    "severity" "warning"
    (Diagnostic.severity_to_string d.severity)

(* PL030 — skolem-creation cycle *)
let test_skolem_cycle () =
  check_code ~code:"PL030" ~severity:"warning" ~line:2
    "x : nat.\nX.succ : nat <- X : nat."

(* ... also through an intermediate rule *)
let test_skolem_cycle_indirect () =
  let t =
    Check.analyze "x : odd.\nX.succ : even <- X : odd.\nY : odd <- Y : even."
  in
  ignore (find "PL030" t)

(* ... but not for the paper's generic closure rules or constructors:
   virtual objects at method/class/result positions are not enumerated *)
let test_skolem_no_false_positives () =
  List.iter
    (fun text ->
      let t = Check.analyze text in
      List.iter
        (fun c ->
          if c = "PL030" then
            Alcotest.failf "spurious PL030 for %S" text)
        (codes t))
    [
      (* generic transitive closure: skolem in method position *)
      "peter[kids ->> {tim}].\nX[(M.tc) ->> {Y}] <- X[M ->> {Y}].\n\
       X[(M.tc) ->> {Y}] <- X..(M.tc)[M ->> {Y}].";
      (* list type constructor: skolem in class position *)
      "integer : type.\nnil : (C.list) <- C : type.\n\
       L : (C.list) <- L[hd -> H], H : C.";
      (* skolem receiver whose relations nothing reads back *)
      "alice : person.\nX.address : address <- X : person.";
    ]

(* PL030 hint — skolems at variable method positions *)
let test_skolem_hint () =
  let t = Check.analyze "a[m -> b].\nX.(M.k) : c <- X[M -> Y]." in
  let d = find "PL030" t in
  Alcotest.(check string)
    "severity" "hint"
    (Diagnostic.severity_to_string d.severity)

(* PL031 — rule that can never fire *)
let test_never_fires () =
  check_code ~clean_rest:false ~code:"PL031" ~severity:"warning" ~line:1
    "x : c <- x[m -> y]."

(* PL032 — unreachable from the embedded queries *)
let test_unreachable () =
  let t =
    Check.analyze
      "a[m -> b].\na[k -> c].\nX[p -> Y] <- X[k -> Y].\n?- a[m -> Z]."
  in
  let d = find "PL032" t in
  Alcotest.(check string)
    "severity" "hint"
    (Diagnostic.severity_to_string d.severity);
  (match d.span with
  | Some sp -> Alcotest.(check int) "on the dead rule" 3 (start_line sp)
  | None -> Alcotest.fail "PL032 carries no span")

(* PL040 — definite conflict between ground facts *)
let test_definite_conflict () =
  check_code ~code:"PL040" ~severity:"error" ~line:2 "x[m -> a].\nx[m -> b]."

(* PL041 — potential conflict through rules *)
let test_potential_conflict () =
  let t =
    Check.analyze
      "X[m -> a] <- X : c.\nX[m -> b] <- X : d.\nx : c.\ny : d."
  in
  let d = find "PL041" t in
  Alcotest.(check string)
    "severity" "warning"
    (Diagnostic.severity_to_string d.severity)

(* ... molecule facts on distinct receivers are not conflicts *)
let test_no_conflict_distinct_receivers () =
  let t =
    Check.analyze "e1 : employee[age -> 30].\ne2 : employee[age -> 45]."
  in
  Alcotest.(check (list string)) "clean" [] (codes t)

let test_clean_program_ok () =
  let t =
    Check.analyze
      "peter[kids ->> {tim, mary}].\nX[desc ->> {Y}] <- X[kids ->> {Y}].\n\
       ?- peter[desc ->> {X}]."
  in
  Alcotest.(check bool) "ok" true (Check.ok t);
  Alcotest.(check (list string)) "no diagnostics" [] (codes t);
  Alcotest.(check int) "rules" 2 t.n_rules;
  Alcotest.(check int) "queries" 1 t.n_queries;
  Alcotest.(check bool) "worst is none" true (Check.worst t = None)

let test_multiple_diagnostics_sorted () =
  (* one error (conflict), one warning (never fires) — sorted by line *)
  let t =
    Check.analyze "p : q <- p[zz -> w].\nx[m -> a].\nx[m -> b]."
  in
  Alcotest.(check (list string)) "both, in source order"
    [ "PL031"; "PL040" ] (codes t);
  Alcotest.(check bool) "not ok" false (Check.ok t);
  Alcotest.(check bool) "worst is error" true
    (Check.worst t = Some Diagnostic.Error)

let test_json_rendering () =
  let t = Check.analyze "x[m -> a].\nx[m -> b]." in
  let json = Check.to_json t in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("json has " ^ sub) true (contains ~sub json))
    [
      Printf.sprintf {|"schema_version":%d|} Check.schema_version;
      {|"ok":false|};
      {|"rules":2|};
      {|"code":"PL040"|};
      {|"severity":"error"|};
      {|"span":{"start":{"line":2,"col":1,"offset":11},"end":{"line":2,"col":10,"offset":20}}|};
      {|"context":"x[m -> b]."|};
    ]

let test_json_escaping () =
  let t = Check.analyze "x[m -> \"a\\\"b\"].\nx[m -> \"c\"]." in
  let json = Check.to_json t in
  (* the embedded quote must be escaped, keeping the document well formed *)
  Alcotest.(check bool) "escaped quote" true (contains ~sub:{|\"|} json)

let test_gate () =
  (match Check.gate "x[m -> a].\nx[m -> b]." with
  | Ok _ -> Alcotest.fail "gate let a conflicting program through"
  | Error msg ->
    Alcotest.(check bool) "message names code" true
      (contains ~sub:"PL040" msg));
  (match Check.gate "x : nat.\nX.succ : nat <- X : nat." with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "default gate rejects warnings");
  match
    Check.gate ~deny:Diagnostic.Warning "x : nat.\nX.succ : nat <- X : nat."
  with
  | Ok _ -> Alcotest.fail "deny=warning let PL030 through"
  | Error _ -> ()

(* PL050 — provably unbounded creation reachable from a query *)
let test_unbounded_creation () =
  let t =
    Check.analyze "p0 : pair.\nX.left : pair <- X : pair.\n?- X : pair."
  in
  let d = find "PL050" t in
  Alcotest.(check string)
    "PL050 severity" "error"
    (Diagnostic.severity_to_string d.severity);
  (match d.span with
  | Some sp -> Alcotest.(check int) "PL050 line" 2 (start_line sp)
  | None -> Alcotest.fail "PL050 carries no span");
  (* the same cycle without a query is PL030 territory only: nothing
     demands the unbounded relation *)
  let t' = Check.analyze "p0 : pair.\nX.left : pair <- X : pair." in
  Alcotest.(check bool)
    "no PL050 without a query" false
    (List.mem "PL050" (codes t'))

(* PL051 — predicted fixpoint size exceeds the threshold *)
let test_fixpoint_blowup () =
  let text =
    "n1 : node. n2 : node. n3 : node.\n\
     n1[e ->> {n2}]. n2[e ->> {n3}].\n\
     X[t ->> {Y}] <- X[e ->> {Y}].\n\
     X[e ->> {Y}] <- X[t ->> {Y}]."
  in
  let t = Check.analyze ~card_threshold:10 text in
  let d = find "PL051" t in
  Alcotest.(check string)
    "PL051 severity" "warning"
    (Diagnostic.severity_to_string d.severity);
  Alcotest.(check bool)
    "message names the threshold" true
    (contains ~sub:"threshold (10)" d.message);
  (match d.span with
  | None -> Alcotest.fail "PL051 carries no span"
  | Some _ -> ());
  (* at the default threshold this tiny program is quiet *)
  Alcotest.(check bool)
    "quiet at the default threshold" false
    (List.mem "PL051" (codes (Check.analyze text)))

(* PL052 — cross-product join *)
let test_cross_product () =
  let t =
    Check.analyze
      "a1 : a.\nb1 : b.\nX[p ->> {Y}] <- X : a, Y : b.\n?- X[p ->> {Z}]."
  in
  let d = find "PL052" t in
  Alcotest.(check string)
    "PL052 severity" "hint"
    (Diagnostic.severity_to_string d.severity);
  (match d.span with
  | Some sp -> Alcotest.(check int) "PL052 line" 3 (start_line sp)
  | None -> Alcotest.fail "PL052 carries no span");
  (* a shared variable connects the body: no cross product *)
  let t' =
    Check.analyze
      "n1[e -> n2].\nn2[e -> n3].\nX[p -> Y] <- X[e -> Z], Z[e -> Y]."
  in
  Alcotest.(check bool)
    "connected body is quiet" false
    (List.mem "PL052" (codes t'))

let test_severity_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Diagnostic.severity_to_string s ^ " roundtrips")
        true
        (Diagnostic.severity_of_string (Diagnostic.severity_to_string s)
        = Some s))
    [ Diagnostic.Hint; Diagnostic.Warning; Diagnostic.Error ]

(* --- properties ------------------------------------------------------ *)

let randprog seed =
  Pathlog.Randprog.generate { Pathlog.Randprog.default with seed }

(* analyze is total: any random program yields a report, never an
   exception *)
let analyze_total =
  QCheck.Test.make ~name:"check is total on random programs" ~count:100
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let text = randprog seed ^ "\n?- X[r ->> {Y}]." in
      let t = Check.analyze text in
      List.length t.diagnostics >= 0)

(* the abstract interpreter's cardinality bounds, evaluated at the final
   universe size, over-approximate the actual number of fixpoint
   insertions — under both sequential and parallel evaluation *)
let absint_sound jobs =
  let sat_add a b = if a > max_int - b then max_int else a + b in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "absint bounds fixpoint size (jobs=%d)" jobs)
    ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let text = randprog seed in
      match
        let config = { Pathlog.Fixpoint.default_config with jobs } in
        let p = Program.of_string ~config text in
        (* analyse the un-run program — what check/serve see *)
        let t =
          Pathlog.Absint.analyze ~facts:(Program.facts p) (Program.store p)
            (Program.rules p)
        in
        let stats = Program.run p in
        let n =
          max 1 (Pathlog.Universe.cardinality (Program.universe p))
        in
        let bound =
          List.fold_left
            (fun acc (_, c) ->
              sat_add acc (Pathlog.Absint.eval_card ~n c))
            0
            (Pathlog.Absint.rel_cards t)
        in
        (bound, stats.Pathlog.Fixpoint.insertions)
      with
      | bound, actual -> bound >= actual
      | exception _ -> QCheck.assume_fail () (* e.g. scalar conflict *))

(* --- oracles for the indexed passes ----------------------------------- *)

module Ast = Pathlog.Ast
module Ir = Pathlog.Ir
module Analyses = Pathlog.Analyses

(* The compiled statements of a parseable text, ill-formed ones left
   out (the diagnostics report them). *)
let compiled text =
  match Pathlog.Parser.program_spanned text with
  | exception Pathlog.Parser.Error _ -> None
  | spanned ->
    Some
      (Program.compile
         ~on_invalid:(fun _ _ _ -> ())
         (List.map (fun (s, sp) -> (s, Some sp)) spanned))

(* The all-pairs pairing [Analyses.scalar_conflicts] replaced: every pair
   of head assignments, in discovery order. *)
let all_pairs_conflicts (assignments : Analyses.assignment list) =
  let rec strip = function Ast.Paren r -> strip r | r -> r in
  let is_ground r =
    match strip r with
    | Ast.Name _ | Int_lit _ | Str_lit _ -> true
    | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> false
  in
  let conflicts = ref [] in
  let rec pairs = function
    | [] -> ()
    | (a : Analyses.assignment) :: rest ->
      List.iter
        (fun (b : Analyses.assignment) ->
          if
            a.a_meth = b.a_meth
            && List.length a.a_args = List.length b.a_args
            && is_ground a.a_res && is_ground b.a_res
            && a.a_res <> b.a_res
            && not
                 (is_ground a.a_recv && is_ground b.a_recv
                 && a.a_recv <> b.a_recv)
            && not
                 (List.exists2
                    (fun x y -> is_ground x && is_ground y && x <> y)
                    a.a_args b.a_args)
          then conflicts := (a, b) :: !conflicts)
        rest;
      pairs rest
  in
  pairs assignments;
  List.rev !conflicts

(* The all-pairs rule dependency the indexed successor lists replaced:
   can inserting into [d] grow a relation [reader] reads? *)
let affects (d : Ir.rel) (reader : Pathlog.Rule.t) =
  let reads r = List.exists (Ir.equal_rel r) reader.reads in
  match d with
  | R_scalar _ | R_set _ -> reader.reads_any || reads d
  | R_any ->
    reader.reads_any
    || List.exists
         (function Ir.R_scalar _ | Ir.R_set _ -> true | _ -> false)
         reader.reads
  | R_isa_c _ -> reads d || reads Ir.R_isa
  | R_isa ->
    reads Ir.R_isa
    || List.exists (function Ir.R_isa_c _ -> true | _ -> false) reader.reads

(* A rule is recursive when an insertion it makes can, through a chain
   of [affects] steps, reach the rule itself. *)
let recursive_oracle facts rules =
  let rules = Array.of_list rules in
  let n = Array.length rules in
  let anc = Pathlog.Stratify.static_ancestors ~facts (Array.to_list rules) in
  let defs =
    Array.map
      (fun (r : Pathlog.Rule.t) ->
        List.concat_map
          (fun (d : Ir.rel) ->
            match d with
            | R_isa_c c ->
              d
              :: List.map
                   (fun a -> Ir.R_isa_c a)
                   (Pathlog.Obj_id.Set.elements (anc c))
            | R_isa | R_scalar _ | R_set _ | R_any -> [ d ])
          r.defines)
      rules
  in
  let succ i =
    List.filter
      (fun j -> List.exists (fun d -> affects d rules.(j)) defs.(i))
      (List.init n Fun.id)
  in
  Array.to_list
    (Array.init n (fun i ->
         let seen = Array.make n false in
         let rec go = function
           | [] -> ()
           | j :: rest ->
             if seen.(j) then go rest
             else begin
               seen.(j) <- true;
               go (succ j @ rest)
             end
         in
         go (succ i);
         seen.(i)))

(* PL040/PL041 in order and every [rc_recursive] flag agree with the
   all-pairs oracles. *)
let indexed_passes_agree text =
  match compiled text with
  | None -> QCheck.assume_fail ()
  | Some { c_store = store; c_facts = facts; c_rules = rules; _ } ->
    (* the assignment sequence in statement order *)
    let offset (a : Analyses.assignment) =
      (Option.get a.a_span).s_start.offset
    in
    let sequence =
      List.concat_map Analyses.fact_assignments facts
      @ List.concat_map Analyses.head_assignments rules
      |> List.stable_sort (fun a b -> compare (offset a) (offset b))
    in
    let oracle =
      List.map Analyses.conflict_diagnostic (all_pairs_conflicts sequence)
    in
    let flags =
      List.map
        (fun (rc : Pathlog.Absint.rule_card) -> rc.rc_recursive)
        (Pathlog.Absint.rule_cards (Pathlog.Absint.analyze ~facts store rules))
    in
    Analyses.scalar_conflicts ~facts rules = oracle
    && flags = recursive_oracle facts rules

(* Many scalar assignments to two methods: ground, variable and path
   receivers; ground and variable arguments at arities 0-2; name, int and
   string results (and some variable ones, never compared); rules that
   read through variable methods and classes and a class hierarchy, so
   every kind of dependency edge occurs. *)
let conflict_program seed =
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let grounds = [| "o1"; "o2"; "3"; "\"s\"" |] in
  let results = [| "r1"; "r2"; "7"; "\"x\"" |] in
  let meths = [| "m"; "n" |] in
  let args ~ground =
    match Random.State.int rng 3 with
    | 0 -> ""
    | k ->
      "@("
      ^ String.concat ", "
          (List.init k (fun _ ->
               if ground || Random.State.bool rng then pick grounds else "A"))
      ^ ")"
  in
  let stmt _ =
    match Random.State.int rng 11 with
    | 0 | 1 | 2 ->
      Printf.sprintf "%s[%s%s -> %s]." (pick grounds) (pick meths)
        (args ~ground:true) (pick results)
    | 3 ->
      Printf.sprintf "%s : c[%s%s -> %s][%s -> %s]." (pick grounds)
        (pick meths) (args ~ground:true) (pick results) (pick meths)
        (pick results)
    | 4 ->
      Printf.sprintf "X[%s%s -> %s] <- X : c, A : c." (pick meths)
        (args ~ground:false) (pick results)
    | 5 ->
      Printf.sprintf "%s[%s%s -> %s] <- A : d." (pick grounds) (pick meths)
        (args ~ground:false) (pick results)
    | 6 -> Printf.sprintf "X.f[%s -> %s] <- X : c." (pick meths) (pick results)
    | 7 -> Printf.sprintf "X[%s -> Y] <- X[k -> Y], X : C." (pick meths)
    | 8 -> "X : d <- X[M -> Z]."
    | 9 -> Printf.sprintf "X[M -> %s] <- X : d, M : c." (pick results)
    | _ -> "d :: c."
  in
  String.concat "\n" (List.init (20 + Random.State.int rng 40) stmt)

let indexed_passes_randprog =
  QCheck.Test.make ~name:"indexed conflicts/recursion = all-pairs (randprog)"
    ~count:100
    QCheck.(int_range 1 10_000)
    (fun seed ->
      indexed_passes_agree
        (Pathlog.Randprog.generate
           { Pathlog.Randprog.seed; facts = 30; rules = 8 }))

let indexed_passes_conflict_heavy =
  QCheck.Test.make
    ~name:"indexed conflicts/recursion = all-pairs (conflict-heavy)"
    ~count:200
    QCheck.(int_range 1 10_000)
    (fun seed -> indexed_passes_agree (conflict_program seed))

(* [check --json] and [check --estimates]'s report over the shipped
   corpus, pinned: the indexed passes must reproduce them byte for byte.
   Each section of the golden file is "== FILE", the JSON line, then the
   estimates report. Regenerate it from the root of the checkout with

     for f in examples/programs/*.plg examples/broken/*.plg \
              docs/snippets/*.plg; do
       echo "== $f"; pathlog check --json $f
       pathlog check --estimates $f \
         | sed -n '/^relation cardinality bounds:/,$p' | sed '/^ok:/,$d'
     done > test/check_corpus.golden *)
let test_check_golden () =
  let path f =
    match List.find_opt Sys.file_exists [ "../" ^ f; f ] with
    | Some p -> p
    | None -> Alcotest.failf "%s not found" f
  in
  let golden =
    In_channel.with_open_bin (path "test/check_corpus.golden")
      In_channel.input_all
  in
  let rec split acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | l :: rest when String.starts_with ~prefix:"== " l ->
      split (if cur = [] then acc else List.rev cur :: acc) [ l ] rest
    | l :: rest -> split acc (l :: cur) rest
  in
  let lines = String.split_on_char '\n' (String.trim golden) in
  let sections = split [] [] lines in
  Alcotest.(check int) "corpus files" 16 (List.length sections);
  List.iter
    (function
      | header :: expected ->
        let file = String.sub header 3 (String.length header - 3) in
        let text = In_channel.with_open_bin (path file) In_channel.input_all in
        let t = Check.analyze ~estimates:true text in
        Alcotest.(check (list string))
          file expected
          (Check.to_json t :: t.estimates)
      | [] -> Alcotest.fail "empty golden section")
    sections

(* Admission cost and PL050 against their quadratic originals: the
   live rules found by [List.memq] over [Stratify.live_rules]' list
   instead of a uid table. Over the shipped corpus, for each embedded
   query and one query per defined relation, the estimate and the rules
   PL050 flags must be the same. *)
module Absint_oracle = struct
  module Absint = Pathlog.Absint

  let goals store lits =
    match Pathlog.Flatten.literals store lits with
    | q -> Pathlog.Ir.query_rels q.atoms
    | exception _ -> []

  let sat_add a b =
    let cap = max_int / 4 in
    let v = a + b in
    if v < 0 || v > cap then cap else v

  let query_cost t store rules lits =
    let live = Pathlog.Stratify.live_rules rules ~goals:(goals store lits) in
    let n =
      max 1 (Pathlog.Universe.cardinality (Pathlog.Store.universe store))
    in
    let rec go acc = function
      | [] -> `Bound acc
      | (rc : Absint.rule_card) :: rest ->
        if List.memq rc.rc_rule live then
          match rc.rc_firings with
          | Absint.Inf -> `Infinite
          | c -> go (sat_add acc (Absint.eval_card ~n c)) rest
        else go acc rest
    in
    go 0 (Absint.rule_cards t)

  (* the spans of the rules PL050 flags for [queries] *)
  let pl050 t store rules queries =
    if queries = [] then []
    else
      let live =
        Pathlog.Stratify.live_rules rules
          ~goals:(List.concat_map (goals store) queries)
      in
      List.filter_map
        (fun (rc : Absint.rule_card) ->
          match rc.rc_creation_cycle with
          | Some _ when List.memq rc.rc_rule live -> Some rc.rc_rule.span
          | Some _ | None -> None)
        (Absint.rule_cards t)
end

let corpus_files () =
  let dir d =
    let d = List.find (fun p -> Sys.file_exists p) [ "../" ^ d; d ] in
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".plg")
    |> List.sort compare
    |> List.map (Filename.concat d)
  in
  List.concat_map dir
    [ "examples/programs"; "docs/snippets"; "examples/broken" ]

(* One query per relation some rule defines: every goal set the
   admission path can meet, up to the receiver pattern. *)
let relation_queries store facts rules =
  let u = Pathlog.Store.universe store in
  let name o = Pathlog.Universe.to_string u o in
  List.concat_map (fun (f : Pathlog.Rule.fact) -> f.f_defines) facts
  @ List.concat_map (fun (r : Pathlog.Rule.t) -> r.defines) rules
  |> List.sort_uniq Pathlog.Ir.compare_rel
  |> List.filter_map (function
       | Pathlog.Ir.R_scalar m -> Some (Printf.sprintf "X[%s -> Y]" (name m))
       | Pathlog.Ir.R_set m -> Some (Printf.sprintf "X[%s ->> {Y}]" (name m))
       | Pathlog.Ir.R_isa_c c -> Some (Printf.sprintf "X : %s" (name c))
       | Pathlog.Ir.R_isa | Pathlog.Ir.R_any -> Some "X : Y")
  |> List.filter_map (fun q ->
         match Program.parse_query q with
         | lits -> Some lits
         | exception _ -> None)

let test_admission_oracle () =
  let files = corpus_files () in
  Alcotest.(check int) "corpus files" 16 (List.length files);
  let flags = ref 0 in
  List.iter
    (fun file ->
      let text = In_channel.with_open_bin file In_channel.input_all in
      match compiled text with
      | None -> Alcotest.failf "%s does not parse" file
      | Some
          { c_store = store; c_facts = facts; c_rules = rules;
            c_queries = queries; _ } ->
        let t = Pathlog.Absint.analyze ~facts store rules in
        let show = function
          | `Bound n -> string_of_int n
          | `Infinite -> "infinite"
        in
        List.iter
          (fun lits ->
            Alcotest.(check string)
              (file ^ ": query_cost")
              (show (Absint_oracle.query_cost t store rules lits))
              (show (Pathlog.Absint.query_cost t store rules lits)))
          (queries @ relation_queries store facts rules);
        let flagged =
          Pathlog.Absint.check t store ~queries
          |> List.filter_map (fun (d : Diagnostic.t) ->
                 if d.code = "PL050" then Some d.span else None)
        in
        flags := !flags + List.length flagged;
        Alcotest.(check bool)
          (file ^ ": PL050 flags the same rules")
          true
          (flagged = Absint_oracle.pl050 t store rules queries))
    files;
  Alcotest.(check bool) "the corpus trips PL050" true (!flags > 0)

let suite =
  [
    Alcotest.test_case "PL001 parse error" `Quick test_parse_error;
    Alcotest.test_case "PL010-PL017 wellformed" `Quick test_wellformed_codes;
    Alcotest.test_case "PL018 bad signature" `Quick test_bad_signature;
    Alcotest.test_case "PL020 unstratifiable" `Quick test_unstratifiable;
    Alcotest.test_case "PL021 type lint" `Quick test_type_lint;
    Alcotest.test_case "PL030 skolem cycle" `Quick test_skolem_cycle;
    Alcotest.test_case "PL030 indirect cycle" `Quick
      test_skolem_cycle_indirect;
    Alcotest.test_case "PL030 no false positives" `Quick
      test_skolem_no_false_positives;
    Alcotest.test_case "PL030 hilog hint" `Quick test_skolem_hint;
    Alcotest.test_case "PL031 never fires" `Quick test_never_fires;
    Alcotest.test_case "PL032 unreachable" `Quick test_unreachable;
    Alcotest.test_case "PL040 definite conflict" `Quick
      test_definite_conflict;
    Alcotest.test_case "PL041 potential conflict" `Quick
      test_potential_conflict;
    Alcotest.test_case "distinct receivers clean" `Quick
      test_no_conflict_distinct_receivers;
    Alcotest.test_case "clean program" `Quick test_clean_program_ok;
    Alcotest.test_case "sorted diagnostics" `Quick
      test_multiple_diagnostics_sorted;
    Alcotest.test_case "PL050 unbounded creation" `Quick
      test_unbounded_creation;
    Alcotest.test_case "PL051 fixpoint blowup" `Quick test_fixpoint_blowup;
    Alcotest.test_case "PL052 cross product" `Quick test_cross_product;
    Alcotest.test_case "json rendering" `Quick test_json_rendering;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "gate" `Quick test_gate;
    Alcotest.test_case "severity roundtrip" `Quick test_severity_roundtrip;
    QCheck_alcotest.to_alcotest analyze_total;
    QCheck_alcotest.to_alcotest (absint_sound 1);
    QCheck_alcotest.to_alcotest (absint_sound 4);
    Alcotest.test_case "check golden corpus" `Quick test_check_golden;
    QCheck_alcotest.to_alcotest indexed_passes_randprog;
    QCheck_alcotest.to_alcotest indexed_passes_conflict_heavy;
    Alcotest.test_case "admission cost and PL050 = memq oracle (corpus)"
      `Quick test_admission_oracle;
  ]
