(* The buffer printers ([Universe.add_obj]/[add_paren], [Fact.add]) must
   write byte for byte what the Format printers they replaced wrote. Those
   printers are kept below, unchanged, as oracles. *)

module Universe = Pathlog.Universe
module Fact = Pathlog.Fact
module Program = Pathlog.Program

(* ------------------------------------------------------------------ *)
(* Oracles: the Format-based printers                                  *)

let rec oracle_obj u ppf id =
  match Universe.descriptor u id with
  | Universe.Name s -> Format.pp_print_string ppf s
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Skolem { meth; recv; args; _ } ->
    Format.fprintf ppf "%a.%a" (oracle_obj u) recv (oracle_paren u) meth;
    (match args with
    | [] -> ()
    | _ ->
      Format.fprintf ppf "@(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (oracle_obj u))
        args)

and oracle_paren u ppf id =
  if Universe.is_skolem u id then Format.fprintf ppf "(%a)" (oracle_obj u) id
  else oracle_obj u ppf id

let oracle_fact u ppf fact =
  let obj = oracle_obj u and paren = oracle_paren u in
  let pp_args ppf = function
    | [] -> ()
    | args ->
      Format.fprintf ppf "@@(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           obj)
        args
  in
  match fact with
  | Fact.F_isa (o, c) -> Format.fprintf ppf "%a : %a" obj o paren c
  | F_scalar { meth; recv; args; res } ->
    Format.fprintf ppf "%a[%a%a -> %a]" obj recv paren meth pp_args args obj
      res
  | F_set { meth; recv; args; res } ->
    Format.fprintf ppf "%a[%a%a ->> {%a}]" obj recv paren meth pp_args args
      obj res

let is_magic u = function
  | Fact.F_set { meth; _ } -> (
    match Universe.descriptor u meth with
    | Universe.Name s -> Fact.is_magic_name s
    | Int _ | Str _ | Skolem _ -> false)
  | F_isa _ | F_scalar _ -> false

let oracle_lines ?(stop = "") u iter =
  let acc = ref [] in
  iter (fun f ->
      if not (is_magic u f) then
        acc := Format.asprintf "%a%s" (oracle_fact u) f stop :: !acc);
  List.sort compare !acc

(* ------------------------------------------------------------------ *)

let buffered add x =
  let b = Buffer.create 16 in
  add b x;
  Buffer.contents b

let check_obj u id =
  let expected = Format.asprintf "%a" (oracle_obj u) id in
  Alcotest.(check string) "to_string" expected (Universe.to_string u id);
  Alcotest.(check string) "add_obj" expected (buffered (Universe.add_obj u) id);
  Alcotest.(check string) "pp_obj" expected
    (Format.asprintf "%a" (Universe.pp_obj u) id);
  let paren = Format.asprintf "%a" (oracle_paren u) id in
  Alcotest.(check string) "add_paren" paren
    (buffered (Universe.add_paren u) id);
  Alcotest.(check string) "pp_paren" paren
    (Format.asprintf "%a" (Universe.pp_paren u) id)

let check_fact u f =
  let expected = Format.asprintf "%a" (oracle_fact u) f in
  Alcotest.(check string) "Fact.add" expected (buffered (Fact.add u) f);
  Alcotest.(check string) "Fact.pp" expected (Format.asprintf "%a" (Fact.pp u) f)

(* Every kind of object, and every fact shape over them. *)
let test_crafted_universe () =
  let u = Universe.create () in
  let name = Universe.name u and str = Universe.str u in
  let p1 = name "p1" and boss = name "boss" and kids = name "kids"
  and tc = name "tc" and salary = name "salary" and person = name "person" in
  let ints = List.map (Universe.int u) [ 0; 7; -1; -42; max_int; min_int ] in
  let strs =
    List.map str
      [
        ""; "plain"; "say \"hi\""; "back\\slash"; "line\nbreak"; "tab\there";
        "caf\xc3\xa9"; "\x00\x01\x7f\xff"; String.make 200 'x';
        String.concat " " (List.init 40 (fun i -> Printf.sprintf "w%d" i));
      ]
  in
  let sk ?(args = []) recv meth = Universe.skolem u ~meth ~recv ~args in
  let p1_boss = sk p1 boss in
  (* a skolem in method position: p1.(kids.tc) *)
  let kids_tc = sk kids tc in
  let p1_kids_tc = sk p1 kids_tc in
  (* nested skolems, and skolems as arguments *)
  let p1_boss_boss = sk p1_boss boss in
  let with_args =
    sk p1 salary ~args:[ List.nth ints 3; List.nth strs 2; p1_boss ]
  in
  let deep = sk p1_kids_tc kids_tc ~args:[ with_args; p1_boss_boss ] in
  let virtual_class = sk person kids_tc in
  Universe.iter u (fun id _ -> check_obj u id);
  let app meth recv args res = { Fact.meth; recv; args; res } in
  List.iter (check_fact u)
    [
      Fact.F_isa (p1, person);
      F_isa (p1_boss, virtual_class);
      F_isa (List.nth strs 4, kids_tc);
      F_scalar (app boss p1 [] p1_boss);
      F_scalar (app salary p1 [ List.nth ints 2; List.nth strs 6 ] with_args);
      F_scalar (app kids_tc deep [ deep ] (List.nth ints 5));
      F_set (app kids p1 [] (List.nth strs 3));
      F_set (app kids_tc p1 [ p1_boss; List.nth ints 4 ] p1_kids_tc);
    ]

(* Random strings, integers and skolems over them. *)
let qcheck_objects =
  QCheck.Test.make ~count:300 ~name:"add_obj = Format oracle, random objects"
    QCheck.(pair (small_list string) (small_list int))
    (fun (strings, ints) ->
      let u = Universe.create () in
      let m = Universe.name u "m" in
      let base =
        List.map (Universe.str u) strings @ List.map (Universe.int u) ints
      in
      List.iteri
        (fun i o ->
          ignore
            (Universe.skolem u ~meth:m ~recv:o
               ~args:(List.filteri (fun j _ -> j < i) base)))
        base;
      let ok = ref true in
      Universe.iter u (fun id _ ->
          ok :=
            !ok
            && Universe.to_string u id
               = Format.asprintf "%a" (oracle_obj u) id
            && buffered (Universe.add_paren u) id
               = Format.asprintf "%a" (oracle_paren u) id);
      !ok)

(* The model dump and the bare fact lines of every shipped program. *)
let test_corpus_model () =
  let dir =
    match
      List.find_opt Sys.file_exists
        [ "../examples/programs"; "examples/programs" ]
    with
    | Some d -> d
    | None -> Alcotest.fail "examples/programs not found"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".plg")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus found" true (files <> []);
  List.iter
    (fun f ->
      let p = Pathlog.load (Test_programs.read_file (Filename.concat dir f)) in
      let store = Program.store p in
      let u = Program.universe p in
      let model = Fact.model store in
      Alcotest.(check (list string))
        (f ^ ": model")
        (oracle_lines ~stop:"." u (Fact.iter_live store))
        model;
      Alcotest.(check (list string))
        (f ^ ": lines")
        (oracle_lines u (Fact.iter_live store))
        (Fact.lines u (Fact.iter_live store)))
    files

(* ------------------------------------------------------------------ *)
(* Oracles: the Format rule printer, the Format proof printer, and the
   payload flattener that split and copied every line *)

module Oracle_pretty = struct
  open Syntax.Ast

  let escape_string s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec pp_reference ppf = function
    | Name s -> Format.pp_print_string ppf s
    | Int_lit n -> Format.pp_print_int ppf n
    | Str_lit s -> Format.fprintf ppf "\"%s\"" (escape_string s)
    | Var v -> Format.pp_print_string ppf v
    | Paren t -> Format.fprintf ppf "(%a)" pp_reference t
    | Path { p_recv; p_sep; p_meth; p_args } ->
      let sep = match p_sep with Dot -> "." | Dotdot -> ".." in
      Format.fprintf ppf "%a%s%a%a" pp_reference p_recv sep pp_simple p_meth
        pp_args p_args
    | Regex { x_recv; x_re } ->
      let sep = match regex_lead_sep x_re with Dot -> "." | Dotdot -> ".." in
      Format.fprintf ppf "%a%s%a" pp_reference x_recv sep (pp_regex 2) x_re
    | Filter { f_recv; f_meth; f_args; f_rhs } ->
      Format.fprintf ppf "%a[%a%a%a]" pp_reference f_recv pp_simple f_meth
        pp_args f_args pp_rhs f_rhs
    | Isa { recv; cls } ->
      Format.fprintf ppf "%a : %a" pp_reference recv pp_simple cls

  (* method/class positions must be simple; parenthesise defensively *)
  and pp_simple ppf t =
    if is_simple t then pp_reference ppf t
    else Format.fprintf ppf "(%a)" pp_reference t

  (* Minimal parentheses via precedence levels: 0 admits alternation,
     1 admits concatenation, 2 only star-like steps. Leading separators of
     alternation branches and of the leftmost literal are implied by
     position and not printed; every other literal prints its own. *)
  and pp_regex level ppf (re : regex) =
    match re with
    | Rlit { l_meth; l_args; _ } ->
      Format.fprintf ppf "%a%a" pp_simple l_meth pp_args l_args
    | Rstar r -> Format.fprintf ppf "%a*" (pp_regex 2) r
    | Rplus r -> Format.fprintf ppf "%a+" (pp_regex 2) r
    | Ropt r -> Format.fprintf ppf "%a?" (pp_regex 2) r
    | Rseq rs ->
      let items ppf rs =
        List.iteri
          (fun i r ->
            if i > 0 then
              Format.pp_print_string ppf
                (match regex_lead_sep r with Dot -> "." | Dotdot -> "..");
            pp_regex 2 ppf r)
          rs
      in
      if level > 1 then Format.fprintf ppf "(%a)" items rs else items ppf rs
    | Ralt rs ->
      (* alternation is only valid inside parentheses *)
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "|")
           (pp_regex 1))
        rs

  and pp_args ppf = function
    | [] -> ()
    | args ->
      Format.fprintf ppf "@@(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_reference)
        args

  and pp_rhs ppf = function
    | Rscalar t -> Format.fprintf ppf " -> %a" pp_reference t
    | Rset_ref t -> Format.fprintf ppf " ->> %a" pp_reference t
    | Rset_enum ts ->
      Format.fprintf ppf " ->> {%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_reference)
        ts
    | Rsig_scalar t -> Format.fprintf ppf " => %a" pp_simple t
    | Rsig_set t -> Format.fprintf ppf " =>> %a" pp_simple t

  let pp_literal ppf = function
    | Pos t -> pp_reference ppf t
    | Neg t -> Format.fprintf ppf "not %a" pp_reference t

  let pp_literals ppf lits =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp_literal ppf lits

  let pp_rule ppf { head; body } =
    match body with
    | [] -> Format.fprintf ppf "%a." pp_reference head
    | _ -> Format.fprintf ppf "%a <- %a." pp_reference head pp_literals body

  let pp_statement ppf = function
    | Rule r -> pp_rule ppf r
    | Query lits -> Format.fprintf ppf "?- %a." pp_literals lits
end

let oracle_proof u ppf proof =
  let rec go indent ppf (p : Pathlog.Provenance.proof) =
    Format.fprintf ppf "%s%a" indent (oracle_fact u) p.fact;
    (match p.source with
    | Pathlog.Provenance.Extensional -> Format.fprintf ppf "   (fact)"
    | Derived { rule; _ } ->
      Format.fprintf ppf "   (by %a)" Oracle_pretty.pp_rule rule.source);
    List.iter
      (fun child -> Format.fprintf ppf "@,%a" (go (indent ^ "  ")) child)
      p.support
  in
  Format.fprintf ppf "@[<v>%a@]" (go "") proof

let oracle_flatten lines =
  List.concat_map
    (fun l ->
      match String.split_on_char '\n' l with
      | [] -> [ "" ]
      | parts -> List.map (String.map (function '\r' -> ' ' | c -> c)) parts)
    lines

(* ------------------------------------------------------------------ *)

let corpus_files
    ?(dirs = [ "examples/programs"; "docs/snippets"; "examples/broken" ]) () =
  List.concat_map
    (fun dir ->
      match List.find_opt Sys.file_exists [ "../" ^ dir; dir ] with
      | None -> Alcotest.failf "%s not found" dir
      | Some d ->
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".plg")
        |> List.sort compare
        |> List.map (Filename.concat d))
    dirs

(* Every statement of the corpus, and every magic rule demand emits for
   its queries. *)
let test_corpus_rules () =
  let checked = ref 0 in
  let check_stmt (stmt : Syntax.Ast.statement) =
    incr checked;
    Alcotest.(check string) "statement"
      (Format.asprintf "%a" Oracle_pretty.pp_statement stmt)
      (Pathlog.Pretty.statement_to_string stmt);
    match stmt with
    | Rule r ->
      Alcotest.(check string) "add_rule"
        (Format.asprintf "%a" Oracle_pretty.pp_rule r)
        (buffered Pathlog.Pretty.add_rule r);
      Alcotest.(check string) "pp_rule"
        (Format.asprintf "%a" Oracle_pretty.pp_rule r)
        (Format.asprintf "%a" Pathlog.Pretty.pp_rule r)
    | Query _ -> ()
  in
  List.iter
    (fun path ->
      let text = Test_programs.read_file path in
      let stmts = Pathlog.Parser.program text in
      List.iter check_stmt stmts;
      match Program.of_string text with
      | exception Program.Invalid _ -> ()
      | p ->
        List.iter
          (fun lits ->
            let store = Program.store p in
            match Engine.Demand.transform store (Program.rules p) lits with
            | Error _ -> ()
            | Ok d ->
              let shape = Engine.Demand.compile store d in
              List.iter (fun r -> check_stmt (Syntax.Ast.Rule r)) d.seeds;
              Array.iter
                (List.iter (fun (r : Engine.Rule.t) ->
                     check_stmt (Syntax.Ast.Rule r.source)))
                shape.strat.strata)
          (Program.embedded_queries p))
    (corpus_files ());
  Alcotest.(check bool) "statements checked" true (!checked > 100)

let qcheck_references =
  QCheck.Test.make ~count:500 ~name:"add_reference = Format oracle, random"
    (Helpers.arbitrary_reference ~allow_vars:true)
    (fun r ->
      buffered Pathlog.Pretty.add_reference r
      = Format.asprintf "%a" Oracle_pretty.pp_reference r)

(* Proof lines: the WHY payload, and the pp_proof text, of facts of every
   corpus program. *)
let test_corpus_proofs () =
  let checked = ref 0 in
  let check_proof u proof =
    incr checked;
    let expected = Format.asprintf "%a" (oracle_proof u) proof in
    Alcotest.(check string) "proof_lines" expected
      (String.concat "\n" (Pathlog.Provenance.proof_lines u proof));
    Alcotest.(check string) "pp_proof" expected
      (Format.asprintf "%a" (Pathlog.Provenance.pp_proof u) proof)
  in
  List.iter
    (fun path ->
      let p = Pathlog.load (Test_programs.read_file path) in
      let store = Program.store p and u = Program.universe p in
      let facts = ref [] in
      Fact.iter_live store (fun f -> facts := f :: !facts);
      List.iteri
        (fun i f ->
          if i < 150 then
            Option.iter (check_proof u)
              (Pathlog.Provenance.explain store (Program.provenance p) f))
        (List.rev !facts))
    (corpus_files ~dirs:[ "examples/programs"; "docs/snippets" ] ());
  Alcotest.(check bool) "proofs checked" true (!checked > 100)

(* Reply frames, payloads with and without embedded line breaks. *)
let qcheck_render_reply =
  let gen_line =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 6)
           (oneofl [ "a"; "x y"; "\n"; "\r"; "\r\n"; ""; "OK 2"; "\t" ])))
  in
  QCheck.Test.make ~count:500 ~name:"render_reply = split-and-copy oracle"
    (QCheck.make QCheck.Gen.(pair bool (list_size (int_range 0 5) gen_line)))
    (fun (degraded, lines) ->
      let header = if degraded then "DEGRADED" else "OK" in
      let flat = oracle_flatten lines in
      let expected =
        Printf.sprintf "%s %d\n" header (List.length flat)
        ^ String.concat "" (List.map (fun l -> l ^ "\n") flat)
      in
      expected
      = Pathlog.Protocol.render_reply
          (if degraded then Pathlog.Protocol.Degraded lines
           else Pathlog.Protocol.Ok lines))

let suite =
  [
    Alcotest.test_case "objects and facts = Format oracle, crafted universe"
      `Quick test_crafted_universe;
    Helpers.qtest qcheck_objects;
    Alcotest.test_case "model = Format oracle, examples/programs" `Quick
      test_corpus_model;
    Alcotest.test_case "rules = Format oracle, corpus and magic rules" `Quick
      test_corpus_rules;
    Helpers.qtest qcheck_references;
    Alcotest.test_case "proof lines = Format oracle, corpus" `Quick
      test_corpus_proofs;
    Helpers.qtest qcheck_render_reply;
  ]
