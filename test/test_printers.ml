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

let suite =
  [
    Alcotest.test_case "objects and facts = Format oracle, crafted universe"
      `Quick test_crafted_universe;
    Helpers.qtest qcheck_objects;
    Alcotest.test_case "model = Format oracle, examples/programs" `Quick
      test_corpus_model;
  ]
