(* Randomised rule programs evaluated by every engine we have — bottom-up
   naive, bottom-up semi-naive, demand-driven magic sets — plus the model
   checker, all required to agree. This is the strongest single confidence
   argument for the evaluator stack. Also: the calculus baseline. *)

open Helpers
module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint

(* ------------------------------------------------------------------ *)
(* Random safe, positive, flat rule programs over a small vocabulary. *)

let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let objs = [ "o1"; "o2"; "o3"; "o4"; "o5"; "o6" ] in
  let classes = [ "ca"; "cb" ] in
  let smeths = [ "f"; "g" ] in
  let mmeths = [ "r"; "s"; "t" ] in
  let gen_fact =
    frequency
      [
        ( 2,
          map3
            (fun m o r -> Printf.sprintf "%s[%s ->> {%s}]." o m r)
            (oneofl mmeths) (oneofl objs) (oneofl objs) );
        ( 1,
          map3
            (fun m o r -> Printf.sprintf "%s[%s -> %s]." o m r)
            (oneofl smeths) (oneofl objs) (oneofl objs) );
        ( 1,
          map2 (fun o c -> Printf.sprintf "%s : %s." o c) (oneofl objs)
            (oneofl classes) );
      ]
  in
  (* rules: head X[h ->> {Y}], body a chain binding X and Y positively;
     h drawn from mmeths so recursion arises naturally *)
  let gen_rule =
    let gen_body_atom bound =
      (* an atom over variables X, Y, possibly introducing Y *)
      frequency
        [
          ( 3,
            map
              (fun m ->
                if bound then Printf.sprintf "X[%s ->> {Y}]" m
                else Printf.sprintf "X[%s ->> {Y}]" m)
              (oneofl mmeths) );
          (1, map (fun c -> Printf.sprintf "X : %s" c) (oneofl classes));
        ]
    in
    let* h = oneofl mmeths in
    let* first = map (fun m -> Printf.sprintf "X[%s ->> {Y}]" m) (oneofl mmeths) in
    let* extra = frequency [ (2, return []); (1, map (fun a -> [ a ]) (gen_body_atom true)) ] in
    return
      (Printf.sprintf "X[%s ->> {Y}] <- %s." h
         (String.concat ", " (first :: extra)))
  in
  let* facts = list_size (int_range 4 10) gen_fact in
  let* rules = list_size (int_range 1 4) gen_rule in
  return (String.concat "\n" (facts @ rules))

let arbitrary_program =
  QCheck.make ~print:(fun s -> s) gen_program

let model_facts p = Pathlog.Fact.model (Program.store p)

let load_mode mode text =
  let config = { Fixpoint.default_config with mode } in
  let p = Program.of_string ~config text in
  ignore (Program.run p);
  p

let engines_agree =
  QCheck.Test.make ~name:"naive = semi-naive on random rule programs"
    ~count:60 arbitrary_program (fun text ->
      match load_mode Fixpoint.Naive text with
      | exception _ -> QCheck.assume_fail ()  (* e.g. scalar conflict *)
      | p_naive ->
        let p_semi = load_mode Fixpoint.Seminaive text in
        model_facts p_naive = model_facts p_semi)

let fixpoint_is_model_random =
  QCheck.Test.make ~name:"random-program fixpoint is a model" ~count:25
    arbitrary_program (fun text ->
      match load_mode Fixpoint.Seminaive text with
      | exception _ -> QCheck.assume_fail ()
      | p -> Program.verify_model p = Ok ())

let demand_agrees_random jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "demand = full, rule progs (jobs %d)" jobs)
    ~count:40 arbitrary_program (fun text ->
      match load_mode Fixpoint.Seminaive text with
      | exception _ -> QCheck.assume_fail ()
      | p_full ->
        let q = "o1[r ->> {Z}]" in
        let render p (a : Program.answer) =
          List.sort compare (List.map (Program.row_to_string p) a.rows)
        in
        let config = { Fixpoint.default_config with jobs } in
        let p_dem = Program.of_string ~config text in
        render p_dem (fst (Program.query_demand_string p_dem q))
        = render p_full (Program.query_string p_full q))

let invariants_random_programs =
  QCheck.Test.make ~name:"store invariants on random rule programs"
    ~count:40 arbitrary_program (fun text ->
      match load_mode Fixpoint.Seminaive text with
      | exception _ -> QCheck.assume_fail ()
      | p -> Pathlog.Store.check_invariants (Program.store p) = [])

(* ------------------------------------------------------------------ *)
(* The calculus baseline (query 1.3) *)

let calculus_world () =
  load
    {|
    automobile :: vehicle.
    e1 : employee. e1[vehicles ->> {a1, v1}].
    e2 : employee. e2[vehicles ->> {a2}].
    a1 : automobile[color -> red].
    a2 : automobile[color -> green].
    v1 : vehicle[color -> blue].
    |}

let classes = [ "employee"; "automobile"; "vehicle" ]

let test_calculus_13 () =
  let p = calculus_world () in
  let store = Program.store p in
  let q =
    Pathlog.Calculus.of_string ~classes "employee.vehicles.automobile.color"
  in
  let got =
    List.map
      (Pathlog.Universe.to_string (Program.universe p))
      (Pathlog.Obj_id.Set.elements (Pathlog.Calculus.eval store q))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "colors of automobiles" [ "green"; "red" ] got

let test_calculus_class_filter_midpath () =
  let p = calculus_world () in
  let store = Program.store p in
  let without =
    Pathlog.Calculus.eval store
      (Pathlog.Calculus.of_string ~classes "employee.vehicles.color")
  in
  (* without the automobile filter, blue appears too *)
  Alcotest.(check int) "all vehicle colors" 3
    (Pathlog.Obj_id.Set.cardinal without)

let test_calculus_from_object () =
  let p = calculus_world () in
  let store = Program.store p in
  let q = Pathlog.Calculus.of_string ~classes "e1.vehicles.color" in
  Alcotest.(check int) "e1's vehicle colors" 2
    (Pathlog.Obj_id.Set.cardinal (Pathlog.Calculus.eval store q))

let test_calculus_translation_agrees () =
  let p = calculus_world () in
  let store = Program.store p in
  let q =
    Pathlog.Calculus.of_string ~classes "employee.vehicles.automobile.color"
  in
  let native = Pathlog.Obj_id.Set.elements (Pathlog.Calculus.eval store q) in
  let lits = Pathlog.Calculus.to_pathlog store q in
  let flat = Pathlog.Flatten.literals store lits in
  let z_slot = List.assoc "Z" flat.named in
  let via_solver =
    Pathlog.Solve.named_solutions store flat
    |> List.filter_map (fun row ->
           List.nth_opt row
             (let rec idx i = function
                | [] -> -1
                | (_, s) :: rest -> if s = z_slot then i else idx (i + 1) rest
              in
              idx 0 flat.named))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "translation agrees" native via_solver

let test_calculus_pp () =
  let q =
    Pathlog.Calculus.of_string ~classes "employee.vehicles.automobile.color"
  in
  Alcotest.(check string) "printed form"
    "{ Z | employee.vehicles.automobile.color[Z] }"
    (Format.asprintf "%a" Pathlog.Calculus.pp q)

let suite =
  [
    qtest engines_agree;
    qtest fixpoint_is_model_random;
    qtest (demand_agrees_random 1);
    qtest (demand_agrees_random 4);
    qtest invariants_random_programs;
    Alcotest.test_case "calculus query 1.3" `Quick test_calculus_13;
    Alcotest.test_case "calculus class filter" `Quick
      test_calculus_class_filter_midpath;
    Alcotest.test_case "calculus from object" `Quick test_calculus_from_object;
    Alcotest.test_case "calculus translation agrees" `Quick
      test_calculus_translation_agrees;
    Alcotest.test_case "calculus pp" `Quick test_calculus_pp;
  ]
