(* soak — randomised cross-engine self-check, for long runs.

   Every iteration generates a random rule program and requires:
     - naive and semi-naive bottom-up produce the same model;
     - the model satisfies every rule (brute-force Definition 4/5 check);
     - demand-driven (magic-sets) answers agree with the materialised ones;
     - the store passes its internal-consistency audit.

   dune exec bin/soak.exe -- [iterations] [base-seed] *)

module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint

let model_facts p = Pathlog.Fact.model (Program.store p)

let load_mode mode text =
  let config = { Fixpoint.default_config with mode } in
  let p = Program.of_string ~config text in
  ignore (Program.run p);
  p

type outcome = Checked | Conflicted

let check_one seed =
  let text =
    Pathlog.Randprog.generate { Pathlog.Randprog.default with seed }
  in
  let fail stage detail =
    Printf.printf "FAILURE at seed %d (%s)\n%s\n--- program ---\n%s\n" seed
      stage detail text;
    exit 1
  in
  match load_mode Fixpoint.Naive text with
  | exception Pathlog.Err.Functional_conflict _ -> Conflicted
  | exception e -> fail "load" (Printexc.to_string e)
  | p_naive -> (
    let p_semi = load_mode Fixpoint.Seminaive text in
    if model_facts p_naive <> model_facts p_semi then
      fail "modes" "naive and semi-naive models differ";
    (match Program.verify_model p_semi with
    | Ok () -> ()
    | Error (rule, witness) ->
      fail "model-check"
        (Format.asprintf "rule %a violated at %s" Pathlog.Pretty.pp_rule rule
           witness));
    (match Pathlog.Store.check_invariants (Program.store p_semi) with
    | [] -> ()
    | problems -> fail "invariants" (String.concat "\n" problems));
    let q = "o1[r ->> {Z}]" in
    let full =
      List.sort compare
        (List.map
           (Program.row_to_string p_semi)
           (Program.query_string p_semi q).rows)
    in
    let p_dem = Program.of_string text in
    let answer, _ = Program.query_demand_string p_dem q in
    let dem =
      List.sort compare (List.map (Program.row_to_string p_dem) answer.rows)
    in
    if dem <> full then fail "demand" "demand-driven answers differ";
    Checked)

let () =
  let iterations =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 500
  in
  let base = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 0 in
  let checked = ref 0 in
  let conflicted = ref 0 in
  for i = 1 to iterations do
    match check_one (base + i) with
    | Checked -> incr checked
    | Conflicted -> incr conflicted
  done;
  Printf.printf
    "soak: %d iterations ok (%d fully cross-checked, %d rejected as \
     inconsistent programs)\n"
    iterations !checked !conflicted
