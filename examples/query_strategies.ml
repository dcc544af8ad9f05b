(* Two ways to answer the same query, and proofs of the answers.

   1. Full materialisation: bottom-up fixpoint of the whole program, then
      solve (the paper's implicit execution model, section 6).
   2. Demand-driven: a magic-sets transform seeded by the query's
      constants, so the bottom-up fixpoint derives only the facts the
      query needs.

   Plus: provenance proof trees for derived facts (pathlog why).

   dune exec examples/query_strategies.exe *)

module Program = Pathlog.Program

let program_text =
  {|
  % genealogy with a long chain grafted on
  peter[kids ->> {tim, mary}].
  tim[kids ->> {sally}].
  mary[kids ->> {tom, paul}].
  sally[kids ->> {gen0}].
  gen0[kids ->> {gen1}]. gen1[kids ->> {gen2}]. gen2[kids ->> {gen3}].

  X[desc ->> {Y}] <- X[kids ->> {Y}].
  X[desc ->> {Y}] <- X..desc[kids ->> {Y}].

  % an unrelated rule family demand evaluation can skip
  e1 : emp[base -> 100].
  X[pay -> B] <- X : emp[base -> B].
  |}

let q = "gen1[desc ->> {X}]"

let () =
  Printf.printf "query: ?- %s.\n\n" q;
  let lits = Pathlog.Parser.literals q in

  (* 1. full materialisation *)
  let p1 = Program.of_string program_text in
  let stats = Program.run p1 in
  let full = Program.query p1 lits in
  Printf.printf "full materialisation:  %d answers, %d firings, %d facts\n"
    (List.length full.rows) stats.firings
    (let s = Pathlog.Store.stats (Program.store p1) in
     s.scalar_tuples + s.set_tuples + s.isa_edges);

  (* 2. demand-driven *)
  let p2 = Program.of_string program_text in
  let demand, report = Program.query_demand p2 lits in
  Printf.printf
    "demand-driven:         %d answers, %d firings, %d magic facts%s\n"
    (List.length demand.rows)
    report.d_stats.firings report.d_magic_facts
    (match report.d_fallback with
    | Some fb -> " (fell back: " ^ Pathlog.Demand.fallback_to_string fb ^ ")"
    | None -> "");

  let render p (a : Program.answer) =
    String.concat ", "
      (List.sort compare (List.map (Program.row_to_string p) a.rows))
  in
  Printf.printf "\nanswers: %s (demand agrees: %b)\n" (render p1 full)
    (render p2 demand = render p1 full);

  (* why is gen3 a descendant of gen1? *)
  print_endline "\nproof tree (pathlog why):";
  match Program.why_string p1 "gen1[desc ->> {gen3}]" with
  | Some proof ->
    Format.printf "%a@."
      (Pathlog.Provenance.pp_proof (Program.universe p1))
      proof
  | None -> print_endline "fact not found"
