(* Incremental view maintenance: delta rounds for asserts,
   Backward/Forward retraction, honest recompute behind negation — always
   bit-for-bit equal to a from-scratch fixpoint on the final extensional
   state. *)

module Program = Pathlog.Program
module Fixpoint = Pathlog.Fixpoint
module Store = Pathlog.Store
module Live = Pathlog.Live

let attach ?(jobs = 1) text =
  let config = { Fixpoint.default_config with jobs } in
  Live.attach (Program.of_string ~config text)

let holds live q = Pathlog.holds (Live.program live) q

(* The live model must equal the model of a fresh program loaded from the
   live source (current extensional facts + current rules). *)
let check_equiv ?(jobs = 1) live =
  let config = { Fixpoint.default_config with jobs } in
  let reference = Program.of_string ~config (Live.dump_source live) in
  ignore (Program.run reference);
  Alcotest.(check (pair (list string) (list string)))
    "live model = from-scratch model" ([], [])
    (Helpers.model_diff ~before:reference ~after:(Live.program live))

let check_clean live =
  Alcotest.(check (list string))
    "store invariants" []
    (Store.check_invariants (Live.store live));
  Alcotest.(check (list string)) "provenance records" [] (Live.check_support live)

(* ------------------------------------------------------------------ *)
(* Retractions whose derived consequences keep a proof ("counting") *)

(* diamond: a reaches c both directly and through b, so retracting the
   b-c edge must keep what the direct edge still supports *)
let tc_text =
  {|
    a[edge ->> {b}]. b[edge ->> {c}]. c[edge ->> {d}]. a[edge ->> {c}].
    X[tc ->> {Y}] <- X[edge ->> {Y}].
    X[tc ->> {Y}] <- X[edge ->> {Z}] , Z[tc ->> {Y}].
  |}

let counting_assert () =
  let live = attach {|
    x[p -> v]. y[p -> v].
    X[m -> Y] <- X[p -> Y].
  |} in
  Alcotest.(check bool) "derived" true (holds live "x[m -> v]");
  let st = Live.assert_batch live "z[p -> v]. x[q -> w]." in
  Alcotest.(check string) "strategy" "counting"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "new derivation" true (holds live "z[m -> v]");
  check_equiv live;
  check_clean live

let counting_retract_multi_support () =
  (* a fact derived by two rules survives losing one support *)
  let live = attach {|
    x[p -> v]. x[q -> v].
    X[m -> Y] <- X[p -> Y].
    X[m -> Y] <- X[q -> Y].
  |} in
  let st = Live.retract_batch live "x[p -> v]." in
  Alcotest.(check string) "strategy" "counting"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "still derived via q" true (holds live "x[m -> v]");
  Alcotest.(check bool) "p gone" false (holds live "x[p -> v]");
  let _ = Live.retract_batch live "x[q -> v]." in
  Alcotest.(check bool) "now gone" false (holds live "x[m -> v]");
  check_equiv live;
  check_clean live

let revalidation_alternative_chain () =
  (* the recorded derivation rests on one isa chain; retracting it must
     find the alternative chain, not delete the head *)
  let live = attach {|
    mid1 :: top. mid2 :: top.
    o : mid1. o : mid2.
    X[t -> yes] <- X : top.
  |} in
  Alcotest.(check bool) "derived" true (holds live "o[t -> yes]");
  let st = Live.retract_batch live "o : mid1." in
  Alcotest.(check string) "strategy" "counting"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "survives via mid2" true (holds live "o[t -> yes]");
  let _ = Live.retract_batch live "o : mid2." in
  Alcotest.(check bool) "gone" false (holds live "o[t -> yes]");
  check_equiv live;
  check_clean live

(* ------------------------------------------------------------------ *)
(* Retractions that delete derived facts ("dred") *)

let dred_retract_support () =
  let live = attach tc_text in
  Alcotest.(check bool) "closure" true (holds live "a[tc ->> {d}]");
  (* retract a support of the recursively derived a-tc-d *)
  let st = Live.retract_batch live "b[edge ->> {c}]." in
  Alcotest.(check string) "strategy" "dred"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "b no longer reaches d" false
    (holds live "b[tc ->> {d}]");
  Alcotest.(check bool) "a re-derived via the direct edge" true
    (holds live "a[tc ->> {c}]");
  Alcotest.(check bool) "a still reaches d" true (holds live "a[tc ->> {d}]");
  Alcotest.(check bool) "c still reaches d" true (holds live "c[tc ->> {d}]");
  check_equiv live;
  check_clean live;
  (* re-assert: the delta rounds rebuild the closure *)
  let st = Live.assert_batch live "b[edge ->> {c}]." in
  Alcotest.(check string) "assert strategy" "counting"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "closure restored" true (holds live "b[tc ->> {d}]");
  check_equiv live;
  check_clean live

let dred_cycle () =
  (* a cycle keeps a derivation of each of its facts; with its entry gone
     it must still be deleted *)
  let live =
    attach
      {|
        a[edge ->> {b}]. b[edge ->> {a}]. x[edge ->> {a}].
        X[tc ->> {Y}] <- X[edge ->> {Y}].
        X[tc ->> {Y}] <- X[edge ->> {Z}] , Z[tc ->> {Y}].
      |}
  in
  Alcotest.(check bool) "a reaches a through the cycle" true
    (holds live "a[tc ->> {a}]");
  let st = Live.retract_batch live "b[edge ->> {a}]." in
  Alcotest.(check string) "strategy" "dred"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "cycle broken" false (holds live "a[tc ->> {a}]");
  Alcotest.(check bool) "a still reaches b" true (holds live "a[tc ->> {b}]");
  Alcotest.(check bool) "x still reaches b" true (holds live "x[tc ->> {b}]");
  check_equiv live;
  check_clean live

(* ------------------------------------------------------------------ *)
(* Fallbacks and atomicity *)

let negation_gate () =
  let live =
    attach
      {|
        a[passed ->> {c1}].
        X : ready <- X[passed ->> {c1}] , not X[passed ->> {c2}].
      |}
  in
  Alcotest.(check bool) "a ready" true (holds live "a : ready");
  (* asserting into a negated relation must recompute, and the derived
     fact must disappear — additions delete through negation *)
  let st = Live.assert_batch live "a[passed ->> {c2}]." in
  Alcotest.(check string) "strategy" "recompute"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "no longer ready" false (holds live "a : ready");
  let st = Live.retract_batch live "a[passed ->> {c2}]." in
  Alcotest.(check string) "retract strategy" "recompute"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "ready again" true (holds live "a : ready");
  check_equiv live;
  check_clean live

let rule_assert_and_retract () =
  let live = attach "a[edge ->> {b}]. b[edge ->> {c}]." in
  let st = Live.assert_batch live "X[r ->> {Y}] <- X[edge ->> {Y}]." in
  Alcotest.(check string) "rule assert strategy" "recompute"
    (Live.strategy_name st.Live.strategy);
  Alcotest.(check bool) "rule fired" true (holds live "a[r ->> {b}]");
  let _ = Live.retract_batch live "X[r ->> {Y}] <- X[edge ->> {Y}]." in
  Alcotest.(check bool) "derivations gone" false (holds live "a[r ->> {b}]");
  Alcotest.(check bool) "edb untouched" true (holds live "a[edge ->> {b}]");
  check_equiv live;
  check_clean live

let reject_atomic () =
  let live = attach "x[age -> 30]." in
  let before = Live.dump_source live in
  (* scalar conflict: the whole batch must be rolled back, including the
     harmless first statement *)
  (try
     ignore (Live.assert_batch live "y[age -> 1]. x[age -> 31]." : Live.batch_stats);
     Alcotest.fail "conflicting batch accepted"
   with Live.Rejected _ -> ());
  Alcotest.(check bool) "y insert rolled back" false (holds live "y[age -> 1]");
  Alcotest.(check string) "source unchanged" before (Live.dump_source live);
  check_equiv live;
  check_clean live;
  (* retracting a derived-only or absent fact is refused *)
  (try
     ignore (Live.retract_batch live "x[age -> 99]." : Live.batch_stats);
     Alcotest.fail "absent retraction accepted"
   with Live.Rejected _ -> ());
  Alcotest.(check bool) "still there" true (holds live "x[age -> 30]")

let unstratifiable_rule_rejected () =
  let live = attach "a[p ->> {b}]." in
  (try
     ignore
       (Live.assert_batch live
          "X[p ->> {Y}] <- Y[q ->> {X}] , not X[p ->> {Y}]."
         : Live.batch_stats);
     Alcotest.fail "unstratifiable rule accepted"
   with Live.Rejected _ -> ());
  check_equiv live;
  check_clean live

(* ------------------------------------------------------------------ *)
(* Regular paths and virtual objects: a regex body atom rests on the
   edges of a witness path, and a head path that finds its (virtual)
   object rests on the link it found. *)

let retract live text =
  ignore (Live.retract_batch live text : Live.batch_stats)

let expect live q b = Alcotest.(check bool) q b (holds live q)

let boss_chain = "a[boss -> b]. b[boss -> c].\n"

let regex_boss_plus () =
  let live = attach (boss_chain ^ "X[up ->> {Y}] <- X.boss+[Y].") in
  check_clean live;
  retract live "b[boss -> c].";
  expect live "a[up ->> {c}]" false;
  expect live "b[up ->> {c}]" false;
  expect live "a[up ->> {b}]" true;
  check_equiv live;
  check_clean live

(* two paths from a to c: retracting one witness edge must keep the pair
   through the other *)
let regex_alternation () =
  let live =
    attach
      (boss_chain
     ^ "a[mentor -> d]. d[mentor -> c].\n\
        X[up ->> {Y}] <- X.(boss|mentor)+[Y].")
  in
  check_clean live;
  retract live "b[boss -> c].";
  expect live "a[up ->> {c}]" true;
  expect live "b[up ->> {c}]" false;
  check_equiv live;
  check_clean live;
  retract live "d[mentor -> c].";
  expect live "a[up ->> {c}]" false;
  check_equiv live;
  check_clean live

let regex_class_filter () =
  let live =
    attach (boss_chain ^ "c : vip.\nX : underVip <- X.boss+ : vip.")
  in
  check_clean live;
  expect live "a : underVip" true;
  retract live "b[boss -> c].";
  expect live "a : underVip" false;
  expect live "b : underVip" false;
  check_equiv live;
  check_clean live

let regex_recursive_on_top () =
  let live =
    attach
      (boss_chain
     ^ "c[peer ->> {d}].\n\
        X[up ->> {Y}] <- X.boss+[Y].\n\
        X[up ->> {Y}] <- X[up ->> {Z}], Z[peer ->> {Y}].")
  in
  check_clean live;
  expect live "a[up ->> {d}]" true;
  retract live "b[boss -> c].";
  expect live "a[up ->> {c}]" false;
  expect live "a[up ->> {d}]" false;
  check_equiv live;
  check_clean live

let virtual_object_link () =
  let live =
    attach
      "e1 : emp. e1[city -> x].\n\
       X.address[city -> C] <- X : emp, X[city -> C]."
  in
  check_clean live;
  expect live "e1[address -> e1.address]" true;
  retract live "e1[city -> x].";
  expect live "e1[address -> e1.address]" false;
  check_equiv live;
  check_clean live

(* WHY a regex-derived fact shows the edges of a witness path *)
let regex_why_support () =
  let p = Program.of_string (boss_chain ^ "X[up ->> {Y}] <- X.boss+[Y].") in
  ignore (Program.run p);
  match Program.why_string p "a[up ->> {c}]" with
  | None -> Alcotest.fail "no proof"
  | Some proof ->
    let support =
      List.map
        (fun (sp : Pathlog.Provenance.proof) ->
          Format.asprintf "%a" (Pathlog.Fact.pp (Program.universe p)) sp.fact)
        proof.support
    in
    Alcotest.(check (list string))
      "witness edges" [ "a[boss -> b]"; "b[boss -> c]" ] support

(* Every shipped program: the provenance records are sound after attach,
   and retracting any one extensional fact gives the model a fresh
   program built from the live source has. *)
let corpus_files () =
  List.concat_map
    (fun dir ->
      match List.find_opt Sys.file_exists [ "../" ^ dir; dir ] with
      | None -> Alcotest.failf "corpus directory %s not found" dir
      | Some d ->
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".plg")
        |> List.sort compare
        |> List.map (Filename.concat d))
    [ "examples/programs"; "docs/snippets" ]

let corpus_sweep () =
  let files = corpus_files () in
  Alcotest.(check int) "corpus size" 10 (List.length files);
  List.iter
    (fun file ->
      let text = Test_programs.read_file file in
      let live = attach text in
      Alcotest.(check (list string))
        (file ^ ": support after attach") [] (Live.check_support live);
      let facts =
        String.split_on_char '\n' (Live.dump_source live)
        |> List.filter (fun l -> l <> "" && not (String.contains l '<'))
      in
      List.iter
        (fun fact ->
          let live = attach text in
          retract live fact;
          let reference = Program.of_string (Live.dump_source live) in
          ignore (Program.run reference);
          Alcotest.(check (pair (list string) (list string)))
            (Printf.sprintf "%s: retract %s = from-scratch run" file fact)
            ([], [])
            (Helpers.model_diff ~before:reference ~after:(Live.program live));
          Alcotest.(check (list string))
            (Printf.sprintf "%s: support after retract %s" file fact)
            [] (Live.check_support live))
        facts)
    files

(* ------------------------------------------------------------------ *)
(* The backward step: a candidate keeps a proof only if that proof is
   well-founded, never through a fact whose own proof is still in doubt *)

(* a and b reach each other; s1 and s2 each enter the cycle, so losing
   one entry leaves both reached through the other *)
let cycle_keeps_other_entry () =
  let live =
    attach
      {|
        s1 : start. s2 : start.
        s1[edge ->> {a}]. s2[edge ->> {b}]. a[edge ->> {b}]. b[edge ->> {a}].
        X : reached <- X : start.
        Y : reached <- X : reached, X[edge ->> {Y}].
      |}
  in
  let st = Live.retract_batch live "s1[edge ->> {a}]." in
  Alcotest.(check string) "strategy" "counting"
    (Live.strategy_name st.Live.strategy);
  expect live "a : reached" true;
  expect live "b : reached" true;
  check_equiv live;
  check_clean live;
  retract live "s2[edge ->> {b}].";
  expect live "a : reached" false;
  expect live "b : reached" false;
  check_equiv live;
  check_clean live

(* odd and even are defined by each other around the a-b cycle; s's edge
   is the only way in, so both die with it although each still has a
   derivation from the other *)
let mutual_recursion_dies () =
  let live =
    attach
      {|
        s : root. s[edge ->> {a}]. a[edge ->> {b}]. b[edge ->> {a}].
        Y : odd <- X : root, X[edge ->> {Y}].
        Y : odd <- X : even, X[edge ->> {Y}].
        Y : even <- X : odd, X[edge ->> {Y}].
      |}
  in
  expect live "a : odd" true;
  expect live "b : even" true;
  let st = Live.retract_batch live "s[edge ->> {a}]." in
  Alcotest.(check string) "strategy" "dred"
    (Live.strategy_name st.Live.strategy);
  List.iter
    (fun q -> expect live q false)
    [ "a : odd"; "b : even" ];
  check_equiv live;
  check_clean live

(* the class edge c1 :: c2 sits mid-chain; the memberships through it go,
   and with them what the recursive rule built on them *)
let isa_mid_chain () =
  let live =
    attach
      {|
        o : c0. c0 :: c1. c1 :: c2. c2 :: c3.
        c1[alias ->> {j}]. c3[alias ->> {k}].
        X[tag ->> {C}] <- X : C.
        X[tag ->> {D}] <- X[tag ->> {C}], C[alias ->> {D}].
      |}
  in
  expect live "o[tag ->> {k}]" true;
  retract live "c1 :: c2.";
  List.iter (fun q -> expect live q false)
    [ "o[tag ->> {c2}]"; "o[tag ->> {c3}]"; "o[tag ->> {k}]" ];
  List.iter (fun q -> expect live q true)
    [ "o[tag ->> {c0}]"; "o[tag ->> {c1}]"; "o[tag ->> {j}]" ];
  check_equiv live;
  check_clean live;
  ignore (Live.assert_batch live "c1 :: c2." : Live.batch_stats);
  expect live "o[tag ->> {k}]" true;
  check_equiv live;
  check_clean live

(* two rule bodies build the same virtual object e1.address; losing one
   keeps the object, its link and its fact through the other *)
let virtual_object_two_bodies () =
  let live =
    attach
      {|
        e1[city -> x]. e1[town -> x].
        X.address[place -> C] <- X[city -> C].
        X.address[place -> C] <- X[town -> C].
      |}
  in
  let st = Live.retract_batch live "e1[city -> x]." in
  Alcotest.(check string) "strategy" "counting"
    (Live.strategy_name st.Live.strategy);
  expect live "e1[address -> e1.address]" true;
  expect live "e1.address[place -> x]" true;
  check_equiv live;
  check_clean live;
  retract live "e1[town -> x].";
  expect live "e1[address -> e1.address]" false;
  check_equiv live;
  check_clean live

(* A head path that reaches another virtual object through a stated link:
   the candidate's receiver [e2.home] is no path of the head, so the other
   rule's proof must be found without reading the head path off it *)
let virtual_object_linked () =
  let live =
    attach
      {|
        e1[address -> e2.home]. e1[city -> x]. e1[town -> x].
        e3[city -> y]. e3[town -> y].
        X.address[place -> C] <- X[city -> C].
        X.address[place -> C] <- X[town -> C].
        X.address.self[seen -> C] <- X[city -> C].
        X.address.self[seen -> C] <- X[town -> C].
      |}
  in
  check_clean live;
  retract live "e1[city -> x]. e3[city -> y].";
  expect live "e2.home[place -> x]" true;
  expect live "e3.address[place -> y]" true;
  expect live "e3.address[seen -> y]" true;
  check_equiv live;
  check_clean live;
  retract live "e1[town -> x].";
  expect live "e2.home[place -> x]" false;
  check_equiv live;
  check_clean live

(* A rule reading [edge] both in its body and in its head set: an
   asserted edge must also re-run the firings whose head set grew, not
   only those seeded on the new edge. *)
let head_set_read_assert () =
  let live =
    attach
      {|
        n4[edge ->> {n4}].
        X[reach2 ->> Y..edge] <- X[edge ->> {Y}].
      |}
  in
  ignore (Live.assert_batch live "n4[edge ->> {n1}]." : Live.batch_stats);
  expect live "n4[reach2 ->> {n1}]" true;
  check_equiv live;
  check_clean live

(* The provenance audit catches each fault it exists for: a cycle of
   records, a record that no longer replays, a stated fact that is not
   live, and a live fact with no record. The faults are made behind
   Live's back. *)
let check_support_faults () =
  let live = attach (tc_text ^ "b[edge ->> {a}].") in
  check_clean live;
  let store = Live.store live in
  let prov = Program.provenance (Live.program live) in
  let o = Store.name store in
  let tc x y =
    Pathlog.Fact.F_set { meth = o "tc"; recv = o x; args = []; res = o y }
  in
  let step =
    List.find
      (fun (r : Pathlog.Rule.t) -> List.length r.body.atoms = 2)
      (Live.rules live)
  in
  let via x z y =
    let obj = function "X" -> o x | "Z" -> o z | _ -> o y in
    List.map (fun (n, slot) -> (slot, obj n)) step.body.named
    |> fun bindings ->
    Pathlog.Provenance.prove store step bindings ~accept:(fun _ _ -> true)
    |> Option.get |> fst
  in
  let set f d =
    Pathlog.Provenance.forget prov f;
    Pathlog.Provenance.record prov f d
  in
  let reports sub =
    List.exists (Helpers.contains ~sub) (Live.check_support live)
  in
  set (tc "a" "a") (Derived (via "a" "b" "a"));
  set (tc "b" "a") (Derived (via "b" "a" "a"));
  Alcotest.(check bool) "cycle of records" true (reports "form a cycle");
  ignore
    (Store.remove_set store ~meth:(o "edge") ~recv:(o "c") ~args:[] ~res:(o "d")
      : bool);
  Alcotest.(check bool) "stale record" true (reports "does not replay");
  Alcotest.(check bool) "dead statement" true (reports "is not live");
  Pathlog.Provenance.forget prov (tc "a" "b");
  Alcotest.(check bool) "missing record" true (reports "no provenance record")

(* ------------------------------------------------------------------ *)
(* Property: random assert/retract interleavings = from-scratch *)

(* [far] reaches over a regular path, so a retracted edge may leave the
   pair connected through another, which the backward step must find
   over [link] as over [edge]. [reach] is the same closure over [edge]
   by recursive rules, whose cycles must not prove themselves. [X.hub] is
   a virtual object every edge of a grp0 member derives, so its link has
   several proofs. *)
let base_program =
  {|
    X[reach ->> {Y}] <- X[edge ->> {Y}].
    X[reach ->> {Y}] <- X[edge ->> {Z}] , Z[reach ->> {Y}].
    X : connected <- X[reach ->> {Y}].
    X[deg -> one] <- X : connected.
    X[far ->> {Y}] <- X..edge+[Y].
    X[far ->> {Y}] <- X..link+[Y].
    X.hub[size -> big] <- X : grp0, X[edge ->> {Y}].
  |}

(* With [links], batches also state links to virtual objects
   ([n1[hub -> n2.hub]]), and two more rules each reach [X.hub] from
   another body: a head path then finds a virtual object that is not
   its own, and a candidate about it keeps a proof by the other rule.
   A stated link that conflicts with a derived one is refused. *)
let link_rules =
  {|
    X.hub[size -> big] <- X : grp1, X[link ->> {Y}].
    X.hub.self[seen ->> {Y}] <- X[edge ->> {Y}].
    X.hub.self[seen ->> {Y}] <- X[link ->> {Y}].
  |}

let interleaving_equals_scratch ?(links = false) ~jobs seed =
  let rng = Random.State.make [| seed |] in
  let live =
    attach ~jobs (if links then base_program ^ link_rules else base_program)
  in
  (* mirror of the extensional state, for picking valid retractions *)
  let mirror = ref [] in
  let obj i = Printf.sprintf "n%d" i in
  let random_fact () =
    if links && Random.State.int rng 6 = 0 then
      Printf.sprintf "%s[hub -> %s.hub]." (obj (Random.State.int rng 8))
        (obj (Random.State.int rng 8))
    else if Random.State.int rng 4 = 0 then
      Printf.sprintf "%s : grp%d." (obj (Random.State.int rng 8))
        (Random.State.int rng 3)
    else
      Printf.sprintf "%s[edge ->> {%s}]." (obj (Random.State.int rng 8))
        (obj (Random.State.int rng 8))
  in
  (* a -> b -> d and a -> c -> d over four distinct nodes: retracting one
     link leaves the far pair (a, d) joined by the other path *)
  let diamond () =
    let a = Random.State.int rng 8 in
    let b = (a + 1 + Random.State.int rng 7) mod 8 in
    let rec fresh used =
      let x = Random.State.int rng 8 in
      if List.mem x used then fresh used else x
    in
    let c = fresh [ a; b ] in
    let d = fresh [ a; b; c ] in
    List.map
      (fun (x, y) -> Printf.sprintf "%s[link ->> {%s}]." (obj x) (obj y))
      [ (a, b); (a, c); (b, d); (c, d) ]
  in
  (* a far pair the model already derives, stated as a fact as well: a
     retraction that kills its recorded derivation leaves it live by its
     statement, and its provenance must follow *)
  let stated_far () =
    let p = Live.program live in
    match (Program.query_string p "X[far ->> {Y}]").rows with
    | [] -> None
    | rows -> (
      match List.nth rows (Random.State.int rng (List.length rows)) with
      | [ x; y ] ->
        let name o = Program.row_to_string p [ o ] in
        Some (Printf.sprintf "%s[far ->> {%s}]." (name x) (name y))
      | _ -> None)
  in
  let steps = 8 in
  (* the provenance records are audited after every batch: a later
     re-derivation can re-record a fact and hide an earlier stale record *)
  let supported = ref true in
  for _ = 1 to steps do
    let retract = !mirror <> [] && Random.State.bool rng in
    let k = 1 + Random.State.int rng 3 in
    if retract then begin
      let batch = ref [] in
      for _ = 1 to k do
        match !mirror with
        | [] -> ()
        | l ->
          let i = Random.State.int rng (List.length l) in
          let f = List.nth l i in
          batch := f :: !batch;
          mirror := List.filteri (fun j _ -> j <> i) l
      done;
      if !batch <> [] then
        ignore
          (Live.retract_batch live (String.concat " " !batch)
            : Live.batch_stats)
    end
    else begin
      (* on top of the random facts, half the time: a stated far pair
         (else a diamond), or a diamond *)
      let extra =
        match Random.State.int rng 4 with
        | 0 | 1 -> []
        | 2 -> ( match stated_far () with Some f -> [ f ] | None -> diamond ())
        | _ -> diamond ()
      in
      let batch = List.init k (fun _ -> random_fact ()) @ extra in
      match Live.assert_batch live (String.concat " " batch) with
      | (_ : Live.batch_stats) -> mirror := batch @ !mirror
      | exception Live.Rejected _ when links -> ()
    end;
    supported := !supported && Live.check_support live = []
  done;
  (* final state: live model must equal a from-scratch fixpoint on the
     final extensional facts, and all invariants must hold *)
  let config = { Fixpoint.default_config with jobs } in
  let reference = Program.of_string ~config (Live.dump_source live) in
  ignore (Program.run reference);
  Helpers.model reference = Helpers.model (Live.program live)
  && Store.check_invariants (Live.store live) = []
  && !supported

let qcheck_interleaving ?(links = false) jobs =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "random assert/retract%s = from-scratch, jobs=%d"
         (if links then " with virtual-object links" else "")
         jobs)
    ~count:(if links then 200 else 40)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000))
    (interleaving_equals_scratch ~links ~jobs)

(* The server's demand-then-ASSERT path: demand queries leave magic
   tuples in the store, which no rule supports once the program is
   attached. Attach retires them; later writes and demand queries agree
   with full materialisation. *)
let attach_after_demand () =
  let text =
    {|
    a[kids ->> {b}]. b[kids ->> {c}]. d[kids ->> {e}].
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
    |}
  in
  List.iter
    (fun jobs ->
      let config = { Fixpoint.default_config with jobs } in
      let p = Program.of_string ~config text in
      List.iter
        (fun q -> ignore (Program.query_demand_string p q))
        [ "a[desc ->> {Y}]"; "d[desc ->> {Y}]" ];
      let live = Live.attach p in
      ignore (Live.assert_batch live "c[kids ->> {d}]." : Live.batch_stats);
      check_equiv ~jobs live;
      check_clean live;
      let full = Program.of_string ~config (Live.dump_source live) in
      ignore (Program.run full);
      let rows p (answer : Program.answer) =
        List.sort compare (List.map (Program.row_to_string p) answer.rows)
      in
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s = full (jobs %d)" q jobs)
            (rows full (Program.query_string full q))
            (rows p (fst (Program.query_demand_string p q))))
        [ "a[desc ->> {Y}]"; "b[desc ->> {Y}]"; "d[desc ->> {Y}]" ])
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* WHY under writes: a live fact's provenance names support it still has *)

(* WHY [q] is a proof over the live model: every node is live, a leaf
   shown as a fact is a fact statement of the live source, and a derived
   node whose rule reads stored facts shows the facts it rests on. *)
let check_why live q =
  let p = Live.program live in
  let u = Program.universe p in
  let source = String.split_on_char '\n' (Live.dump_source live) in
  let reads_facts (rule : Pathlog.Rule.t) =
    List.exists
      (function
        | Pathlog.Ir.A_isa _ | A_scalar _ | A_member _ | A_regex _ -> true
        | A_eq _ | A_subset _ | A_neg _ -> false)
      rule.body.atoms
  in
  let rec go (pr : Pathlog.Provenance.proof) =
    let fact = Format.asprintf "%a" (Pathlog.Fact.pp u) pr.fact in
    Alcotest.(check bool)
      ("WHY " ^ q ^ ": live " ^ fact)
      true (holds live fact);
    (match pr.source with
    | Extensional ->
      Alcotest.(check bool)
        ("WHY " ^ q ^ ": fact statement " ^ fact)
        true
        (List.mem (fact ^ ".") source)
    | Derived { rule; _ } ->
      if reads_facts rule then
        Alcotest.(check bool)
          ("WHY " ^ q ^ ": support of " ^ fact)
          true (pr.support <> []));
    List.iter go pr.support
  in
  (match Program.why_string p q with
  | None -> Alcotest.failf "WHY %s: not in the model" q
  | Some proof -> go proof);
  Alcotest.(check (list string)) "provenance records" [] (Live.check_support live)

(* the recorded rule loses its body fact; the other rule still holds *)
let why_other_rule () =
  let live =
    attach
      "o[a -> v1]. o[b -> v1].\n\
       X[p -> Y] <- X[a -> Y].\n\
       X[p -> Y] <- X[b -> Y]."
  in
  retract live "o[a -> v1].";
  check_why live "o[p -> v1]"

(* a stated and derived fact loses its statement *)
let why_statement_retracted () =
  let live = attach "o[p -> v1]. o[a -> v1].\nX[p -> Y] <- X[a -> Y]." in
  retract live "o[p -> v1].";
  check_why live "o[p -> v1]"

(* a derived fact later stated loses its derivation *)
let why_derivation_retracted () =
  let live = attach "o[a -> v1].\nX[p -> Y] <- X[a -> Y]." in
  ignore (Live.assert_batch live "o[p -> v1]." : Live.batch_stats);
  retract live "o[a -> v1].";
  check_why live "o[p -> v1]"

(* a refused batch rolls back a retraction it had already applied *)
let why_after_rollback () =
  let live = attach "o[a -> v1].\nX[p -> Y] <- X[a -> Y]." in
  (try
     retract live "o[a -> v1]. o[b -> v1].";
     Alcotest.fail "retraction of an absent fact accepted"
   with Live.Rejected _ -> ());
  check_why live "o[a -> v1]";
  check_why live "o[p -> v1]"

(* a fragment demand queries derived under magic rules is re-recorded
   under the program's own rules when Live attaches, also when a declined
   (negated) query has materialised the program in between *)
let why_after_demand queries () =
  let p =
    Program.of_string
      {|
      a[kids ->> {b}]. b[kids ->> {c}].
      X[desc ->> {Y}] <- X[kids ->> {Y}].
      X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
      |}
  in
  List.iter (fun q -> ignore (Program.query_demand_string p q)) queries;
  let magic () = Pathlog.Demand.magic_fact_total (Program.store p) in
  Alcotest.(check bool) "magic tuples before attach" true (magic () > 0);
  let live = Live.attach p in
  Alcotest.(check int) "magic tuples after attach" 0 (magic ());
  check_why live "a[desc ->> {c}]"

(* ------------------------------------------------------------------ *)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    case "counting: assert delta" counting_assert;
    case "counting: retract with multiple supports"
      counting_retract_multi_support;
    case "counting: re-validation over alternative isa chain"
      revalidation_alternative_chain;
    case "dred: retract support of recursive derivation" dred_retract_support;
    case "dred: cyclic support deleted" dred_cycle;
    case "negation gate falls back to recompute" negation_gate;
    case "rule assert and retract" rule_assert_and_retract;
    case "rejected batches are atomic" reject_atomic;
    case "unstratifiable rule rejected" unstratifiable_rule_rejected;
    case "attach after demand queries" attach_after_demand;
    case "regex: boss+ retract" regex_boss_plus;
    case "regex: alternation re-derives through another path" regex_alternation;
    case "regex: class filter" regex_class_filter;
    case "regex: recursive rule on top" regex_recursive_on_top;
    case "virtual object: link support" virtual_object_link;
    case "regex: why shows witness edges" regex_why_support;
    case "backward: cycle keeps its other entry" cycle_keeps_other_entry;
    case "backward: mutual recursion dies with its entry" mutual_recursion_dies;
    case "backward: mid-chain isa edge" isa_mid_chain;
    case "backward: two bodies reach one virtual object"
      virtual_object_two_bodies;
    case "backward: head path linked to another virtual object"
      virtual_object_linked;
    case "assert: head set reads the asserted relation" head_set_read_assert;
    case "check_support catches broken records" check_support_faults;
    case "corpus sweep: attach and retract each fact" corpus_sweep;
    case "why: other rule after retract" why_other_rule;
    case "why: statement retracted, still derived" why_statement_retracted;
    case "why: derivation retracted, still stated" why_derivation_retracted;
    case "why: attach after demand" (why_after_demand [ "a[desc ->> {Y}]" ]);
    case "why: attach after a declined demand query"
      (why_after_demand [ "a[desc ->> {Y}]"; "b[desc ->> {Y}], not Y : leaf" ]);
    case "why: refused retraction rolled back" why_after_rollback;
    QCheck_alcotest.to_alcotest (qcheck_interleaving 1);
    QCheck_alcotest.to_alcotest (qcheck_interleaving 4);
    QCheck_alcotest.to_alcotest (qcheck_interleaving ~links:true 1);
  ]
