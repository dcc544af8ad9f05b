(* Compiled rule heads ([Engine.Head]) against the AST walker they
   replaced ([Head_oracle]).

   The engine runs a program with compiled heads while a second copy of
   the program, in its own store, re-runs every firing that inserted
   something through the oracle, in the same order. The two stores must
   end with byte-identical models and byte-identical provenance records.
   Read-only, [Head.asserts] must return what the oracle's [asserts]
   returns, on every recorded derivation and on crafted virtual-object
   links and never-created paths. *)

module Program = Pathlog.Program
module Store = Pathlog.Store
module Universe = Pathlog.Universe
module Fact = Pathlog.Fact
module Provenance = Pathlog.Provenance
module Fixpoint = Pathlog.Fixpoint
module Valuation = Pathlog.Valuation
module Rule = Engine.Rule
module Head = Engine.Head

let env_of (r : Rule.t) binding =
  Valuation.env_of_list
    (List.map (fun (x, i) -> (x, binding.(i))) r.body.named)

(* The object of store [a]'s universe [ua] with the same description in
   [ub]: the bindings of the engine's firings, carried to the oracle's
   store. *)
let rec translate ua ub id =
  match Universe.descriptor ua id with
  | Universe.Name s -> Universe.name ub s
  | Int n -> Universe.int ub n
  | Str s -> Universe.str ub s
  | Skolem { meth; recv; args; _ } ->
    let tr = translate ua ub in
    Universe.skolem ub ~meth:(tr meth) ~recv:(tr recv)
      ~args:(List.map tr args)

(* Every live fact with its provenance record, as sorted text: the fact,
   then the statement or the rule and the whole body binding. *)
let records store prov =
  let u = Store.universe store in
  let acc = ref [] in
  Fact.iter_live store (fun f ->
      let b = Buffer.create 64 in
      Fact.add u b f;
      (match Provenance.lookup prov f with
      | None -> Buffer.add_string b "  <- nothing"
      | Some Provenance.Extensional -> Buffer.add_string b "  <- statement"
      | Some (Derived d) ->
        Buffer.add_string b "  <- ";
        Pathlog.Pretty.add_rule b d.rule.source;
        Array.iter
          (fun o ->
            Buffer.add_char b ' ';
            Universe.add_obj u b o)
          d.binding);
      acc := Buffer.contents b :: !acc);
  List.sort compare !acc

type outcome =
  | Compared of {
      models : string list * string list;
      records : string list * string list;
      asserts_mismatch : string list;
    }
  | Engine_failed of string

(* Run [src] with compiled heads in one store and, in lockstep, through
   the oracle in another. *)
let lockstep ?config src =
  let pa = Program.of_string ?config src in
  let pb = Program.of_string ?config src in
  let sa = Program.store pa and sb = Program.store pb in
  let ua = Store.universe sa and ub = Store.universe sb in
  let prov_a = Program.provenance pa and prov_b = Provenance.create () in
  let pairs = List.combine (Program.rules pa) (Program.rules pb) in
  let fact_pairs = List.combine (Program.facts pa) (Program.facts pb) in
  let oracle_failure = ref None in
  let oracle_fire (rb : Rule.t) source ~env =
    if !oracle_failure = None then
      try
        ignore
          (Head_oracle.execute
             ~on_insert:(fun f -> Provenance.record prov_b f source)
             sb ~env ~rule:rb.source ~changes:(ref 0) rb.source.head
            : Pathlog.Obj_id.t)
      with e -> oracle_failure := Some (Printexc.to_string e)
  in
  match
    (* the facts first, in order, as [Program.run] loads them *)
    List.iter
      (fun ((fa : Rule.fact), (fb : Rule.fact)) ->
        ignore
          (Head.execute
             ~on_insert:(fun f ->
               Provenance.record prov_a f Provenance.Extensional)
             sa ~binding:[||] ~rule:fa.f_source ~changes:(ref 0)
             (Head.compile ~named:[] fa.f_source.head)
            : Pathlog.Obj_id.t);
        if !oracle_failure = None then
          try
            ignore
              (Head_oracle.execute
                 ~on_insert:(fun f ->
                   Provenance.record prov_b f Provenance.Extensional)
                 sb ~env:Valuation.Env.empty ~rule:fb.f_source
                 ~changes:(ref 0) fb.f_source.head
                : Pathlog.Obj_id.t)
          with e -> oracle_failure := Some (Printexc.to_string e))
      fact_pairs;
    let by_uid = Hashtbl.create 16 in
    List.iter
      (fun ((ra : Rule.t), rb) -> Hashtbl.replace by_uid ra.uid rb)
      pairs;
    let last = ref [||] in
    let on_insert f =
      match Provenance.lookup prov_a f with
      | Some (Derived d) when d.binding != !last ->
        last := d.binding;
        let rb = Hashtbl.find by_uid d.rule.uid in
        let binding = Array.map (translate ua ub) d.binding in
        oracle_fire rb
          (Provenance.Derived { rule = rb; binding })
          ~env:(env_of rb binding)
      | Some _ | None -> ()
    in
    Fixpoint.run ~config:(Program.config pa) ~provenance:prov_a ~on_insert sa
      (Fixpoint.prepare
         { Engine.Stratify.strata = Program.strata pa; rule_stratum = [] })
  with
  | exception e -> Engine_failed (Printexc.to_string e)
  | (_ : Fixpoint.stats) ->
    (match !oracle_failure with
    | Some msg ->
      Alcotest.failf "the oracle failed where the engine did not: %s" msg
    | None -> ());
    let asserts_mismatch = ref [] in
    Fact.iter_live sa (fun f ->
        match Provenance.lookup prov_a f with
        | Some (Derived { rule; binding }) ->
          let compiled = Head.asserts sa ~binding rule.head in
          let oracle =
            Head_oracle.asserts sa ~env:(env_of rule binding) rule.source.head
          in
          if compiled <> oracle then
            asserts_mismatch :=
              Pathlog.Pretty.rule_to_string rule.source :: !asserts_mismatch
        | Some Extensional | None -> ());
    Compared
      {
        models = (Fact.model sa, Fact.model sb);
        records = (records sa prov_a, records sb prov_b);
        asserts_mismatch = !asserts_mismatch;
      }

let check_lockstep ?config name src =
  match lockstep ?config src with
  | Engine_failed msg -> Error msg
  | Compared { models = ma, mb; records = ra, rb; asserts_mismatch } ->
    Alcotest.(check (list string)) (name ^ ": model") mb ma;
    Alcotest.(check (list string)) (name ^ ": provenance records") rb ra;
    Alcotest.(check (list string)) (name ^ ": asserts") [] asserts_mismatch;
    Ok (List.length ma)

let corpus () =
  List.concat_map
    (fun dir ->
      match
        List.find_opt Sys.file_exists [ "../" ^ dir; dir ]
      with
      | None -> Alcotest.failf "%s not found" dir
      | Some d ->
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".plg")
        |> List.sort compare
        |> List.map (fun f -> Filename.concat d f))
    [ "examples/programs"; "docs/snippets" ]

let test_corpus () =
  List.iter
    (fun path ->
      match check_lockstep path (Test_programs.read_file path) with
      | Ok n -> Alcotest.(check bool) (path ^ ": nonempty model") true (n > 0)
      | Error msg -> Alcotest.failf "%s: engine failed: %s" path msg)
    (corpus ())

(* Rules over Randprog's vocabulary whose heads build what Randprog's
   flat heads do not: virtual objects, nested molecules, class edges,
   enumerations, set references and the built-in [self]. *)
let head_shapes =
  [|
    "X.f[g ->> {Y}] <- X[r ->> {Y}].";
    "X.f.g : ca <- X : cb.";
    "X[s ->> {Y, o1}] <- X[r ->> {Y}].";
    "X[t ->> X..r] <- X : ca.";
    "X.g[u ->> {X.f}] <- X[s ->> {Y}].";
    "(X.self)[s ->> {Y}] <- Y[t ->> {X}].";
    "X[h -> Y] : cb <- X[g -> Y].";
    "Y.(X.f)[u ->> {\"s\"}] <- X[r ->> {Y}].";
  |]

let qcheck_randprog =
  QCheck.Test.make ~count:100 ~name:"compiled heads = AST walker, Randprog"
    QCheck.(
      triple (int_bound 100_000) (int_range 1 6) (small_list (int_bound 7)))
    (fun (seed, rules, shapes) ->
      let src =
        Pathlog.Randprog.generate { Pathlog.Randprog.seed; facts = 10; rules }
        ^ "\n"
        ^ String.concat "\n" (List.map (fun i -> head_shapes.(i)) shapes)
      in
      (* a program whose statements conflict, that does not load, or that
         keeps inventing objects is discarded *)
      let config =
        { Fixpoint.default_config with max_objects = 1_000; max_rounds = 20 }
      in
      match check_lockstep ~config (Printf.sprintf "seed %d" seed) src with
      | Ok _ -> true
      | Error _ | (exception Program.Invalid _) -> QCheck.assume_fail ())

(* Virtual-object links, links found to other objects, and paths to
   objects never created, read-only. *)
let test_asserts_crafted () =
  let p =
    Pathlog.load
      "p1 : person. p2 : person[boss -> m]. m : manager.\n\
       X.boss[pay -> 10] : staff <- X : person.\n\
       X.boss.boss[level -> 2] <- X : person."
  in
  let store = Program.store p in
  let u = Program.universe p in
  let obj = Universe.name u in
  let show (heads, relied) =
    let lines l = Fact.lines u (fun f -> List.iter f l) in
    (lines heads, lines relied)
  in
  List.iter
    (fun (r : Rule.t) ->
      if r.source.body <> [] then begin
        List.iter
          (fun x ->
            let binding = Array.make r.body.nvars x in
            let compiled = show (Head.asserts store ~binding r.head) in
            let oracle =
              show
                (Head_oracle.asserts store ~env:(env_of r binding)
                   r.source.head)
            in
            Alcotest.(check (pair (list string) (list string)))
              (Universe.to_string u x ^ ": "
              ^ Pathlog.Pretty.rule_to_string r.source)
              oracle compiled)
          [ obj "p1"; obj "p2"; obj "m"; obj "person" ]
      end)
    (Program.rules p);
  (* the cases themselves: p1's boss is virtual (asserted), p2's is m
     (relied on), person's was never created (nothing about it) *)
  let rule =
    List.find (fun (r : Rule.t) -> r.source.body <> []) (Program.rules p)
  in
  let asserts x =
    let binding = Array.make rule.body.nvars (obj x) in
    show (Head.asserts store ~binding rule.head)
  in
  Alcotest.(check (pair (list string) (list string)))
    "virtual link"
    ([ "p1.boss : staff"; "p1.boss[pay -> 10]"; "p1[boss -> p1.boss]" ], [])
    (asserts "p1");
  Alcotest.(check (pair (list string) (list string)))
    "relied link"
    ([ "m : staff"; "m[pay -> 10]" ], [ "p2[boss -> m]" ])
    (asserts "p2");
  Alcotest.(check (pair (list string) (list string)))
    "never created" ([], []) (asserts "person")

let suite =
  [
    Alcotest.test_case "compiled heads = AST walker, corpus" `Quick test_corpus;
    Helpers.qtest qcheck_randprog;
    Alcotest.test_case "asserts = AST walker, links and never-created paths"
      `Quick test_asserts_crafted;
  ]
