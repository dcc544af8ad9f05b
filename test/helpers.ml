(* Shared helpers and QCheck generators for the PathLog test suite. *)

let check = Alcotest.check
let string_list = Alcotest.(list string)
let sorted_rows rows = List.sort_uniq compare rows

(* Load a program, evaluate, return it. *)
let load = Pathlog.load

(* Answers to a query, each row joined with ", ", sorted + deduplicated. *)
let answers p q =
  sorted_rows (List.map (String.concat ", ") (Pathlog.answers p q))

let check_answers msg p q expected =
  check string_list msg (List.sort_uniq compare expected) (answers p q)

let check_holds msg p q = Alcotest.(check bool) msg true (Pathlog.holds p q)

let check_fails msg p q = Alcotest.(check bool) msg false (Pathlog.holds p q)

let qtest = QCheck_alcotest.to_alcotest

(* The model renderer's sorted fact statements. *)
let model p = Pathlog.Fact.model (Pathlog.Program.store p)

(* Model facts only in [after] and only in [before]. *)
let model_diff ~before ~after =
  let module S = Set.Make (String) in
  let b = S.of_list (model before) and a = S.of_list (model after) in
  (S.elements (S.diff a b), S.elements (S.diff b a))

(* Insert one ground fact statement straight into a program's store,
   recorded as extensional: the one writer outside [Live], for the
   demand-resume property, which grows the store between demand queries
   of one program. *)
let add_fact p text =
  match Pathlog.Parser.statement text with
  | Syntax.Ast.Rule ({ body = []; _ } as rule) ->
    let changes = ref 0 in
    let on_insert f =
      Pathlog.Provenance.record (Pathlog.Program.provenance p) f
        Pathlog.Provenance.Extensional
    in
    ignore
      (Engine.Head.execute ~on_insert (Pathlog.Program.store p)
         ~binding:[||] ~rule ~changes
         (Engine.Head.compile ~named:[] rule.head)
        : Pathlog.Obj_id.t)
  | Syntax.Ast.Rule _ | Syntax.Ast.Query _ -> invalid_arg "add_fact"

(* ------------------------------------------------------------------ *)
(* Hand-made join plans. Every permutation of a query's atoms is a sound
   plan; these exercise that claim. *)

let plan_of store perm =
  { Pathlog.Solve.plan_seed = -1; plan_perm = perm;
    plan_size = Pathlog.Store.size store }

(* The atoms as written: the source-order ablation. *)
let identity_plan store (q : Pathlog.Ir.query) =
  plan_of store (Array.init (List.length q.atoms) Fun.id)

(* A uniformly random permutation (Fisher-Yates). *)
let random_plan rand store (q : Pathlog.Ir.query) =
  let perm = Array.init (List.length q.atoms) Fun.id in
  for i = Array.length perm - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  plan_of store perm

(* Distinct named-variable rows of [q] under [plan], sorted — what
   [Solve.named_solutions] returns, in a canonical order. *)
let plan_rows ~plan store (q : Pathlog.Ir.query) =
  let rows = ref [] in
  Pathlog.Solve.iter ~plan store q ~f:(fun binding ->
      rows := List.map (fun (_, i) -> binding.(i)) q.named :: !rows);
  sorted_rows !rows

(* naive substring test, sufficient for assertions on printed output *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Random well-formed references.

   Generates names/vars/paths/filters/isa with scalar positions kept
   scalar, so every generated reference passes Definition 3. *)

let gen_name =
  QCheck.Gen.oneofl
    [ "a"; "b"; "c"; "kids"; "boss"; "color"; "age"; "city"; "emp"; "veh" ]

let gen_var = QCheck.Gen.oneofl [ "X"; "Y"; "Z"; "W" ]

let gen_reference ~allow_vars : Syntax.Ast.reference QCheck.Gen.t =
  let open QCheck.Gen in
  let base =
    if allow_vars then
      oneof
        [
          map (fun n -> Syntax.Ast.Name n) gen_name;
          map (fun v -> Syntax.Ast.Var v) gen_var;
          map (fun n -> Syntax.Ast.Int_lit n) (int_range 0 20);
        ]
    else
      oneof
        [
          map (fun n -> Syntax.Ast.Name n) gen_name;
          map (fun n -> Syntax.Ast.Int_lit n) (int_range 0 20);
        ]
  in
  (* scalar references only (set-valued ones are restricted by Definition 3;
     keeping everything scalar keeps generation simple and valid) *)
  let rec scalar n =
    if n <= 0 then base
    else
      frequency
        [
          (2, base);
          ( 2,
            map2
              (fun r m ->
                Syntax.Ast.Path
                  { p_recv = r; p_sep = Dot; p_meth = Name m; p_args = [] })
              (scalar (n - 1)) gen_name );
          ( 2,
            map3
              (fun r m rhs ->
                Syntax.Ast.Filter
                  {
                    f_recv = r;
                    f_meth = Name m;
                    f_args = [];
                    f_rhs = Rscalar rhs;
                  })
              (scalar (n - 1)) gen_name (scalar (n - 1)) );
          ( 1,
            map2
              (fun r c -> Syntax.Ast.Isa { recv = r; cls = Name c })
              (scalar (n - 1)) gen_name );
          ( 1,
            map2
              (fun r elems ->
                Syntax.Ast.Filter
                  {
                    f_recv = r;
                    f_meth = Name "kids";
                    f_args = [];
                    f_rhs = Rset_enum elems;
                  })
              (scalar (n - 1))
              (list_size (int_range 1 2) (scalar (n - 2))) );
          (1, map (fun r -> Syntax.Ast.Paren r) (scalar (n - 1)));
        ]
  in
  scalar 3

let arbitrary_reference ~allow_vars =
  QCheck.make
    ~print:(fun r -> Syntax.Pretty.reference_to_string r)
    (gen_reference ~allow_vars)

(* ------------------------------------------------------------------ *)
(* Random small fact bases over a fixed vocabulary, as program text. *)

let gen_fact_base : string QCheck.Gen.t =
  let open QCheck.Gen in
  let objs = [ "o1"; "o2"; "o3"; "o4"; "o5" ] in
  let classes = [ "ca"; "cb"; "cc" ] in
  let smeths = [ "boss"; "color"; "age" ] in
  let mmeths = [ "kids"; "friends" ] in
  let gen_stmt =
    frequency
      [
        ( 3,
          map3
            (fun m o r -> Printf.sprintf "%s[%s -> %s]." o m r)
            (oneofl smeths) (oneofl objs) (oneofl objs) );
        ( 3,
          map3
            (fun m o r -> Printf.sprintf "%s[%s ->> {%s}]." o m r)
            (oneofl mmeths) (oneofl objs) (oneofl objs) );
        ( 2,
          map2 (fun o c -> Printf.sprintf "%s : %s." o c) (oneofl objs)
            (oneofl classes) );
        ( 1,
          map2
            (fun c1 c2 -> Printf.sprintf "%s :: %s." c1 c2)
            (oneofl classes) (oneofl classes) );
      ]
  in
  map (String.concat "\n") (list_size (int_range 3 15) gen_stmt)

(* Scalar facts can conflict (same method, same receiver, two results) and
   class edges can form cycles; loading such a base raises. Generators
   filter those out by attempting the load. *)
let gen_loadable_base : Pathlog.program QCheck.Gen.t =
  let rec try_gen n st =
    let text = gen_fact_base st in
    match Pathlog.load text with
    | p -> p
    | exception _ -> if n <= 0 then Pathlog.load "" else try_gen (n - 1) st
  in
  fun st -> try_gen 10 st

let arbitrary_loadable_base =
  QCheck.make
    ~print:(fun p -> String.concat "\n" (model p))
    gen_loadable_base
