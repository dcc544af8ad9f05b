module Ir = Semantics.Ir

type derivation = { rule : Rule.t; binding : Oodb.Obj_id.t array }

type source = Extensional | Derived of derivation

type proof = {
  fact : Fact.t;
  source : source;
  support : proof list;
}

module Store = Oodb.Store

(* A source as a store record holds it: [Stated] is one shared constant,
   and a firing builds one [By] for all the facts it inserts. *)
type why = Store.why

type Store.why += Stated | By of derivation

let stated = Stated
let derived d = By d
let why = function Extensional -> Stated | Derived d -> By d

type t = Store.t

let create store = store

(* Each tuple's live record, where its source is kept: found as the
   store's removals find it. *)
type entry = M of Store.mentry | I of Store.ientry

let entry st = function
  | Fact.F_isa (o, c) -> Option.map (fun e -> I e) (Store.isa_entry st o c)
  | Fact.F_scalar { meth; recv; args; res } -> (
    match Store.scalar_entry st ~meth ~recv ~args with
    | Some e when Oodb.Obj_id.equal e.res res -> Some (M e)
    | Some _ | None -> None)
  | Fact.F_set { meth; recv; args; res } ->
    Option.map (fun e -> M e) (Store.set_entry st ~meth ~recv ~args ~res)

let get = function M e -> e.why | I e -> e.i_why
let set r w = match r with M e -> e.why <- w | I e -> e.i_why <- w

let entry_source r =
  match get r with
  | Stated -> Some Extensional
  | By d -> Some (Derived d)
  | _ -> None

let set_source r source = set r (why source)

let record_why t fact w =
  match entry t fact with
  | Some r -> (match get r with Store.Unrecorded -> set r w | _ -> ())
  | None -> ()

let record t fact source = record_why t fact (why source)
let lookup t fact = Option.bind (entry t fact) entry_source

let repoint t fact source =
  Option.iter (fun r -> set_source r source) (entry t fact)

let size t =
  let recorded = function Stated | By _ -> true | _ -> false in
  let n = ref 0 in
  let count (e : Store.mentry) = if recorded e.why then incr n in
  Store.iter_live_scalar t (fun _ e -> count e);
  Store.iter_live_set t (fun _ e -> count e);
  Oodb.Vec.iter
    (fun (e : Store.ientry) ->
      if Store.isa_live e && recorded e.i_why then incr n)
    (Store.isa_log t);
  !n

(* A chain of direct class edges from [o] up to [c]; the facts supporting a
   derived (transitive) membership. A membership with no such chain is a
   value object's built-in class ([1 : integer]), which rests on no
   stored fact. *)
let isa_support store o c =
  let rec search visited x =
    if Oodb.Obj_id.equal x c then Some []
    else if Oodb.Obj_id.Set.mem x visited then None
    else
      let visited = Oodb.Obj_id.Set.add x visited in
      let rec try_parents = function
        | [] -> None
        | (e : Store.ientry) :: rest -> (
          match search visited e.i_cls with
          | Some chain -> Some (Fact.F_isa (x, e.i_cls) :: chain)
          | None -> try_parents rest)
      in
      try_parents (Store.isa_parents store x)
  in
  Option.value ~default:[] (search Oodb.Obj_id.Set.empty o)

(* The ground facts one solution of a rule body rests on. *)
let body_facts store (q : Ir.query) binding =
  let self_id = Oodb.Store.self_id store in
  let deref = function
    | Ir.Const o -> o
    | Ir.V i -> binding.(i)
  in
  let app ~set meth recv args res =
    let a = { Fact.meth; recv; args; res } in
    if set then Fact.F_set a else Fact.F_scalar a
  in
  let method_atom ~set meth recv args res =
    let meth = deref meth in
    if Oodb.Obj_id.equal meth self_id && args = [] then []
    else [ app ~set meth (deref recv) (List.map deref args) (deref res) ]
  in
  List.concat_map
    (fun (atom : Ir.atom) ->
      match atom with
      | A_isa (o, c) -> isa_support store (deref o) (deref c)
      | A_scalar { meth; recv; args; res } ->
        method_atom ~set:false meth recv args res
      | A_member { meth; recv; args; res } ->
        method_atom ~set:true meth recv args res
      (* a regex atom rests on the edges of one witness path *)
      | A_regex { x_auto; x_recv; x_res } ->
        let edge ((lbl : Ir.label), recv, res) =
          app ~set:lbl.lbl_set lbl.lbl_meth recv lbl.lbl_args res
        in
        Semantics.Solve.regex_witness store x_auto ~recv:(deref x_recv)
          ~res:(deref x_res)
        |> Option.fold ~none:[] ~some:(List.map edge)
      (* negation and inclusion rest on the absence or completeness of
         a set, not on individual ground facts *)
      | A_eq _ | A_subset _ | A_neg _ -> [])
    q.atoms

let named { rule; binding } =
  List.map (fun (_, slot) -> (slot, binding.(slot))) rule.body.named

let prove ?interrupt store (rule : Rule.t) bindings ~accept =
  let found = ref None in
  Semantics.Solve.iter ?interrupt ~bindings store rule.body ~f:(fun b ->
      let facts = body_facts store rule.body b in
      if accept b facts then begin
        found := Some ({ rule; binding = b }, facts);
        raise Semantics.Solve.Stopped
      end);
  !found

let replay ?interrupt store d =
  prove ?interrupt store d.rule (named d) ~accept:(fun _ _ -> true)
  |> Option.map snd

let rec explain ?(max_depth = 64) ?interrupt store t fact =
  match lookup t fact with
  | None -> None
  | Some Extensional -> Some { fact; source = Extensional; support = [] }
  | Some (Derived d as source) ->
    let support =
      if max_depth <= 0 then []
      else
        Option.value ~default:[] (replay ?interrupt store d)
        |> List.map (fun sub ->
               explain ~max_depth:(max_depth - 1) ?interrupt store t sub
               |> Option.value
                    ~default:{ fact = sub; source = Extensional; support = [] })
    in
    Some { fact; source; support }

(* One line per proof node, preorder, children indented two spaces: the
   fact, then "(fact)" or "(by <rule>)". *)
let proof_lines u proof =
  let b = Buffer.create 128 and lines = ref [] in
  let rec go indent p =
    Buffer.clear b;
    Buffer.add_string b indent;
    Fact.add u b p.fact;
    (match p.source with
    | Extensional -> Buffer.add_string b "   (fact)"
    | Derived { rule; _ } ->
      Buffer.add_string b "   (by ";
      Syntax.Pretty.add_rule b rule.source;
      Buffer.add_char b ')');
    lines := Buffer.contents b :: !lines;
    List.iter (go (indent ^ "  ")) p.support
  in
  go "" proof;
  List.rev !lines

let pp_proof u ppf proof =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (proof_lines u proof)
