module Ir = Semantics.Ir

type derivation = { rule : Rule.t; binding : Oodb.Obj_id.t array }

type source = Extensional | Derived of derivation

type proof = {
  fact : Fact.t;
  source : source;
  support : proof list;
}

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

type t = source Fact_tbl.t

let create () = Fact_tbl.create 256

let record t fact source =
  if not (Fact_tbl.mem t fact) then Fact_tbl.add t fact source

let lookup t fact = Fact_tbl.find_opt t fact

let forget t fact = Fact_tbl.remove t fact

let size t = Fact_tbl.length t

(* A chain of direct class edges from [o] up to [c]; the facts supporting a
   derived (transitive) membership. A membership with no such chain is a
   value object's built-in class ([1 : integer]), which rests on no
   stored fact. *)
let isa_support store o c =
  let direct_parents x =
    Oodb.Vec.fold
      (fun acc (e : Oodb.Store.ientry) ->
        if Oodb.Store.isa_live e && Oodb.Obj_id.equal e.i_sub x then
          e.i_cls :: acc
        else acc)
      []
      (Oodb.Store.isa_log store)
  in
  let rec search visited x =
    if Oodb.Obj_id.equal x c then Some []
    else if Oodb.Obj_id.Set.mem x visited then None
    else
      let visited = Oodb.Obj_id.Set.add x visited in
      let rec try_parents = function
        | [] -> None
        | p :: rest -> (
          match search visited p with
          | Some chain -> Some (Fact.F_isa (x, p) :: chain)
          | None -> try_parents rest)
      in
      try_parents (direct_parents x)
  in
  Option.value ~default:[] (search Oodb.Obj_id.Set.empty o)

(* The ground facts one solution of a rule body rests on. *)
let body_facts store (q : Ir.query) binding =
  let self_id = Oodb.Store.name store "self" in
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

let pp_proof u ppf proof =
  let rec go indent ppf p =
    Format.fprintf ppf "%s%a" indent (Fact.pp u) p.fact;
    (match p.source with
    | Extensional -> Format.fprintf ppf "   (fact)"
    | Derived { rule; _ } ->
      Format.fprintf ppf "   (by %a)" Syntax.Pretty.pp_rule rule.source);
    List.iter
      (fun child -> Format.fprintf ppf "@,%a" (go (indent ^ "  ")) child)
      p.support
  in
  Format.fprintf ppf "@[<v>%a@]" (go "") proof
