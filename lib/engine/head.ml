open Syntax.Ast
module Store = Oodb.Store
module Obj_id = Oodb.Obj_id

(* The store-write fault boundary. Injected failures are transient: the
   write path is idempotent (duplicate inserts are no-ops), so a bounded
   retry hides them the way a real storage layer would; only a pathological
   streak propagates, as {!Fault.Injected}. *)
let write_faults () =
  if Fault.enabled () then begin
    let rec attempt n =
      try Fault.hit Fault.Store_write
      with Fault.Injected _ when n < 100 -> attempt (n + 1)
    in
    attempt 0
  end

(* The head's AST with its leaves resolved: variables to the body's
   binding slots, constants to ids. A constant is interned the first time
   the head runs and cached: its id is allocated exactly when walking the
   AST would allocate it, so object numbering does not depend on
   compilation. *)
type node =
  | Const of { c_ref : reference; mutable c_id : Obj_id.t }
  | Slot of int
  | Unbound of string  (* a head variable the body does not bind *)
  | Link of { recv : node; meth : node; args : node list }
      (* a scalar path: its value, or a new virtual object *)
  | Isa of node * node
  | Filter of { recv : node; meth : node; args : node list; rhs : rhs }
  | Invalid of string  (* rejected by well-formedness; raises if run *)

and rhs =
  | Scalar of node
  | Enum of node list
  | Ref of reference * (string * int) list
      (* a [->>] set reference, evaluated by Valuation under the named
         slots *)
  | Bad_rhs of string

(* A head whose body names no variable (a fact statement, mostly) runs
   about once: it is compiled when it runs instead of kept compiled,
   which would cost each of a large program's statements a second copy
   of its head. *)
type t = Compiled of node | Ground of reference

let compile_node ~named head =
  let rec node (r : reference) =
    match r with
    | Name _ | Int_lit _ | Str_lit _ -> Const { c_ref = r; c_id = -1 }
    | Var x -> (
      match List.assoc_opt x named with Some i -> Slot i | None -> Unbound x)
    | Paren r -> node r
    | Path { p_recv; p_sep = Dot; p_meth; p_args } ->
      let recv = node p_recv in
      let meth = node p_meth in
      Link { recv; meth; args = List.map node p_args }
    | Path { p_sep = Dotdot; _ } ->
      (* a well-formed head is scalar, so set-valued paths cannot occur in
         located positions *)
      Invalid "Head.execute: set-valued path in a located position"
    | Regex _ ->
      (* rejected by Wellformed (PL019): a regular path denotes a set and
         cannot be asserted *)
      Invalid "Head.execute: regular path in a rule head"
    | Isa { recv; cls } ->
      let recv = node recv in
      Isa (recv, node cls)
    | Filter { f_recv; f_meth; f_args; f_rhs } ->
      let recv = node f_recv in
      let meth = node f_meth in
      let args = List.map node f_args in
      let rhs =
        match f_rhs with
        | Rscalar r -> Scalar (node r)
        | Rset_enum es -> Enum (List.map node es)
        | Rset_ref s -> Ref (s, named)
        | Rsig_scalar _ | Rsig_set _ ->
          Bad_rhs "Head.execute: signature declaration in a rule head"
      in
      Filter { recv; meth; args; rhs }
  in
  node head

let compile ~named head =
  match named with
  | [] -> Ground head
  | _ :: _ -> Compiled (compile_node ~named head)

let intern store (r : reference) =
  match r with
  | Name n -> Store.name store n
  | Int_lit n -> Store.int store n
  | Str_lit s -> Store.str store s
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> assert false

(* Raised in a read-only walk at a path to an object never created. *)
exception Never_created

(* What a read-only walk finds: the facts the head asserts and the links
   its paths find to objects other than their own virtual ones. *)
type found = { mutable heads : Fact.t list; mutable relied : Fact.t list }

(* One run of a compiled head: the walk's fixed arguments, allocated once
   per run rather than closed over by each step. *)
type run = {
  store : Store.t;
  binding : Obj_id.t array;
  found : found option;  (* [Some] for a read-only walk *)
  on_insert : Fact.t -> unit;
  changes : int ref;
  rule : rule;
  self_id : Obj_id.t;
}

let collect r f = Option.iter (fun d -> d.heads <- f :: d.heads) r.found

let inserted r f =
  incr r.changes;
  r.on_insert f

let add_scalar r ~meth ~recv ~args ~res =
  if Option.is_some r.found then
    collect r (Fact.F_scalar { meth; recv; args; res })
  else if Obj_id.equal meth r.self_id then (
    if not (Obj_id.equal recv res) then raise Err.Reserved_self)
  else
    match Store.add_scalar r.store ~meth ~recv ~args ~res with
    | Added -> inserted r (Fact.F_scalar { meth; recv; args; res })
    | Duplicate -> ()
    | Conflict existing ->
      raise
        (Err.Functional_conflict
           {
             c_meth = meth;
             c_recv = recv;
             c_args = args;
             existing;
             proposed = res;
             rule = Some r.rule;
           })

let add_set r ~meth ~recv ~args ~res =
  if Option.is_some r.found then
    collect r (Fact.F_set { meth; recv; args; res })
  else if Obj_id.equal meth r.self_id then raise Err.Reserved_self
  else
    match Store.add_set r.store ~meth ~recv ~args ~res with
    | SAdded -> inserted r (Fact.F_set { meth; recv; args; res })
    | SDuplicate -> ()

let add_isa r o c =
  if Option.is_some r.found then collect r (Fact.F_isa (o, c))
  else
    match Store.add_isa r.store o c with
    | IAdded -> inserted r (Fact.F_isa (o, c))
    | IDuplicate -> ()
    | ICycle -> raise (Err.Isa_cycle (o, c))

(* A path undefined so far denotes a new skolem object; read-only, the
   link to a path's own virtual object is asserted and a link to another
   object is relied on. *)
let link r ~meth ~recv ~args =
  let u = Store.universe r.store in
  let lookup = Store.scalar_lookup r.store ~meth ~recv ~args in
  match r.found with
  | None -> (
    match lookup with
    | Some res -> res
    | None ->
      let sk = Oodb.Universe.skolem u ~meth ~recv ~args in
      add_scalar r ~meth ~recv ~args ~res:sk;
      sk)
  | Some d -> (
    match (lookup, Oodb.Universe.find_skolem u ~meth ~recv ~args) with
    | (Some res, Some sk | None, Some (sk as res)) when Obj_id.equal res sk ->
      add_scalar r ~meth ~recv ~args ~res:sk;
      sk
    | Some res, _ ->
      d.relied <- Fact.F_scalar { meth; recv; args; res } :: d.relied;
      res
    | None, _ -> raise Never_created)

(* Without [found] the walk writes through the store; with it, it only
   reads the store and collects into it, and a fact about an object never
   created is skipped. Sub-objects are located left to right, as the AST
   walk did. *)
let rec locate r = function
  | Const c ->
    if c.c_id < 0 then c.c_id <- intern r.store c.c_ref;
    c.c_id
  | Slot i -> r.binding.(i)
  | Unbound x -> raise (Semantics.Valuation.Unbound_variable x)
  | Link { recv; meth; args } ->
    let recv = locate r recv in
    let meth = locate r meth in
    if Obj_id.equal meth r.self_id && args = [] then recv
    else link r ~meth ~recv ~args:(locate_all r args)
  | Isa (recv, cls) ->
    let o = locate r recv in
    (try add_isa r o (locate r cls) with Never_created -> ());
    o
  | Filter { recv; meth; args; rhs } ->
    let recv = locate r recv in
    let meth = locate r meth in
    let args = locate_all r args in
    (match rhs with
    | Scalar rhs -> (
      try add_scalar r ~meth ~recv ~args ~res:(locate r rhs)
      with Never_created -> ())
    | Enum elems -> add_members r ~meth ~recv ~args elems
    | Ref (s, named) ->
      let env =
        Semantics.Valuation.env_of_list
          (List.map (fun (x, i) -> (x, r.binding.(i))) named)
      in
      Obj_id.Set.iter
        (fun res -> add_set r ~meth ~recv ~args ~res)
        (Semantics.Valuation.eval r.store env s)
    | Bad_rhs msg -> invalid_arg msg);
    recv
  | Invalid msg -> invalid_arg msg

and locate_all r = function
  | [] -> []
  | n :: rest ->
    let o = locate r n in
    o :: locate_all r rest

and add_members r ~meth ~recv ~args = function
  | [] -> ()
  | e :: rest ->
    (try add_set r ~meth ~recv ~args ~res:(locate r e)
     with Never_created -> ());
    add_members r ~meth ~recv ~args rest

let walk ?found ?(on_insert = fun _ -> ()) store ~binding ~rule ~changes h =
  let r =
    {
      store;
      binding;
      found;
      on_insert;
      changes;
      rule;
      self_id = Store.self_id store;
    }
  in
  locate r
    (match h with
    | Compiled root -> root
    | Ground head -> compile_node ~named:[] head)

let execute ?on_insert store ~binding ~rule ~changes h =
  write_faults ();
  walk ?on_insert store ~binding ~rule ~changes h

(* read-only, nothing is inserted and no conflict is raised *)
let no_rule = fact (Name "_")

let asserts store ~binding h =
  let found = { heads = []; relied = [] } in
  (try
     ignore
       (walk ~found store ~binding ~rule:no_rule ~changes:(ref 0) h
         : Obj_id.t)
   with Never_created -> ());
  (found.heads, found.relied)
