(* The AST head walker: rule-head execution straight off the source
   reference under a name-keyed valuation, as the engine did before heads
   were compiled. [Engine.Head] runs compiled heads; this is its oracle
   (test_head_oracle.ml checks the two agree on every firing). *)

open Syntax.Ast
module Store = Pathlog.Store
module Fact = Engine.Fact
module Err = Engine.Err

let write_faults () =
  if Pathlog.Fault.enabled () then begin
    let rec attempt n =
      try Pathlog.Fault.hit Pathlog.Fault.Store_write
      with Pathlog.Fault.Injected _ when n < 100 -> attempt (n + 1)
    in
    attempt 0
  end

(* Raised in a read-only walk at a path to an object never created. *)
exception Never_created

(* What a read-only walk finds: the facts the head asserts and the links
   its paths find to objects other than their own virtual ones. *)
type found = { mutable heads : Fact.t list; mutable relied : Fact.t list }

(* One walk over a head under [env]. Without [found] it writes through
   the store; with it, it only reads the store and collects into it, and a
   fact about an object never created is skipped. *)
let walk ?found ?(on_insert = fun _ -> ()) store ~env ~rule ~changes head =
  let self_id = Store.self_id store in
  let collect f = Option.iter (fun d -> d.heads <- f :: d.heads) found in
  let inserted f =
    incr changes;
    on_insert f
  in
  let add_scalar ~meth ~recv ~args ~res =
    if Option.is_some found then
      collect (Fact.F_scalar { meth; recv; args; res })
    else if Oodb.Obj_id.equal meth self_id then (
      if not (Oodb.Obj_id.equal recv res) then raise Err.Reserved_self)
    else
      match Store.add_scalar store ~meth ~recv ~args ~res with
      | Added -> inserted (Fact.F_scalar { meth; recv; args; res })
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
               rule = Some rule;
             })
  in
  let add_set ~meth ~recv ~args ~res =
    if Option.is_some found then collect (Fact.F_set { meth; recv; args; res })
    else if Oodb.Obj_id.equal meth self_id then raise Err.Reserved_self
    else
      match Store.add_set store ~meth ~recv ~args ~res with
      | SAdded -> inserted (Fact.F_set { meth; recv; args; res })
      | SDuplicate -> ()
  in
  let add_isa o c =
    if Option.is_some found then collect (Fact.F_isa (o, c))
    else
      match Store.add_isa store o c with
      | IAdded -> inserted (Fact.F_isa (o, c))
      | IDuplicate -> ()
      | ICycle -> raise (Err.Isa_cycle (o, c))
  in
  (* a path undefined so far denotes a new skolem object; read-only, the
     link to a path's own virtual object is asserted and a link to
     another object is relied on *)
  let link ~meth ~recv ~args =
    let lookup = Store.scalar_lookup store ~meth ~recv ~args in
    match found with
    | None -> (
      match lookup with
      | Some res -> res
      | None ->
        let sk = Oodb.Universe.skolem (Store.universe store) ~meth ~recv ~args in
        add_scalar ~meth ~recv ~args ~res:sk;
        sk)
    | Some d -> (
      match
        (lookup, Oodb.Universe.find_skolem (Store.universe store) ~meth ~recv ~args)
      with
      | (Some res, Some sk | None, Some (sk as res)) when Oodb.Obj_id.equal res sk
        ->
        add_scalar ~meth ~recv ~args ~res:sk;
        sk
      | Some res, _ ->
        d.relied <- Fact.F_scalar { meth; recv; args; res } :: d.relied;
        res
      | None, _ -> raise Never_created)
  in
  let rec locate (t : reference) : Oodb.Obj_id.t =
    match t with
    | Name n -> Store.name store n
    | Int_lit n -> Store.int store n
    | Str_lit s -> Store.str store s
    | Var x -> (
      match Semantics.Valuation.Env.find_opt x env with
      | Some o -> o
      | None -> raise (Semantics.Valuation.Unbound_variable x))
    | Paren t' -> locate t'
    | Path { p_recv; p_sep = Dot; p_meth; p_args } ->
      let recv = locate p_recv in
      let meth = locate p_meth in
      if Oodb.Obj_id.equal meth self_id && p_args = [] then recv
      else link ~meth ~recv ~args:(List.map locate p_args)
    | Path { p_sep = Dotdot; _ } ->
      (* a well-formed head is scalar, so set-valued paths cannot occur in
         located positions *)
      invalid_arg "Head.execute: set-valued path in a located position"
    | Regex _ ->
      (* rejected by Wellformed (PL019): a regular path denotes a set and
         cannot be asserted *)
      invalid_arg "Head.execute: regular path in a rule head"
    | Isa { recv; cls } ->
      let o = locate recv in
      (try add_isa o (locate cls) with Never_created -> ());
      o
    | Filter { f_recv; f_meth; f_args; f_rhs } ->
      let recv = locate f_recv in
      let meth = locate f_meth in
      let args = List.map locate f_args in
      (match f_rhs with
      | Rscalar rhs -> (
        try add_scalar ~meth ~recv ~args ~res:(locate rhs)
        with Never_created -> ())
      | Rset_enum elems ->
        List.iter
          (fun e ->
            try add_set ~meth ~recv ~args ~res:(locate e)
            with Never_created -> ())
          elems
      | Rset_ref s ->
        Oodb.Obj_id.Set.iter
          (fun res -> add_set ~meth ~recv ~args ~res)
          (Semantics.Valuation.eval store env s)
      | Rsig_scalar _ | Rsig_set _ ->
        invalid_arg "Head.execute: signature declaration in a rule head");
      recv
  in
  locate head

let execute ?on_insert store ~env ~rule ~changes head =
  write_faults ();
  walk ?on_insert store ~env ~rule ~changes head

let asserts store ~env head =
  let found = { heads = []; relied = [] } in
  (try
     ignore
       (walk ~found store ~env ~rule:(fact head) ~changes:(ref 0) head
         : Oodb.Obj_id.t)
   with Never_created -> ());
  (found.heads, found.relied)
