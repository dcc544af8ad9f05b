open Syntax.Ast
module Store = Oodb.Store

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

let execute ?(on_insert = fun _ -> ()) ?on_assert store ~env ~rule ~changes
    head =
  write_faults ();
  let traced = Option.is_some on_assert in
  let on_assert = Option.value on_assert ~default:ignore in
  let self_id = Store.name store "self" in
  let add_scalar ~meth ~recv ~args ~res =
    if Oodb.Obj_id.equal meth self_id then
      if Oodb.Obj_id.equal recv res then ()
      else raise Err.Reserved_self
    else
      match Store.add_scalar store ~meth ~recv ~args ~res with
      | Added ->
        incr changes;
        on_insert (Fact.F_scalar { meth; recv; args; res });
        on_assert (Fact.F_scalar { meth; recv; args; res })
      | Duplicate -> on_assert (Fact.F_scalar { meth; recv; args; res })
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
    if Oodb.Obj_id.equal meth self_id then raise Err.Reserved_self
    else
      match Store.add_set store ~meth ~recv ~args ~res with
      | SAdded ->
        incr changes;
        on_insert (Fact.F_set { meth; recv; args; res });
        on_assert (Fact.F_set { meth; recv; args; res })
      | SDuplicate -> on_assert (Fact.F_set { meth; recv; args; res })
  in
  let add_isa o c =
    match Store.add_isa store o c with
    | IAdded ->
      incr changes;
      on_insert (Fact.F_isa (o, c));
      on_assert (Fact.F_isa (o, c))
    | IDuplicate -> on_assert (Fact.F_isa (o, c))
    | ICycle -> raise (Err.Isa_cycle (o, c))
  in
  (* Locate the single object a scalar head sub-reference denotes, creating
     skolem objects for undefined scalar paths and asserting filters along
     the way. *)
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
      else begin
        let args = List.map locate p_args in
        match Store.scalar_lookup store ~meth ~recv ~args with
        | Some res ->
          (* the path's link is asserted here too: a derivation that
             reuses an existing (virtual) object still supports it *)
          if traced then on_assert (Fact.F_scalar { meth; recv; args; res });
          res
        | None ->
          let sk =
            Oodb.Universe.skolem (Store.universe store) ~meth ~recv ~args
          in
          add_scalar ~meth ~recv ~args ~res:sk;
          sk
      end
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
      let c = locate cls in
      add_isa o c;
      o
    | Filter { f_recv; f_meth; f_args; f_rhs } ->
      let recv = locate f_recv in
      let meth = locate f_meth in
      let args = List.map locate f_args in
      (match f_rhs with
      | Rscalar rhs ->
        let res = locate rhs in
        add_scalar ~meth ~recv ~args ~res
      | Rset_enum elems ->
        List.iter
          (fun e -> add_set ~meth ~recv ~args ~res:(locate e))
          elems
      | Rset_ref s ->
        let current = Semantics.Valuation.eval store env s in
        Oodb.Obj_id.Set.iter
          (fun res -> add_set ~meth ~recv ~args ~res)
          current
      | Rsig_scalar _ | Rsig_set _ ->
        invalid_arg "Head.execute: signature declaration in a rule head");
      recv
  in
  locate head
