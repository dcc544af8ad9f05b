module Ir = Semantics.Ir
module Store = Oodb.Store
module Set = Oodb.Obj_id.Set

type env = Oodb.Obj_id.t option array

let deref (env : env) = function
  | Ir.Const o -> Some o
  | Ir.V i -> env.(i)

(* Try to unify term [t] with [v]; return the updated environment (the
   array is copied on write — simple, allocation-heavy, naive on
   purpose). *)
let unify env t v =
  match t with
  | Ir.Const c -> if Oodb.Obj_id.equal c v then Some env else None
  | Ir.V i -> (
    match env.(i) with
    | Some x -> if Oodb.Obj_id.equal x v then Some env else None
    | None ->
      let env' = Array.copy env in
      env'.(i) <- Some v;
      Some env')

let unify_list env ts vs =
  let rec go env ts vs =
    match (ts, vs) with
    | [], [] -> Some env
    | t :: ts', v :: vs' -> (
      match unify env t v with Some env' -> go env' ts' vs' | None -> None)
    | [], _ :: _ | _ :: _, [] -> None
  in
  go env ts vs

let universe_objects store =
  List.init (Oodb.Universe.cardinality (Store.universe store)) Fun.id

(* All (method, entry) tuples of a relation kind, scanning every bucket when
   the method term is unbound. *)
let scan_tuples store which env meth =
  let buckets m =
    match which with
    | `Scalar -> Store.scalar_bucket store m
    | `Set -> Store.set_bucket store m
  in
  let meths =
    match deref env meth with
    | Some m -> [ m ]
    | None -> (
      match which with
      | `Scalar -> Store.scalar_meths store
      | `Set -> Store.set_meths store)
  in
  List.concat_map
    (fun m ->
      List.filter_map
        (fun e -> if Store.live e then Some (m, e) else None)
        (Oodb.Vec.to_list (buckets m)))
    meths

let isa_pairs store =
  let sources = ref Set.empty in
  Oodb.Vec.iter
    (fun (e : Store.ientry) ->
      if Store.isa_live e then sources := Set.add e.i_sub !sources)
    (Store.isa_log store);
  Set.fold
    (fun o acc ->
      Set.fold (fun c acc -> (o, c) :: acc) (Store.classes_of store o) acc)
    !sources []

(* Objects reachable from [r0] along some word of the automaton's
   language — a naive depth-first product walk, mirroring the
   automaton-product BFS in {!Semantics.Solve}. *)
let regex_reachable store (auto : Ir.automaton) r0 =
  let visited = Hashtbl.create 16 in
  let emitted = Hashtbl.create 16 in
  let out = ref [] in
  let rec go obj q =
    if not (Hashtbl.mem visited (obj, q)) then begin
      Hashtbl.add visited (obj, q) ();
      if auto.Ir.a_accept.(q) && not (Hashtbl.mem emitted obj) then begin
        Hashtbl.add emitted obj ();
        out := obj :: !out
      end;
      Array.iter
        (fun ((lbl : Ir.label), q') ->
          if lbl.Ir.lbl_set then
            Set.iter
              (fun v -> go v q')
              (Store.set_lookup store ~meth:lbl.Ir.lbl_meth ~recv:obj
                 ~args:lbl.Ir.lbl_args)
          else
            match
              Store.scalar_lookup store ~meth:lbl.Ir.lbl_meth ~recv:obj
                ~args:lbl.Ir.lbl_args
            with
            | Some v -> go v q'
            | None -> ())
        auto.Ir.a_trans.(q)
    end
  in
  go r0 auto.Ir.a_start;
  List.rev !out

let rec eval_atom store env (atom : Ir.atom) : env list =
  match atom with
  | A_eq (a, b) -> (
    match (deref env a, deref env b) with
    | Some x, Some y -> if Oodb.Obj_id.equal x y then [ env ] else []
    | Some x, None -> Option.to_list (unify env b x)
    | None, Some y -> Option.to_list (unify env a y)
    | None, None ->
      List.filter_map
        (fun o ->
          match unify env a o with
          | Some env' -> unify env' b o
          | None -> None)
        (universe_objects store))
  | A_isa (o, c) -> (
    match (deref env o, deref env c) with
    | Some uo, Some uc ->
      if Store.is_member store uo uc then [ env ] else []
    | _ ->
      List.filter_map
        (fun (uo, uc) ->
          match unify env o uo with
          | Some env' -> unify env' c uc
          | None -> None)
        (isa_pairs store))
  | A_scalar app -> eval_app store env `Scalar app
  | A_member app -> eval_app store env `Set app
  | A_subset s -> eval_subset store env s
  | A_neg n ->
    let envs = bind_all store env n.n_outer in
    List.filter (fun env' -> eval_atoms store env' n.n_atoms = []) envs
  | A_regex x ->
    let recvs =
      match deref env x.x_recv with
      | Some r -> [ r ]
      | None -> universe_objects store
    in
    List.concat_map
      (fun r ->
        match unify env x.x_recv r with
        | None -> []
        | Some env1 ->
          List.filter_map
            (fun v -> unify env1 x.x_res v)
            (regex_reachable store x.x_auto r))
      recvs


and eval_app store env which (app : Ir.app) : env list =
  let self = Store.self_id store in
  let self_envs =
    (* the built-in identity method applies to scalar application only *)
    if app.args <> [] || which = `Set then []
    else
      match deref env app.meth with
      | Some m when Oodb.Obj_id.equal m self -> (
        match (deref env app.recv, deref env app.res) with
        | Some r, _ -> (
          match unify env app.res r with Some e -> [ e ] | None -> [])
        | None, Some r -> (
          match unify env app.recv r with Some e -> [ e ] | None -> [])
        | None, None ->
          List.filter_map
            (fun o ->
              match unify env app.recv o with
              | Some env' -> unify env' app.res o
              | None -> None)
            (universe_objects store))
      | Some _ | None -> []
  in
  let tuple_envs =
    List.filter_map
      (fun (m, (e : Store.mentry)) ->
        match unify env app.meth m with
        | None -> None
        | Some env1 -> (
          match unify env1 app.recv e.recv with
          | None -> None
          | Some env2 -> (
            match unify_list env2 app.args e.args with
            | None -> None
            | Some env3 -> unify env3 app.res e.res)))
      (scan_tuples store which env app.meth)
  in
  self_envs @ tuple_envs

and eval_subset store env (s : Ir.subset) : env list =
  (* atom_vars covers the outer slots plus any variables in the method,
     receiver and argument positions *)
  let envs = bind_all store env (Ir.atom_vars (A_subset s)) in
  List.filter
    (fun env' ->
      let m = Option.get (deref env' s.s_meth) in
      let recv = Option.get (deref env' s.s_recv) in
      let args = List.map (fun a -> Option.get (deref env' a)) s.s_args in
      let have =
        if Oodb.Obj_id.equal m (Store.self_id store) && args = [] then
          Set.empty
        else Store.set_lookup store ~meth:m ~recv ~args
      in
      List.for_all
        (fun sub_env ->
          match deref sub_env s.member with
          | Some u -> Set.mem u have
          | None -> false)
        (eval_atoms store env' s.sub_atoms))
    envs

(* Bind the given slots (and any unbound terms they stand for) over the
   whole universe; needed when a negation or inclusion mentions variables
   constrained nowhere else. *)
and bind_all store env slots : env list =
  List.fold_left
    (fun envs slot ->
      List.concat_map
        (fun (env' : env) ->
          match env'.(slot) with
          | Some _ -> [ env' ]
          | None ->
            List.filter_map
              (fun o -> unify env' (Ir.V slot) o)
              (universe_objects store))
        envs)
    [ env ] slots

and eval_atoms store env atoms : env list =
  List.fold_left
    (fun envs atom ->
      List.concat_map (fun env' -> eval_atom store env' atom) envs)
    [ env ] atoms

let solutions store (q : Ir.query) =
  let start : env = Array.make q.nvars None in
  let finished = eval_atoms store start q.atoms in
  (* complete unconstrained slots over the universe *)
  let complete env =
    let rec go i (envs : env list) =
      if i >= q.nvars then envs
      else
        go (i + 1)
          (List.concat_map
             (fun (env' : env) ->
               match env'.(i) with
               | Some _ -> [ env' ]
               | None ->
                 List.filter_map
                   (fun o -> unify env' (Ir.V i) o)
                   (universe_objects store))
             envs)
    in
    go 0 [ env ]
  in
  List.concat_map complete finished
  |> List.map (fun (env : env) -> Array.map Option.get env)

let named_solutions store (q : Ir.query) =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun binding ->
      let row = List.map (fun (_, i) -> binding.(i)) q.named in
      if Hashtbl.mem seen row then None
      else begin
        Hashtbl.add seen row ();
        Some row
      end)
    (solutions store q)

let satisfiable store q = solutions store q <> []
