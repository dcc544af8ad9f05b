module Store = Oodb.Store
module Tbl = Oodb.Obj_id.Tbl
module Set = Oodb.Obj_id.Set

type seed = { seed_atom : int; seed_from : int }

exception Stopped

type ctx = {
  store : Store.t;
  self_id : Oodb.Obj_id.t;
  binding : Oodb.Obj_id.t option array;
  hilog_virtual : bool;
      (* enumerate skolem objects for variable method positions; off by
         default because it makes programs like the generic tc of section 6
         have an infinite minimal model *)
  mutable steps : int;
  interrupt : unit -> unit;
      (* cooperative cancellation hook, polled every [poll_interval]
         unification steps; raises to abort the enumeration *)
}

(* Every solution costs at least one [bind], so an interrupt raised from
   the poll fires within [poll_interval] unifications — the bound the
   cancellation-latency property test relies on. A power of two keeps the
   poll a single [land]. *)
let poll_interval = 1024

let poll_mask = poll_interval - 1

(* STATS counters, process-wide: regex plan nodes compiled (bumped by
   {!Flatten.compile_regex}) and (object, state) product pairs expanded
   by the automaton join. *)
let regex_plans_total = Atomic.make 0

let product_states_expanded = Atomic.make 0

(* Expansion steps between binds (the automaton-product BFS) count
   against the same budget poll as unifications. *)
let tick ctx =
  let s = ctx.steps + 1 in
  ctx.steps <- s;
  if s land poll_mask = 0 then ctx.interrupt ()

let deref ctx = function
  | Ir.Const o -> Some o
  | Ir.V i -> ctx.binding.(i)

(* [bind ctx t v k] unifies term [t] with object [v], runs [k], undoes. *)
let bind ctx t v k =
  let s = ctx.steps + 1 in
  ctx.steps <- s;
  if s land poll_mask = 0 then ctx.interrupt ();
  match t with
  | Ir.Const c -> if Oodb.Obj_id.equal c v then k ()
  | Ir.V i -> (
    match ctx.binding.(i) with
    | Some x -> if Oodb.Obj_id.equal x v then k ()
    | None -> (
      ctx.binding.(i) <- Some v;
      (* undone on every exit, an exception's included *)
      match k () with
      | () -> ctx.binding.(i) <- None
      | exception e ->
        ctx.binding.(i) <- None;
        raise e))

let rec bind_list ctx ts vs k =
  match (ts, vs) with
  | [], [] -> k ()
  | t :: ts', v :: vs' -> bind ctx t v (fun () -> bind_list ctx ts' vs' k)
  | [], _ :: _ | _ :: _, [] -> ()

and bind_entry ctx (app : Ir.app) (e : Store.mentry) k =
  (* the single funnel for index-record access: tombstoned tuples are
     invisible to every enumeration *)
  if Store.live e && List.length app.args = List.length e.args then
    bind ctx app.recv e.recv (fun () ->
        bind_list ctx app.args e.args (fun () -> bind ctx app.res e.res k))

(* Enumerate the whole universe for term [t] (if unbound). *)
let enum_universe ctx t k =
  match deref ctx t with
  | Some _ -> k ()
  | None ->
    let card = Oodb.Universe.cardinality (Store.universe ctx.store) in
    for o = 0 to card - 1 do
      bind ctx t o k
    done

let rec force_bound ctx slots k =
  match slots with
  | [] -> k ()
  | s :: rest -> enum_universe ctx (Ir.V s) (fun () -> force_bound ctx rest k)

(* ------------------------------------------------------------------ *)
(* Compiled plans                                                      *)

type plan = {
  plan_seed : int;  (* atom executed first, from its delta; -1 = none *)
  plan_perm : int array;  (* the remaining atoms, in execution order *)
  plan_size : int;  (* Store.size when compiled, for staleness checks *)
}

(* Cost of an atom under {e simulated} boundness, from the store's current
   index statistics. This is the one cost model: it ranks compiled plans,
   [explain] and nested bodies. *)
let static_cost store ~self_id ~is_bound (a : Ir.atom) =
  let app_cost which (app : Ir.app) =
    let bucket_len m =
      match which with
      | `Scalar -> Oodb.Vec.length (Store.scalar_bucket store m)
      | `Set -> Oodb.Vec.length (Store.set_bucket store m)
    in
    (* average tuples per receiver: the expected receiver-index hit *)
    let per_recv m =
      let keys =
        match which with
        | `Scalar -> Store.scalar_recv_keys store m
        | `Set -> Store.set_recv_keys store m
      in
      bucket_len m / max 1 keys
    in
    (* average tuples per result: the expected inverse-index hit *)
    let per_res m =
      let keys =
        match which with
        | `Scalar -> Store.scalar_res_keys store m
        | `Set -> Store.set_res_keys store m
      in
      bucket_len m / max 1 keys
    in
    match app.meth with
    | Ir.V i when not (is_bound (Ir.V i)) -> 100_000
    | meth ->
      let m = match meth with Ir.Const m -> Some m | Ir.V _ -> None in
      let is_self =
        match meth with
        | Ir.Const c -> Oodb.Obj_id.equal c self_id && app.args = []
        | Ir.V _ -> false
      in
      if is_self then
        if is_bound app.recv || is_bound app.res then 1 else 100_000
      else if is_bound app.recv then
        if List.for_all is_bound app.args then
          match (which, m) with
          | `Scalar, _ -> 1
          | `Set, Some m -> 1 + per_recv m
          | `Set, None -> 4
        else (match m with Some m -> 1 + per_recv m | None -> 16)
      else if is_bound app.res then
        (match m with Some m -> 1 + per_res m | None -> 68)
      else 1 + (match m with Some m -> bucket_len m | None -> 1024)
  in
  match a with
  | Ir.A_eq (x, y) -> if is_bound x || is_bound y then 0 else 100_000
  | Ir.A_scalar app -> app_cost `Scalar app
  | Ir.A_member app -> app_cost `Set app
  | Ir.A_isa (o, c) -> (
    let log_len = Oodb.Vec.length (Store.isa_log store) in
    match (is_bound o, is_bound c) with
    | true, true -> 1
    | true, false -> 4
    | false, true -> 16 + (log_len / 8)
    | false, false -> 1024 + (log_len * 4))
  | Ir.A_subset s ->
    if List.for_all (fun v -> is_bound (Ir.V v)) s.s_outer then 64
    else 100_000
  | Ir.A_neg n ->
    if List.for_all (fun v -> is_bound (Ir.V v)) n.n_outer then 32
    else 100_000
  | Ir.A_regex x ->
    (* |states| · Σ label-relation cardinalities bounds the product BFS;
       a bound endpoint prunes it to the reachable slice *)
    let n = x.x_auto.Ir.a_nstates in
    let label_total =
      List.fold_left
        (fun acc rel ->
          acc
          +
          match rel with
          | Ir.R_scalar m -> Oodb.Vec.length (Store.scalar_bucket store m)
          | Ir.R_set m -> Oodb.Vec.length (Store.set_bucket store m)
          | Ir.R_isa | Ir.R_isa_c _ | Ir.R_any -> 0)
        0
        (Ir.automaton_rels x.x_auto)
    in
    if is_bound x.x_recv || is_bound x.x_res then 16 + (n * label_total / 8)
    else 1024 + (n * label_total)

(* The one scheduling rule: repeatedly take the cheapest atom not yet
   placed under the boundness reached so far, then mark its variables
   bound ([bound] is updated in place). Atom [skip] — a seed, or [-1] —
   is left out of the order. *)
let rank ?(skip = -1) store ~self_id ~bound atoms =
  let is_bound = function Ir.Const _ -> true | Ir.V i -> bound.(i) in
  let n = Array.length atoms in
  let used = Array.init n (Int.equal skip) in
  Array.init
    (if skip >= 0 then n - 1 else n)
    (fun _ ->
      let best = ref (-1) in
      let best_cost = ref max_int in
      for i = 0 to n - 1 do
        if not used.(i) then begin
          let c = static_cost store ~self_id ~is_bound atoms.(i) in
          if c < !best_cost then begin
            best_cost := c;
            best := i
          end
        end
      done;
      let i = !best in
      used.(i) <- true;
      List.iter (fun v -> bound.(v) <- true) (Ir.atom_vars atoms.(i));
      i)

(* Compile a join order once. Any permutation is sound — every atom
   executes correctly under any boundness (property-tested against the
   naive conjunctive evaluator) — so the plan can be cached and reused
   across rounds and bindings; only its quality decays as the store
   grows. *)
let compile_plan ?(bindings = []) ?seed_atom store (q : Ir.query) =
  let bound = Array.make (max q.nvars 1) false in
  List.iter (fun (slot, _) -> bound.(slot) <- true) bindings;
  let atoms = Array.of_list q.atoms in
  let plan_seed =
    match seed_atom with
    | Some i when i >= 0 && i < Array.length atoms ->
      List.iter (fun v -> bound.(v) <- true) (Ir.atom_vars atoms.(i));
      i
    | Some i -> invalid_arg (Printf.sprintf "Solve.compile_plan: seed %d" i)
    | None -> -1
  in
  let plan_perm =
    rank ~skip:plan_seed store
      ~self_id:(Store.self_id store)
      ~bound atoms
  in
  { plan_seed; plan_perm; plan_size = Store.size store }

(* A plan compiled against a much smaller store may rank accesses badly;
   re-plan once the store has roughly doubled. *)
let plan_stale store plan = Store.size store > 16 + (2 * plan.plan_size)

(* ------------------------------------------------------------------ *)
(* Atom execution                                                      *)

(* [app]'s arguments are all bound *)
let rec all_bound ctx = function
  | [] -> true
  | Ir.Const _ :: rest -> all_bound ctx rest
  | Ir.V i :: rest -> ctx.binding.(i) <> None && all_bound ctx rest

let rec bound_args ctx = function
  | [] -> []
  | Ir.Const o :: rest -> o :: bound_args ctx rest
  | Ir.V i :: rest -> Option.get ctx.binding.(i) :: bound_args ctx rest

let app_lookup ctx which (app : Ir.app) m recv args k =
  match which with
  | `Scalar -> (
    match Store.scalar_lookup ctx.store ~meth:m ~recv ~args with
    | Some res -> bind ctx app.res res k
    | None -> ())
  | `Set -> (
    let members = Store.set_lookup ctx.store ~meth:m ~recv ~args in
    match deref ctx app.res with
    | Some res ->
      (* a membership probe, not a scan: magic guards hang every demand
         set off one receiver, so this set can be large *)
      if Set.mem res members then bind ctx app.res res k
    | None -> Set.iter (fun res -> bind ctx app.res res k) members)

let app_with_method ctx which (app : Ir.app) m k =
  if Oodb.Obj_id.equal m ctx.self_id && app.args = [] then begin
    (* built-in identity for method application; no set-valued
       extension (see DESIGN.md) *)
    match which with
    | `Set -> ()
    | `Scalar -> (
      match (deref ctx app.recv, deref ctx app.res) with
      | Some r, _ -> bind ctx app.res r k
      | None, Some r -> bind ctx app.recv r k
      | None, None ->
        enum_universe ctx app.recv (fun () ->
            match deref ctx app.recv with
            | Some r -> bind ctx app.res r k
            | None -> assert false))
  end
  else
    match deref ctx app.recv with
    | Some recv when all_bound ctx app.args ->
      app_lookup ctx which app m recv (bound_args ctx app.args) k
    | Some recv ->
      (* bound receiver, open arguments: the receiver-keyed secondary
         index holds exactly this receiver's tuples — when the result is
         bound too, take whichever of the two indexes is smaller *)
      let ridx =
        match which with
        | `Scalar -> Store.scalar_recv_index ctx.store ~meth:m ~recv
        | `Set -> Store.set_recv_index ctx.store ~meth:m ~recv
      in
      let v =
        match deref ctx app.res with
        | Some res ->
          let inv =
            match which with
            | `Scalar -> Store.scalar_inverse ctx.store ~meth:m ~res
            | `Set -> Store.set_inverse ctx.store ~meth:m ~res
          in
          if Oodb.Vec.length inv < Oodb.Vec.length ridx then inv else ridx
        | None -> ridx
      in
      Oodb.Vec.iter (fun e -> bind_entry ctx app e k) v
    | None -> (
      let v =
        match deref ctx app.res with
        | Some res -> (
          match which with
          | `Scalar -> Store.scalar_inverse ctx.store ~meth:m ~res
          | `Set -> Store.set_inverse ctx.store ~meth:m ~res)
        | None -> (
          match which with
          | `Scalar -> Store.scalar_bucket ctx.store m
          | `Set -> Store.set_bucket ctx.store m)
      in
      Oodb.Vec.iter (fun e -> bind_entry ctx app e k) v)

let exec_app ctx which (app : Ir.app) k =
  match app.meth with
  | Ir.Const m -> app_with_method ctx which app m k
  | Ir.V i -> (
    match ctx.binding.(i) with
    | Some m -> app_with_method ctx which app m k
    | None ->
      let meths =
        match which with
        | `Scalar -> Store.scalar_meths ctx.store
        | `Set -> Store.set_meths ctx.store
      in
      let u = Store.universe ctx.store in
      List.iter
        (fun m ->
          if ctx.hilog_virtual || not (Oodb.Universe.is_skolem u m) then
            bind ctx app.meth m (fun () -> app_with_method ctx which app m k))
        meths)

(* The built-in value-class memberships ([1 : integer], ["a" : string])
   hold for tests but have no hierarchy edges, so [Store.classes_of]
   alone under-enumerates: a join order that generates the class variable
   from an isa atom would silently miss solutions another order finds via
   the bound test — enumeration must agree with {!Store.is_member} for
   the solver's answers to be independent of the plan (the parallel
   fixpoint's Jacobi schedule relies on that). The ancestor set of a
   value object is still finite: its explicit ancestors plus its value
   class (when interned). Class extensions stay non-enumerable the other
   way round (members of [integer] are infinite in spirit). *)
let ancestors_of ctx uo =
  let explicit = Store.classes_of ctx.store uo in
  let u = Store.universe ctx.store in
  let builtin =
    match Oodb.Universe.descriptor u uo with
    | Oodb.Universe.Int _ -> Oodb.Universe.find_name u "integer"
    | Oodb.Universe.Str _ -> Oodb.Universe.find_name u "string"
    | Oodb.Universe.Name _ | Oodb.Universe.Skolem _ -> None
  in
  match builtin with
  | Some c -> Set.add c explicit
  | None -> explicit

let exec_isa ctx o c k =
  match (deref ctx o, deref ctx c) with
  | Some uo, Some uc -> if Store.is_member ctx.store uo uc then k ()
  | Some uo, None ->
    Set.iter (fun uc -> bind ctx c uc k) (ancestors_of ctx uo)
  | None, Some uc ->
    Set.iter (fun uo -> bind ctx o uo k) (Store.members ctx.store uc)
  | None, None ->
    (* every object with at least one ancestor, paired with each ancestor;
       value objects count via their built-in class *)
    let sources = ref Set.empty in
    Oodb.Vec.iter
      (fun (e : Store.ientry) ->
        if Store.isa_live e then sources := Set.add e.i_sub !sources)
      (Store.isa_log ctx.store);
    let u = Store.universe ctx.store in
    (match
       (Oodb.Universe.find_name u "integer", Oodb.Universe.find_name u "string")
     with
    | None, None -> ()
    | _ ->
      Oodb.Universe.iter u (fun uo d ->
          match d with
          | Oodb.Universe.Int _ | Oodb.Universe.Str _ ->
            sources := Set.add uo !sources
          | Oodb.Universe.Name _ | Oodb.Universe.Skolem _ -> ()));
    Set.iter
      (fun uo ->
        bind ctx o uo (fun () ->
            Set.iter (fun uc -> bind ctx c uc k) (ancestors_of ctx uo)))
      !sources

let exec_eq ctx a b k =
  match (deref ctx a, deref ctx b) with
  | Some x, Some y -> if Oodb.Obj_id.equal x y then k ()
  | Some x, None -> bind ctx b x k
  | None, Some y -> bind ctx a y k
  | None, None ->
    enum_universe ctx a (fun () ->
        match deref ctx a with
        | Some x -> bind ctx b x k
        | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Automaton-product join: BFS over (object, state) pairs. The direction
   follows the bound endpoint — forward from a bound receiver along
   [a_trans], backward from a bound result along [a_rtrans] and the
   inverse indexes; with neither bound the receiver ranges over the
   universe. Each popped pair costs one budget-poll tick and one
   [product_states_expanded]. *)

let regex_step store (lbl : Ir.label) obj f =
  if lbl.Ir.lbl_set then
    Set.iter f
      (Store.set_lookup store ~meth:lbl.Ir.lbl_meth ~recv:obj
         ~args:lbl.Ir.lbl_args)
  else
    match
      Store.scalar_lookup store ~meth:lbl.Ir.lbl_meth ~recv:obj
        ~args:lbl.Ir.lbl_args
    with
    | Some v -> f v
    | None -> ()

let regex_rstep ctx (lbl : Ir.label) obj f =
  let inv =
    if lbl.Ir.lbl_set then
      Store.set_inverse ctx.store ~meth:lbl.Ir.lbl_meth ~res:obj
    else Store.scalar_inverse ctx.store ~meth:lbl.Ir.lbl_meth ~res:obj
  in
  Oodb.Vec.iter
    (fun (e : Store.mentry) ->
      if Store.live e && e.args = lbl.Ir.lbl_args then f e.recv)
    inv

(* [emit] runs the solution continuation, so arbitrary nested enumeration
   (and interrupt exceptions) fire while the queue still holds unexpanded
   pairs — queue and visited set are per-call, which keeps that safe.
   Objects are deduplicated on emission: a pair may be reached through
   many accepting states but each endpoint object is one solution. *)
let regex_bfs ctx ~init ~next ~emits emit =
  let visited = Tbl.create 64 in
  let emitted = Tbl.create 16 in
  let queue = Queue.create () in
  let push obj q =
    let key = Store.pack obj q in
    if not (Tbl.mem visited key) then begin
      Tbl.add visited key ();
      Queue.add (obj, q) queue
    end
  in
  List.iter (fun (obj, q) -> push obj q) init;
  while not (Queue.is_empty queue) do
    let obj, q = Queue.pop queue in
    Atomic.incr product_states_expanded;
    tick ctx;
    if emits q && not (Tbl.mem emitted obj) then begin
      Tbl.add emitted obj ();
      emit obj
    end;
    next obj q push
  done

let regex_forward ctx (auto : Ir.automaton) r0 emit =
  regex_bfs ctx
    ~init:[ (r0, auto.Ir.a_start) ]
    ~next:(fun obj q push ->
      Array.iter
        (fun (lbl, q') -> regex_step ctx.store lbl obj (fun v -> push v q'))
        auto.Ir.a_trans.(q))
    ~emits:(fun q -> auto.Ir.a_accept.(q))
    emit

(* Backward: a pair (obj, q) means "obj steps to the bound result along a
   word taking q to an accepting state"; seeded with the result at every
   accepting state (the empty word), answers pop at the start state. *)
let regex_backward ctx (auto : Ir.automaton) res emit =
  let init = ref [] in
  Array.iteri
    (fun q acc -> if acc then init := (res, q) :: !init)
    auto.Ir.a_accept;
  regex_bfs ctx ~init:!init
    ~next:(fun obj q push ->
      Array.iter
        (fun (lbl, q0) -> regex_rstep ctx lbl obj (fun v -> push v q0))
        auto.Ir.a_rtrans.(q))
    ~emits:(fun q -> q = auto.Ir.a_start)
    emit

(* One witness of a reachable pair: a forward BFS over the same product,
   keeping a parent link per pair, stops at the first accepting pair on
   [res] and walks the links back. The edges of that shortest path are
   what the pair rests on. *)
let regex_witness store (auto : Ir.automaton) ~recv ~res =
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit pair link =
    if not (Hashtbl.mem parent pair) then begin
      Hashtbl.add parent pair link;
      Queue.add pair queue
    end
  in
  let rec path acc pair =
    match Hashtbl.find parent pair with
    | None -> acc
    | Some (prev, lbl) -> path ((lbl, fst prev, fst pair) :: acc) prev
  in
  visit (recv, auto.Ir.a_start) None;
  let rec search () =
    match Queue.take_opt queue with
    | None -> None
    | Some ((obj, q) as pair) ->
      if auto.Ir.a_accept.(q) && Oodb.Obj_id.equal obj res then
        Some (path [] pair)
      else begin
        Array.iter
          (fun (lbl, q') ->
            regex_step store lbl obj (fun v ->
                visit (v, q') (Some (pair, lbl))))
          auto.Ir.a_trans.(q);
        search ()
      end
  in
  search ()

let exec_regex ctx (x : Ir.regex_app) k =
  let auto = x.x_auto in
  match deref ctx x.x_recv with
  | Some r0 -> regex_forward ctx auto r0 (fun v -> bind ctx x.x_res v k)
  | None -> (
    match deref ctx x.x_res with
    | Some res ->
      regex_backward ctx auto res (fun v -> bind ctx x.x_recv v k)
    | None ->
      enum_universe ctx x.x_recv (fun () ->
          match deref ctx x.x_recv with
          | Some r0 ->
            regex_forward ctx auto r0 (fun v -> bind ctx x.x_res v k)
          | None -> assert false))

let rec run_perm ctx atoms perm k =
  let rec go i =
    if i >= Array.length perm then k ()
    else exec_atom ctx atoms.(perm.(i)) (fun () -> go (i + 1))
  in
  go 0

(* Nested enumeration of a sub-query's atoms against the shared binding
   array; used for A_subset members and A_neg. The body is ranked on
   entry under the boundness it actually sees — under a fixed outer plan
   that is the outer adornment, the same on every entry. *)
and solve_atoms ctx atoms k =
  let atoms = Array.of_list atoms in
  let bound = Array.map Option.is_some ctx.binding in
  run_perm ctx atoms (rank ctx.store ~self_id:ctx.self_id ~bound atoms) k

and exec_atom ctx atom k =
  match atom with
  | Ir.A_eq (a, b) -> exec_eq ctx a b k
  | Ir.A_isa (o, c) -> exec_isa ctx o c k
  | Ir.A_scalar app -> exec_app ctx `Scalar app k
  | Ir.A_member app -> exec_app ctx `Set app k
  | Ir.A_subset s -> exec_subset ctx s k
  | Ir.A_neg n -> exec_neg ctx n k
  | Ir.A_regex x -> exec_regex ctx x k

and exec_subset ctx s k =
  force_bound ctx s.s_outer (fun () ->
      enum_universe ctx s.s_meth (fun () ->
          enum_universe ctx s.s_recv (fun () ->
              let rec bind_args = function
                | [] -> check ()
                | a :: rest -> enum_universe ctx a (fun () -> bind_args rest)
              and check () =
                let m = Option.get (deref ctx s.s_meth) in
                let recv = Option.get (deref ctx s.s_recv) in
                let args =
                  List.map (fun a -> Option.get (deref ctx a)) s.s_args
                in
                let have =
                  if Oodb.Obj_id.equal m ctx.self_id && args = [] then
                    Set.empty
                  else Store.set_lookup ctx.store ~meth:m ~recv ~args
                in
                (* every member of the included set must be in [have] *)
                let ok = ref true in
                (try
                   solve_atoms ctx s.sub_atoms (fun () ->
                       match deref ctx s.member with
                       | Some u ->
                         if not (Set.mem u have) then begin
                           ok := false;
                           raise Stopped
                         end
                       | None ->
                         (* member unconstrained: included set is the whole
                            universe; only an equal [have] would do *)
                         ok := false;
                         raise Stopped)
                 with Stopped -> ());
                if !ok then k ()
              in
              bind_args s.s_args)))

and exec_neg ctx n k =
  force_bound ctx n.n_outer (fun () ->
      let found = ref false in
      (try
         solve_atoms ctx n.n_atoms (fun () ->
             found := true;
             raise Stopped)
       with Stopped -> ());
      if not !found then k ())

(* ------------------------------------------------------------------ *)
(* Seeded (delta) execution                                            *)

let exec_seeded ctx atom from k =
  match atom with
  | Ir.A_scalar app -> (
    match deref ctx app.meth with
    | Some m ->
      Oodb.Vec.iter_from
        (fun e -> bind_entry ctx app e k)
        (Store.scalar_bucket ctx.store m)
        from
    | None -> exec_atom ctx atom k)
  | Ir.A_member app -> (
    match deref ctx app.meth with
    | Some m ->
      Oodb.Vec.iter_from
        (fun e -> bind_entry ctx app e k)
        (Store.set_bucket ctx.store m)
        from
    | None -> exec_atom ctx atom k)
  | Ir.A_isa (o, c) ->
    (* each new direct edge (src, dst) contributes the derived pairs
       (x, y) with x <= src and dst <= y *)
    Oodb.Vec.iter_from
      (fun (e : Store.ientry) ->
        if Store.isa_live e then begin
          let src = e.i_sub and dst = e.i_cls in
          let xs = Set.add src (Store.members ctx.store src) in
          let ys = Set.add dst (Store.classes_of ctx.store dst) in
          Set.iter
            (fun x ->
              bind ctx o x (fun () -> Set.iter (fun y -> bind ctx c y k) ys))
            xs
        end)
      (Store.isa_log ctx.store)
      from
  (* a regex atom has no single delta relation: when any label relation
     grows, [Rule.seedable] keeps the atom out of the seed set and the
     whole rule re-evaluates, so a plain [exec_atom] here is sound *)
  | Ir.A_eq _ | Ir.A_subset _ | Ir.A_neg _ | Ir.A_regex _ ->
    exec_atom ctx atom k

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let no_interrupt () = ()

let make_ctx ~hilog_virtual ~interrupt store (q : Ir.query) =
  {
    store;
    self_id = Store.self_id store;
    binding = Array.make q.nvars None;
    hilog_virtual;
    steps = 0;
    interrupt;
  }

(* Does [p] schedule every atom of an [n]-atom query exactly once, with
   [seed_idx] (or none, at [-1]) first? An atom left out would silently
   drop its constraint. *)
let plan_covers p ~seed_idx n =
  let seen = Array.make n false in
  let visit i =
    if i < 0 || i >= n || seen.(i) then false
    else begin
      seen.(i) <- true;
      true
    end
  in
  p.plan_seed = seed_idx
  && Array.length p.plan_perm + (if seed_idx >= 0 then 1 else 0) = n
  && (seed_idx < 0 || visit seed_idx)
  && Array.for_all visit p.plan_perm

let iter ?(hilog_virtual = false) ?(interrupt = no_interrupt) ?(bindings = [])
    ?seed ?plan ?limit store (q : Ir.query) ~f =
  let ctx = make_ctx ~hilog_virtual ~interrupt store q in
  List.iter (fun (slot, obj) -> ctx.binding.(slot) <- Some obj) bindings;
  let produced = ref 0 in
  let finish () =
    (* any still-unbound slot ranges over the whole universe *)
    let rec complete i =
      if i >= q.nvars then begin
        f (Array.map Option.get ctx.binding);
        incr produced;
        match limit with
        | Some l when !produced >= l -> raise Stopped
        | Some _ | None -> ()
      end
      else if ctx.binding.(i) <> None then complete (i + 1)
      else enum_universe ctx (Ir.V i) (fun () -> complete (i + 1))
    in
    complete 0
  in
  let atoms = Array.of_list q.atoms in
  let seed_idx = match seed with Some s -> s.seed_atom | None -> -1 in
  let plan =
    match plan with
    | Some p ->
      if not (plan_covers p ~seed_idx (Array.length atoms)) then
        invalid_arg "Solve.iter: plan does not match query/seed";
      p
    | None ->
      compile_plan ~bindings
        ?seed_atom:(if seed_idx >= 0 then Some seed_idx else None)
        store q
  in
  let rest () = run_perm ctx atoms plan.plan_perm finish in
  try
    match seed with
    | None -> rest ()
    | Some { seed_atom; seed_from } ->
      exec_seeded ctx atoms.(seed_atom) seed_from rest
  with Stopped -> ()

(* Answer rows: object lists under a monomorphic hash and equality. *)
module Row_tbl = Hashtbl.Make (struct
  type t = Oodb.Obj_id.t list

  let equal = List.equal Int.equal

  let hash row =
    List.fold_left (fun h o -> (h * 0x2F0B3A49) + o) 17 row land max_int
end)

let named_solutions ?interrupt ?limit store (q : Ir.query) =
  let seen = Row_tbl.create 64 in
  let acc = ref [] in
  iter ?interrupt ?limit store q ~f:(fun binding ->
      let row = List.map (fun (_, i) -> binding.(i)) q.named in
      if not (Row_tbl.mem seen row) then begin
        Row_tbl.add seen row ();
        acc := row :: !acc
      end);
  List.rev !acc

let satisfiable ?interrupt store q =
  let sat = ref false in
  iter ?interrupt ~limit:1 store q ~f:(fun _ -> sat := true);
  !sat

let count ?interrupt store (q : Ir.query) =
  match q.named with
  | [] -> if satisfiable ?interrupt store q then 1 else 0
  | _ -> List.length (named_solutions ?interrupt store q)

(* ------------------------------------------------------------------ *)
(* Plan explanation                                                    *)

(* The atom order comes from {!compile_plan} — exactly the plan [iter]
   executes. Access paths are described under the boundness reached at
   each step, mirroring [exec_app]'s dispatch. *)
let explain ?predicted ?(bindings = []) store (q : Ir.query) =
  let u = Store.universe store in
  let bound = Array.make (max q.nvars 1) false in
  List.iter (fun (slot, _) -> bound.(slot) <- true) bindings;
  let is_bound = function Ir.Const _ -> true | Ir.V i -> bound.(i) in
  let self_id = Store.self_id store in
  let describe (a : Ir.atom) =
    let app_path which (app : Ir.app) =
      let kind = match which with `Scalar -> "scalar" | `Set -> "set" in
      match app.meth with
      | Ir.V i when not bound.(i) ->
        Printf.sprintf "scan every %s method" kind
      | meth ->
        let mname =
          match meth with
          | Ir.Const m -> Format.asprintf "%a" (Oodb.Universe.pp_obj u) m
          | Ir.V i -> Printf.sprintf "_%d" i
        in
        if
          (match meth with
          | Ir.Const m -> Oodb.Obj_id.equal m self_id && app.args = []
          | Ir.V _ -> false)
        then "identity (self)"
        else if is_bound app.recv && List.for_all is_bound app.args then
          Printf.sprintf "keyed %s lookup on %s" kind mname
        else if is_bound app.recv then
          Printf.sprintf "receiver index scan on %s" mname
        else if is_bound app.res then
          Printf.sprintf "inverse index scan on %s" mname
        else Printf.sprintf "bucket scan on %s" mname
    in
    let path =
      match a with
      | Ir.A_eq _ -> "unification"
      | Ir.A_scalar app -> app_path `Scalar app
      | Ir.A_member app -> app_path `Set app
      | Ir.A_isa (o, c) -> (
        match (is_bound o, is_bound c) with
        | true, true -> "membership check"
        | true, false -> "ancestors of receiver"
        | false, true -> "members of class"
        | false, false -> "scan class hierarchy")
      | Ir.A_subset _ -> "nested set-inclusion subquery"
      | Ir.A_neg _ -> "nested negation subquery"
      | Ir.A_regex x ->
        if is_bound x.x_recv then
          "automaton product, forward BFS from receiver"
        else if is_bound x.x_res then
          "automaton product, backward BFS from result"
        else "automaton product, forward BFS over the universe"
    in
    (* per-plan-node predicted cardinality, when [predicted] has one for
       the atom's relation; a regex node is bounded by |states| · Σ
       label-relation cardinalities. Annotation only: the order is the
       store heuristic's either way. *)
    let annotation =
      match (predicted, a) with
      | Some card, Ir.A_regex x ->
        let total =
          List.fold_left
            (fun acc rel ->
              match card rel with Some c -> acc + c | None -> acc)
            0
            (Ir.automaton_rels x.x_auto)
        in
        if total > 0 then
          Printf.sprintf "  ~%d product pairs"
            (x.x_auto.Ir.a_nstates * total)
        else ""
      | Some card, a -> (
        match Ir.atom_rel a with
        | Some rel -> (
          match card rel with
          | Some n -> Printf.sprintf "  ~%d tuples" n
          | None -> "")
        | None -> "")
      | None, _ -> ""
    in
    (* the compiled automaton itself: states, transitions, seed set *)
    let detail =
      match a with
      | Ir.A_regex x ->
        let auto = x.x_auto in
        let b = Buffer.create 128 in
        let accepting =
          List.filter
            (fun q -> auto.Ir.a_accept.(q))
            (List.init auto.Ir.a_nstates Fun.id)
        in
        Printf.bprintf b
          "\n      automaton: %d states, start %d, accepting {%s}"
          auto.Ir.a_nstates auto.Ir.a_start
          (String.concat ", " (List.map string_of_int accepting));
        Array.iteri
          (fun q out ->
            Array.iter
              (fun ((lbl : Ir.label), q') ->
                Printf.bprintf b "\n        %d %s%s%s-> %d" q
                  (if lbl.Ir.lbl_set then "-.." else "-.")
                  (Format.asprintf "%a" (Oodb.Universe.pp_obj u)
                     lbl.Ir.lbl_meth)
                  (match lbl.Ir.lbl_args with
                  | [] -> ""
                  | args ->
                    Format.asprintf "@@(%a)"
                      (Format.pp_print_list
                         ~pp_sep:(fun ppf () ->
                           Format.pp_print_string ppf ", ")
                         (Oodb.Universe.pp_obj u))
                      args)
                  q')
              out)
          auto.Ir.a_trans;
        let seed =
          if is_bound x.x_recv then
            Printf.sprintf "{(receiver, %d)}" auto.Ir.a_start
          else if is_bound x.x_res then "{(result, q) | q accepting}"
          else "universe × {start}"
        in
        Printf.bprintf b "\n      seed set: %s" seed;
        Buffer.contents b
      | Ir.A_isa _ | Ir.A_scalar _ | Ir.A_member _ | Ir.A_eq _
      | Ir.A_subset _ | Ir.A_neg _ ->
        ""
    in
    Format.asprintf "%a  [%s]%s%s" (Ir.pp_atom u) a path annotation detail
  in
  let atoms = Array.of_list q.atoms in
  Array.to_list
    (Array.map
       (fun i ->
         let line = describe atoms.(i) in
         List.iter (fun v -> bound.(v) <- true) (Ir.atom_vars atoms.(i));
         line)
       (compile_plan ~bindings store q).plan_perm)
