(* Live mutation: incremental maintenance of an evaluated program's
   minimal model over the tombstoning store.

   [Live] keeps no support of its own beyond the extensional
   multiplicities. Asserted facts re-enter the fixpoint as ordinary
   semi-naive delta rounds from a watermark. Retracted facts run the
   Backward/Forward algorithm (Motik, Nenov, Piro, Horrocks, "Incremental
   Update of Datalog Materialisation", AAAI 2015) over the store and the
   provenance its records keep: the firings through a lost fact name its
   candidate consequences, each candidate is kept if a backward search
   finds it a proof that rests on nothing in doubt, and a forward phase
   re-derives whatever that search could not decide. Negation and set
   inclusion in the blast radius, and rule changes, recompute. *)

module Ast = Syntax.Ast
module Store = Oodb.Store
module Obj_id = Oodb.Obj_id
module Ir = Semantics.Ir
module Solve = Semantics.Solve
module Program = Engine.Program
module Rule = Engine.Rule
module Stratify = Engine.Stratify
module Fixpoint = Engine.Fixpoint
module Fact = Engine.Fact
module Provenance = Engine.Provenance
module Demand = Engine.Demand
module Head = Engine.Head
module Err = Engine.Err

exception Rejected of string

let rejected fmt = Format.kasprintf (fun m -> raise (Rejected m)) fmt

type strategy = Counting | Dred | Recompute

let strategy_name = function
  | Counting -> "counting"
  | Dred -> "dred"
  | Recompute -> "recompute"

type batch_stats = {
  epoch : int;  (** store epoch after the commit *)
  added : string list;  (** net model facts added, rendered, sorted *)
  removed : string list;  (** net model facts removed, rendered, sorted *)
  strategy : strategy;
  fixpoint : Fixpoint.stats option;
      (** the maintenance run, when one was needed *)
}

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

type t = {
  p : Program.t;
  store : Store.t;
  mutable rules : Rule.t list;  (* proper rules only; facts live in [edb] *)
  mutable fix : Fixpoint.prepared;  (* [rules], stratified and prepared *)
  edb : int ref Fact_tbl.t;  (* extensional multiplicity per fact *)
  mutable commit_hook :
    (retract:bool -> epoch:int -> text:string -> unit) option;
      (* durability: called after the maintenance run succeeds, before
         the batch is reported committed; a raise here rolls the batch
         back like any other mid-batch failure *)
}

(* Per-batch working state: the net model delta and the EDB bump log (for
   atomic undo). *)
type ctx = {
  c_added : unit Fact_tbl.t;
  c_removed : unit Fact_tbl.t;
  mutable c_edb_log : (Fact.t * int) list;
}

let new_ctx () =
  {
    c_added = Fact_tbl.create 32;
    c_removed = Fact_tbl.create 32;
    c_edb_log = [];
  }

let note_insert ctx f =
  if Fact_tbl.mem ctx.c_removed f then Fact_tbl.remove ctx.c_removed f
  else Fact_tbl.replace ctx.c_added f ()

let note_remove ctx f =
  if Fact_tbl.mem ctx.c_added f then Fact_tbl.remove ctx.c_added f
  else Fact_tbl.replace ctx.c_removed f ()

let get_count tbl f =
  match Fact_tbl.find_opt tbl f with Some r -> !r | None -> 0

let bump tbl f d =
  match Fact_tbl.find_opt tbl f with
  | Some r -> r := !r + d
  | None -> Fact_tbl.add tbl f (ref d)

let rel_of = function
  | Fact.F_isa _ -> Ir.R_isa
  | Fact.F_scalar { meth; _ } -> Ir.R_scalar meth
  | Fact.F_set { meth; _ } -> Ir.R_set meth

let norm = Ir.norm_rel

(* ------------------------------------------------------------------ *)
(* Store-side fact operations *)

let live_in_store t = function
  | Fact.F_isa (o, c) -> Store.has_isa t.store o c
  | Fact.F_scalar { meth; recv; args; res } -> (
    match Store.scalar_lookup t.store ~meth ~recv ~args with
    | Some r -> Obj_id.equal r res
    | None -> false)
  | Fact.F_set { meth; recv; args; res } ->
    Obj_id.Set.mem res (Store.set_lookup t.store ~meth ~recv ~args)

let tombstone t ctx f =
  let ok =
    match f with
    | Fact.F_isa (o, c) -> Store.remove_isa t.store o c
    | Fact.F_scalar { meth; recv; args; res } ->
      Store.remove_scalar t.store ~meth ~recv ~args ~res
    | Fact.F_set { meth; recv; args; res } ->
      Store.remove_set t.store ~meth ~recv ~args ~res
  in
  (* the store clears the dead record's source *)
  if ok then note_remove ctx f

let reinsert t f =
  match f with
  | Fact.F_isa (o, c) -> ignore (Store.add_isa t.store o c : Store.isa_insert)
  | Fact.F_scalar { meth; recv; args; res } ->
    ignore (Store.add_scalar t.store ~meth ~recv ~args ~res : Store.scalar_insert)
  | Fact.F_set { meth; recv; args; res } ->
    ignore (Store.add_set t.store ~meth ~recv ~args ~res : Store.set_insert)

let drop_derived t ctx =
  let garbage = ref [] in
  Fact.iter_live t.store (fun f ->
      if get_count t.edb f <= 0 then garbage := f :: !garbage);
  List.iter (tombstone t ctx) !garbage

let repoint t f source = Provenance.repoint (Program.provenance t.p) f source

(* ------------------------------------------------------------------ *)
(* Fixpoint re-entry *)

let run ?from t ctx =
  Fixpoint.run ~config:(Program.config t.p)
    ~provenance:(Program.provenance t.p) ~on_insert:(note_insert ctx) ?from
    t.store t.fix

(* Full recompute: tombstone every live fact with no extensional support
   and re-run the fixpoint from the extensional store. The fallback
   whenever incremental maintenance would be unsound (negation or
   inclusion over an affected relation, rule retraction) and the
   recovery path after a mid-batch failure. *)
let refresh t ctx =
  drop_derived t ctx;
  (* extensional facts tombstoned earlier in the batch (or by a failed
     one) but still multiplicity-positive come back, recorded as such *)
  Fact_tbl.iter
    (fun f r ->
      if !r > 0 then begin
        if not (live_in_store t f) then reinsert t f;
        repoint t f Provenance.Extensional
      end)
    t.edb;
  run t ctx

(* ------------------------------------------------------------------ *)
(* Firings through a fact: each rule solved with a body atom pre-bound to
   it. A method atom binds its terms, a membership ranges over the pairs
   the class edge closes, a regular-path atom over the receivers reaching
   the edge's source. A rule whose head set reads the fact's relation is
   solved whole; one whose head path steps along a link's method, with
   that path's receiver bound. *)

(* Extend slot bindings so each term denotes its object, if they can. *)
let unify_into b pairs =
  List.fold_left
    (fun acc ((term : Ir.term), o) ->
      Option.bind acc (fun b ->
          match term with
          | Const c -> if Obj_id.equal c o then Some b else None
          | V i -> (
            match List.assoc_opt i b with
            | None -> Some ((i, o) :: b)
            | Some o' -> if Obj_id.equal o o' then Some b else None)))
    (Some b) pairs

let unify = unify_into []

let atom_seeds t (atom : Ir.atom) f =
  match (atom, f) with
  | (A_scalar a, Fact.F_scalar x | A_member a, Fact.F_set x)
    when List.length a.args = List.length x.args ->
    Option.to_list
      (unify
         ((a.meth, x.meth) :: (a.recv, x.recv) :: (a.res, x.res)
         :: List.combine a.args x.args))
  | A_isa (o, c), Fact.F_isa (sub, cls) ->
    let below = sub :: Obj_id.Set.elements (Store.members t.store sub) in
    let above = cls :: Obj_id.Set.elements (Store.classes_of t.store cls) in
    List.concat_map
      (fun x -> List.filter_map (fun y -> unify [ (o, x); (c, y) ]) above)
      below
  | A_regex r, (Fact.F_scalar x | Fact.F_set x) ->
    let set = match f with Fact.F_set _ -> true | _ -> false in
    let on_label ((l : Ir.label), _) =
      l.lbl_set = set && Obj_id.equal l.lbl_meth x.meth && l.lbl_args = x.args
    in
    let recvs = ref [] in
    Array.iteri
      (fun q out ->
        if Array.exists on_label out then
          let a_accept = Array.init r.x_auto.a_nstates (Int.equal q) in
          let x_auto = { r.x_auto with a_accept } in
          let atom =
            Ir.A_regex { x_auto; x_recv = V 0; x_res = Const x.recv }
          in
          Solve.iter t.store
            { atoms = [ atom ]; nvars = 1; named = [] }
            ~f:(fun b -> recvs := b.(0) :: !recvs))
      r.x_auto.a_trans;
    List.filter_map
      (fun o -> unify [ (r.x_recv, o) ])
      (List.sort_uniq Obj_id.compare !recvs)
  | _ -> []

let head_sets (r : Rule.t) =
  Ast.fold_reference
    (fun acc -> function
      | Ast.Filter { f_rhs = Rset_ref _; _ } -> true
      | _ -> acc)
    false r.source.head

let path_seeds t (r : Rule.t) f =
  match f with
  | Fact.F_scalar { meth; recv; _ } ->
    let u = Store.universe t.store in
    Ast.fold_reference
      (fun acc -> function
        | Ast.Path { p_sep = Dot; p_meth = Name n; p_recv; _ }
          when Oodb.Universe.find_name u n = Some meth ->
          (match p_recv with
          | Var x -> Option.to_list (List.assoc_opt x r.body.named)
          | _ -> [])
          |> List.map (fun slot -> (slot, recv))
          |> fun seed -> seed :: acc
        | _ -> acc)
      [] r.source.head
  | Fact.F_isa _ | Fact.F_set _ -> []

(* The live facts the firings through [f] assert, found while [f] is
   still live, and the firings whose head relied on [f] as a link: with
   [f] gone they build a virtual object instead. *)
let consequences t ~evals f =
  let rel = norm (rel_of f) in
  let heads = ref [] and refire = ref [] in
  List.iter
    (fun (r : Rule.t) ->
      let solve bindings =
        incr evals;
        Solve.iter ~bindings t.store r.body ~f:(fun b ->
            let hs, relied =
              Head.asserts t.store ~binding:b r.head
            in
            if List.exists (Fact.equal f) relied then
              refire := { Provenance.rule = r; binding = b } :: !refire;
            heads := List.filter (live_in_store t) hs @ !heads)
      in
      let seeds =
        if not (r.reads_any || List.exists (fun rd -> norm rd = rel) r.reads)
        then []
        else if head_sets r then [ [] ]
        else List.concat_map (fun a -> atom_seeds t a f) r.body.atoms
      in
      List.iter solve (List.sort_uniq compare (seeds @ path_seeds t r f)))
    t.rules;
  (!heads, !refire)

(* ------------------------------------------------------------------ *)
(* Proofs: a solution of a rule whose head asserts the fact, with every
   body fact and relied link taken by [ok]. *)

(* Slot bindings under which a position of [r]'s head can assert [f], one
   list per position: a variable pins its slot, a name must be the fact's
   object, and any other term (a path, a value) is left open — [accept]
   checks each solution's heads. *)
let head_matches t (r : Rule.t) f =
  let u = Store.universe t.store in
  let rec term acc ((tm : Ast.reference), o) =
    Option.bind acc (fun acc ->
        match tm with
        | Var x -> (
          match List.assoc_opt x r.body.named with
          | None -> Some acc
          | Some i -> unify_into acc [ (Ir.V i, o) ])
        | Name n -> if Oodb.Universe.find_name u n = Some o then Some acc else None
        | Paren tm | Isa { recv = tm; _ } | Filter { f_recv = tm; _ } ->
          term (Some acc) (tm, o)
        | _ -> Some acc)
  in
  let app recv meth args res (x : Fact.app) =
    if List.length args <> List.length x.args then None
    else
      List.fold_left term (Some [])
        ((recv, x.recv) :: (meth, x.meth)
        :: (List.combine args x.args @ List.map (fun r -> (r, x.res)) res))
  in
  Ast.fold_reference
    (fun acc (pos : Ast.reference) ->
      (match (pos, f) with
      | Isa { recv; cls }, Fact.F_isa (o, c) ->
        [ List.fold_left term (Some []) [ (recv, o); (cls, c) ] ]
      | Path { p_sep = Dot; p_recv; p_meth; p_args }, Fact.F_scalar x ->
        [ app p_recv p_meth p_args [] x ]
      | Filter { f_recv; f_meth; f_args; f_rhs = Rscalar r }, Fact.F_scalar x ->
        [ app f_recv f_meth f_args [ r ] x ]
      | Filter { f_recv; f_meth; f_args; f_rhs = Rset_enum es }, Fact.F_set x ->
        List.map (fun e -> app f_recv f_meth f_args [ e ] x) es
      | Filter { f_recv; f_meth; f_args; f_rhs = Rset_ref _ }, Fact.F_set x ->
        [ app f_recv f_meth f_args [] x ]
      | _ -> [])
      |> List.filter_map Fun.id
      |> List.rev_append acc)
    [] r.source.head

(* A proof of [f]: by its provenance record ([recorded], the source its
   store record holds) first, then (with [others]) by any rule defining
   its relation, solved under the bindings its head pins. [strict] turns
   down rules whose head set has members [ok] cannot vet. [doubt] is set
   when a solution deriving [f] is turned down; [evals] counts the rules
   solved. *)
let find_proof ?(doubt = ref false) t ~evals ~strict ~others ~ok ~recorded f
    =
  let prove (r : Rule.t) bindings =
    incr evals;
    let vetted = not (strict && head_sets r) in
    let accept b body =
      let heads, relied =
        Head.asserts t.store ~binding:b r.head
      in
      List.exists (Fact.equal f) heads
      && ((vetted && List.for_all ok body && List.for_all ok relied)
         || (doubt := true; false))
    in
    Option.map fst (Provenance.prove t.store r bindings ~accept)
  in
  let by_rule (r : Rule.t) =
    let rel = norm (rel_of f) in
    if List.exists (fun d -> norm d = rel || d = Ir.R_any) r.defines then
      List.find_map (prove r) (head_matches t r f)
    else None
  in
  let record =
    match recorded with
    | Some (Provenance.Derived d) -> prove d.rule (Provenance.named d)
    | Some Provenance.Extensional | None -> None
  in
  if Option.is_some record || not others then record
  else List.find_map by_rule t.rules

(* ------------------------------------------------------------------ *)
(* Backward/Forward retraction.

   Backward: each fact the batch un-states, and each consequence of a
   fact that dies, is a candidate. It stays if stated, or if some rule
   proves it on [safe] facts: stated, or with a record that replays on
   safe facts — a well-founded proof through no dead fact and no fact
   still being checked, so no cycle of candidates proves itself. One that
   stays is re-pointed at its proof; one that does not is tombstoned, and
   the firings through it name the next candidates.

   Forward: the store now holds only facts with a proof. The backward
   search is sound, not complete: each dead fact that had a proof refused
   is tried once more against any rule, the firings that relied on a dead
   link re-fire, and semi-naive delta rounds from before these insertions
   derive the rest. *)

type search = {
  proved : unit Fact_tbl.t;  (* safe for the rest of the batch *)
  failed : unit Fact_tbl.t;  (* not safe, for the current candidate *)
  open_ : unit Fact_tbl.t;  (* on the current search path *)
  doubt : bool ref;  (* the current candidate had a proof refused *)
  evals : int ref;  (* rules solved in the batch *)
}

(* Is [f] safe: stated, or proved on safe facts? A stated fact is
   recorded as such. With [others] any rule may prove it and its record
   is re-pointed at the proof; a fact below it only counts by its own
   record. The fact's store record is found once: it is the liveness
   check, the recorded proof and the place a re-point writes. *)
let rec safe t s ~others f =
  Fact_tbl.mem s.proved f
  || (not (Fact_tbl.mem s.failed f || Fact_tbl.mem s.open_ f))
     &&
     match Provenance.entry (Program.provenance t.p) f with
     | None -> false
     | Some entry ->
       Fact_tbl.replace s.open_ f ();
       let proof =
         if get_count t.edb f > 0 then Some Provenance.Extensional
         else
           find_proof t ~doubt:s.doubt ~evals:s.evals ~strict:true ~others
             ~ok:(safe t s ~others:false)
             ~recorded:(Provenance.entry_source entry) f
           |> Option.map (fun d -> Provenance.Derived d)
       in
       Fact_tbl.remove s.open_ f;
       (match proof with
       | Some (Provenance.Derived _) when not others -> ()
       | Some source -> Provenance.set_source entry source
       | None -> ());
       let ok = Option.is_some proof in
       Fact_tbl.replace (if ok then s.proved else s.failed) f ();
       ok

(* Retract the facts whose last statement the batch dropped; [true] when
   a derived fact went too. *)
let backward_forward t ctx lost =
  let prov = Program.provenance t.p in
  let tbl () = Fact_tbl.create 64 in
  let s =
    {
      proved = tbl ();
      failed = tbl ();
      open_ = tbl ();
      doubt = ref false;
      evals = ref 0;
    }
  in
  let queue = Queue.of_seq (List.to_seq lost) in
  let doubted = ref [] and refire = ref [] in
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    Fact_tbl.reset s.failed;
    s.doubt := false;
    if live_in_store t f && not (safe t s ~others:true f) then begin
      let heads, relied = consequences t ~evals:s.evals f in
      if !(s.doubt) then doubted := f :: !doubted;
      refire := relied @ !refire;
      tombstone t ctx f;
      List.iter (fun h -> Queue.push h queue) heads
    end
  done;
  let baseline = Fixpoint.marks t.fix t.store and changes = ref 0 in
  let fire (d : Provenance.derivation) =
    ignore
      (Head.execute
         ~on_insert:(fun f ->
           Provenance.record prov f (Provenance.Derived d);
           note_insert ctx f)
         t.store ~binding:d.binding ~rule:d.rule.source ~changes d.rule.head
        : Obj_id.t)
  in
  List.iter
    (fun f ->
      if not (live_in_store t f) then
        Option.iter fire
          (find_proof t ~evals:s.evals ~strict:false ~others:true
             ~ok:(fun _ -> true) ~recorded:None f))
    (List.rev !doubted);
  List.iter
    (fun (d : Provenance.derivation) ->
      incr s.evals;
      Provenance.prove t.store d.rule (Provenance.named d)
        ~accept:(fun _ _ -> true)
      |> Option.iter (fun (d, _) -> fire d))
    !refire;
  let fp =
    if !changes > 0 then run ~from:baseline t ctx else Program.idle_stats ()
  in
  fp.rule_evaluations <- fp.rule_evaluations + !(s.evals);
  let stated = List.filter (Fact_tbl.mem ctx.c_removed) lost in
  (Fact_tbl.length ctx.c_removed > List.length stated, fp)

(* ------------------------------------------------------------------ *)
(* The negation gate: find every relation the batch can transitively
   affect; if any rule's completion reads (negation, set inclusion)
   intersect that closure, incremental maintenance is unsound — additions
   can delete and deletions can add — so the batch falls back to
   [refresh]. *)

let gate_triggered ~rules ~seed_rels =
  let affected = Hashtbl.create 16 in
  let any = ref false in
  let add r =
    match norm r with
    | Ir.R_any -> if not !any then (any := true; true) else false
    | r ->
      if Hashtbl.mem affected r then false
      else (Hashtbl.replace affected r (); true)
  in
  List.iter (fun r -> ignore (add r : bool)) seed_rels;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Rule.t) ->
        let hit =
          r.reads_any || !any
          || List.exists (fun rd -> Hashtbl.mem affected (norm rd)) r.reads
        in
        if hit then
          List.iter (fun d -> if add d then changed := true) r.defines)
      rules
  done;
  List.exists
    (fun (r : Rule.t) ->
      r.completion_reads <> []
      && (!any
         || List.exists
              (fun cr -> Hashtbl.mem affected (norm cr))
              r.completion_reads))
    rules

(* ------------------------------------------------------------------ *)
(* Extensional operations *)

(* One more statement of each fact the head asserts: what it inserts,
   what it finds, and the links it relies on. *)
let edb_insert t ctx (head : Ast.reference) =
  let prov = Program.provenance t.p in
  let compiled = Head.compile ~named:[] head in
  ignore
    (Head.execute
       ~on_insert:(fun f ->
         Provenance.record prov f Provenance.Extensional;
         note_insert ctx f)
       t.store ~binding:[||] ~rule:(Ast.fact head) ~changes:(ref 0) compiled
      : Obj_id.t);
  let heads, relied = Head.asserts t.store ~binding:[||] compiled in
  List.iter
    (fun f ->
      bump t.edb f 1;
      ctx.c_edb_log <- (f, 1) :: ctx.c_edb_log)
    (heads @ relied)

(* Drop one statement of a fact; the fact is lost once none is left. *)
let edb_retract t ctx (head : Ast.reference) =
  match Fact.of_reference t.store head with
  | None ->
    rejected "cannot resolve fact %a against the store"
      Syntax.Pretty.pp_reference head
  | Some f ->
    if get_count t.edb f <= 0 then
      rejected "not an extensional fact: %a" Syntax.Pretty.pp_reference head
    else begin
      bump t.edb f (-1);
      ctx.c_edb_log <- (f, -1) :: ctx.c_edb_log;
      if get_count t.edb f = 0 then Some f else None
    end

(* ------------------------------------------------------------------ *)
(* Batch plumbing *)

let render_facts t tbl =
  Fact.lines (Store.universe t.store) (fun f ->
      Fact_tbl.iter (fun fact () -> f fact) tbl)

let finish t ctx strategy fp =
  {
    epoch = Store.epoch t.store;
    added = render_facts t ctx.c_added;
    removed = render_facts t ctx.c_removed;
    strategy;
    fixpoint = fp;
  }

let set_rules t rules =
  t.rules <- rules;
  t.fix <- Fixpoint.prepare (Stratify.compute t.store rules)

(* Undo a failed batch: restore the rule set, roll the EDB multiplicities
   back, and recompute — the pre-batch model is the fixpoint of the
   pre-batch extensional store, so [refresh] restores it exactly. *)
let recover t ctx rules =
  if rules != t.rules then set_rules t rules;
  List.iter (fun (f, d) -> bump t.edb f (-d)) ctx.c_edb_log;
  (* the restoring refresh must survive transient injected store faults:
     it re-runs from the extensional facts, so retrying from a partially
     refreshed state is safe (tombstoning and reinsertion are idempotent) *)
  let rec go attempts =
    let scrap = new_ctx () in
    match refresh t scrap with
    | (_ : Fixpoint.stats) -> ()
    | exception _ when attempts < 50 -> go (attempts + 1)
  in
  go 0

let fail_of_exn t = function
  | Rejected m -> Rejected m
  | Program.Invalid m -> Rejected m
  | e -> (
    match Err.message t.store e with
    | Some m -> Rejected m
    | None -> e)

let parse_batch src =
  match Syntax.Parser.program_spanned src with
  | spanned -> spanned
  | exception Syntax.Parser.Error (pos, msg) ->
    rejected "%a: %s" Syntax.Token.pp_pos pos msg

(* Split a batch into fact statements, proper rules (a body, or a head
   that reads a relation) and signature declarations, compiled as a
   program's statements are ({!Rule.classify}); queries are rejected. *)
let split_batch t spanned =
  let facts = ref [] and rules = ref [] and sigs = ref [] in
  List.iter
    (fun ((stmt, span) : Ast.statement * Syntax.Token.span) ->
      match Syntax.Wellformed.signature_of_statement stmt with
      | Some decl -> sigs := decl :: !sigs
      | None -> (
        match stmt with
        | Ast.Query _ -> rejected "queries cannot be asserted or retracted"
        | Ast.Rule r -> (
          match Syntax.Wellformed.check_rule r with
          | Error e ->
            rejected "ill-formed %a: %a" Syntax.Pretty.pp_rule r
              Syntax.Wellformed.pp_error e
          | Ok () -> (
            match Rule.classify ~span t.store r with
            | Rule.Fact f -> facts := f :: !facts
            | Rule.Rule c -> rules := c :: !rules
            | exception e -> raise (fail_of_exn t e)))))
    spanned;
  (List.rev !facts, List.rev !rules, List.rev !sigs)

(* ------------------------------------------------------------------ *)
(* Public API *)

let program t = t.p

let store t = t.store

let rules t = t.rules

let set_commit_hook t hook = t.commit_hook <- hook

(* The pre-commit log hook (durability): fires after the maintenance run
   has succeeded but before the batch is reported committed, inside the
   batch's exception scope — if the hook raises (injected WAL fault,
   disk error), [recover] rolls the whole batch back and the caller sees
   the failure, so a batch is on disk iff it is in the model. *)
let run_commit_hook t ~retract ~text =
  match t.commit_hook with
  | None -> ()
  | Some hook -> hook ~retract ~epoch:(Store.epoch t.store) ~text

let attach p =
  let store = Program.store p in
  let rules = Program.rules p in
  let t =
    {
      p;
      store;
      rules;
      fix = Fixpoint.prepare (Stratify.compute store rules);
      edb = Fact_tbl.create 256;
      commit_hook = None;
    }
  in
  (* register the extensional multiplicities by re-executing the fact
     statements (idempotent; an unevaluated program loads here) *)
  let ctx = new_ctx () in
  List.iter
    (fun (f : Rule.fact) -> edb_insert t ctx f.f_source.head)
    (Program.facts p);
  (* demand queries leave magic tuples and fragments recorded under
     synthesised rules, materialised or not: drop every derived fact, and
     the run re-derives and re-records them under the program's rules *)
  let fragment = Demand.magic_fact_total t.store > 0 in
  if fragment then drop_derived t ctx;
  if fragment || not (Program.materialised p) then
    ignore (Program.run p : Fixpoint.stats);
  t

let assert_batch t src =
  let spanned = parse_batch src in
  (* compile and re-stratify BEFORE any store write: an unstratifiable or
     invalid batch must leave no trace *)
  let facts, compiled, sigs = split_batch t spanned in
  (if compiled <> [] then
     match Stratify.compute t.store (t.rules @ compiled) with
     | _ -> ()
     | exception e -> raise (fail_of_exn t e));
  List.iter
    (fun decl ->
      try Program.load_signature t.store (Program.signatures t.p) decl
      with e -> raise (fail_of_exn t e))
    sigs;
  let seed_rels =
    List.concat_map (fun (f : Rule.fact) -> f.f_defines) facts
    @ List.concat_map (fun (r : Rule.t) -> r.defines) compiled
  in
  let gate = gate_triggered ~rules:(t.rules @ compiled) ~seed_rels in
  let ctx = new_ctx () in
  let saved = t.rules in
  let baseline = Fixpoint.marks t.fix t.store in
  try
    List.iter (fun (f : Rule.fact) -> edb_insert t ctx f.f_source.head) facts;
    if compiled <> [] then set_rules t (t.rules @ compiled);
    let strategy, fp =
      if facts = [] && compiled = [] then (Counting, None)
      else if gate then (Recompute, Some (refresh t ctx))
      else if compiled <> [] then
        (* a new rule needs a full first evaluation *)
        (Recompute, Some (run t ctx))
      else (Counting, Some (run ~from:baseline t ctx))
    in
    run_commit_hook t ~retract:false ~text:src;
    finish t ctx strategy fp
  with e ->
    recover t ctx saved;
    raise (fail_of_exn t e)

let retract_batch t src =
  let spanned = parse_batch src in
  let facts, dropped_src, sigs = split_batch t spanned in
  if sigs <> [] then
    rejected "signature declarations cannot be retracted";
  (* match retracted rules structurally against the live rule set *)
  let remaining = ref t.rules in
  let dropped = ref [] in
  List.iter
    (fun (r : Rule.t) ->
      match
        List.partition (fun (lr : Rule.t) -> lr.source = r.source) !remaining
      with
      | [], _ -> rejected "no such rule: %a" Syntax.Pretty.pp_rule r.source
      | matches, rest ->
        dropped := matches @ !dropped;
        remaining := rest)
    dropped_src;
  let seed_rels =
    List.concat_map (fun (r : Rule.t) -> r.defines) !dropped
    @ List.filter_map
        (fun (f : Rule.fact) ->
          Option.map rel_of (Fact.of_reference t.store f.f_source.head))
        facts
  in
  let gate = gate_triggered ~rules:t.rules ~seed_rels in
  let use_refresh = gate || !dropped <> [] in
  let ctx = new_ctx () in
  let saved = t.rules in
  try
    let lost =
      List.filter_map
        (fun (f : Rule.fact) -> edb_retract t ctx f.f_source.head)
        facts
    in
    if !dropped <> [] then set_rules t !remaining;
    let strategy, fp =
      if use_refresh then (Recompute, Some (refresh t ctx))
      else
        let derived_lost, fp = backward_forward t ctx lost in
        ((if derived_lost then Dred else Counting), Some fp)
    in
    run_commit_hook t ~retract:true ~text:src;
    finish t ctx strategy fp
  with e ->
    recover t ctx saved;
    raise (fail_of_exn t e)

(* ------------------------------------------------------------------ *)
(* Introspection *)

(* The live source: extensional facts plus the current rules, as a
   loadable PathLog program. [Program.of_string] on this text rebuilds an
   isomorphic model — the reference point equivalence tests and the chaos
   replay check against. Skolem objects print as the paths that denote
   them and re-skolemise deterministically. *)
let dump_source t =
  let b = Buffer.create 1024 in
  (* one statement per extensional multiplicity: [attach] bumps the edb
     count once per fact statement, so a reload preserves how many
     retracts the fact survives — a fact asserted twice and dumped once
     would vanish on the first post-reload retract *)
  Fact.lines ~stop:"." (Store.universe t.store) (fun f ->
      Fact_tbl.iter (fun fact r -> for _ = 1 to !r do f fact done) t.edb)
  |> List.iter (fun line ->
         Buffer.add_string b line;
         Buffer.add_char b '\n');
  List.iter
    (fun (r : Rule.t) ->
      Buffer.add_string b (Syntax.Pretty.rule_to_string r.source);
      Buffer.add_char b '\n')
    t.rules;
  Buffer.contents b

(* Provenance audit (chaos harness, tests): every live fact's record
   names a proof it still has — a statement, or a derivation that replays
   on live facts — and the records are well-founded, so WHY walks a real
   proof. *)
let check_support t =
  let errs = ref [] in
  let u = Store.universe t.store in
  let say fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  let pp = Fact.pp u in
  (* [false] while a fact's proof is walked, [true] once it is done *)
  let walked = Fact_tbl.create 256 in
  let rec visit f =
    match Fact_tbl.find_opt walked f with
    | Some true -> ()
    | Some false -> say "records of %a form a cycle" pp f
    | None -> (
      Fact_tbl.replace walked f false;
      (match Provenance.lookup (Program.provenance t.p) f with
      | None -> say "live fact %a has no provenance record" pp f
      | Some Extensional when get_count t.edb f <= 0 ->
        say "live fact %a is recorded as stated but has no statement" pp f
      | Some Extensional -> ()
      | Some (Derived d) -> (
        match Provenance.replay t.store d with
        | None -> say "record of %a does not replay" pp f
        | Some body ->
          List.iter
            (fun g ->
              if live_in_store t g then visit g
              else say "proof of %a names dead fact %a" pp f pp g)
            body));
      Fact_tbl.replace walked f true)
  in
  Fact.iter_live t.store visit;
  Fact_tbl.iter
    (fun f r ->
      if !r > 0 && not (live_in_store t f) then
        say "extensional fact %a is not live in the store" pp f)
    t.edb;
  List.rev !errs
