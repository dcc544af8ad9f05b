(* Live mutation: counting-based incremental view maintenance over the
   tombstoning store, with a DRed (delete/re-derive) fallback for
   recursive strata and honest recomputation behind negation.

   A [Live.t] wraps an evaluated {!Engine.Program.t} and keeps a support
   index over its minimal model: one [deriv] record per (rule, body
   solution) the tracing fixpoint ever enumerated, a per-fact count of
   live derivations, and a per-fact extensional multiplicity. Batches of
   asserted facts re-enter the fixpoint as ordinary semi-naive delta
   rounds (watermarks captured before the batch); batches of retracted
   facts cascade through the support index, re-validating non-recursive
   derivations in place and over-deleting recursive ones. *)

module Ast = Syntax.Ast
module Store = Oodb.Store
module Vec = Oodb.Vec
module Ir = Semantics.Ir
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

(* Derivations are identified by rule uid and body solution. *)
module Deriv_tbl = Hashtbl.Make (struct
  type t = Provenance.derivation

  let equal (a : t) (b : t) = a.rule.uid = b.rule.uid && a.binding = b.binding
  let hash (d : t) =
    Array.fold_left (fun h o -> (h * 31) + o) d.rule.uid d.binding
end)

(* One recorded body solution of a rule, as provenance records it.
   [d_heads] are every fact the head asserted under it (sub-path links
   included); [d_body] the ground facts it rests on. Dead derivations
   stay in the [uses]/[heads_of] lists (filtered on read) but leave
   [dedup], so a later re-derivation of the same solution re-records. *)
type deriv = {
  d_src : Provenance.derivation;
  d_recursive : bool;
  d_heads : Fact.t list;
  mutable d_body : Fact.t list;
  mutable d_dead : bool;
}

type t = {
  p : Program.t;
  store : Store.t;
  mutable rules : Rule.t list;  (* proper rules only; facts live in [edb] *)
  mutable strat : Stratify.t;
  mutable stratum_of : (int, int) Hashtbl.t;  (* rule uid -> stratum *)
  mutable recursive_strata : bool array;
  mutable recursive_rels : (Ir.rel, unit) Hashtbl.t;
  mutable global_dred : bool;  (* R_any anywhere: per-rel tracking unsafe *)
  counts : int ref Fact_tbl.t;  (* live derivations per fact *)
  edb : int ref Fact_tbl.t;  (* extensional multiplicity per fact *)
  uses : deriv list ref Fact_tbl.t;  (* body fact -> derivations (over-approx) *)
  heads_of : deriv list ref Fact_tbl.t;  (* head fact -> derivations *)
  dedup : deriv Deriv_tbl.t;  (* live derivations *)
  mutable commit_hook :
    (retract:bool -> epoch:int -> text:string -> unit) option;
      (* durability: called after the maintenance run succeeds, before
         the batch is reported committed; a raise here rolls the batch
         back like any other mid-batch failure *)
}

(* Per-batch working state: the net model delta, the EDB bump log (for
   atomic undo), and the retraction worklist. *)
type ctx = {
  c_added : unit Fact_tbl.t;
  c_removed : unit Fact_tbl.t;
  mutable c_edb_log : (Fact.t * int) list;
  c_queue : Fact.t Queue.t;
  mutable c_rederive : bool;
}

let new_ctx () =
  {
    c_added = Fact_tbl.create 32;
    c_removed = Fact_tbl.create 32;
    c_edb_log = [];
    c_queue = Queue.create ();
    c_rederive = false;
  }

let note_insert ctx f =
  if Fact_tbl.mem ctx.c_removed f then Fact_tbl.remove ctx.c_removed f
  else Fact_tbl.replace ctx.c_added f ()

let note_remove ctx f =
  if Fact_tbl.mem ctx.c_added f then Fact_tbl.remove ctx.c_added f
  else Fact_tbl.replace ctx.c_removed f ()

(* ------------------------------------------------------------------ *)
(* Small table helpers *)

let get_count tbl f =
  match Fact_tbl.find_opt tbl f with Some r -> !r | None -> 0

let bump tbl f d =
  match Fact_tbl.find_opt tbl f with
  | Some r -> r := !r + d
  | None -> Fact_tbl.add tbl f (ref d)

let push_assoc tbl f d =
  match Fact_tbl.find_opt tbl f with
  | Some r -> r := d :: !r
  | None -> Fact_tbl.add tbl f (ref [ d ])

let rel_of = function
  | Fact.F_isa _ -> Ir.R_isa
  | Fact.F_scalar { meth; _ } -> Ir.R_scalar meth
  | Fact.F_set { meth; _ } -> Ir.R_set meth

let norm = Ir.norm_rel

(* ------------------------------------------------------------------ *)
(* Stratification metadata: which strata are recursive (a rule in the
   stratum reads a relation the stratum defines), hence which relations
   need DRed over-deletion instead of counting. R_any anywhere makes the
   per-relation bookkeeping unsound, so it flips a global DRed flag. *)

let recompute_strat_meta t =
  let strat = Stratify.compute t.store t.rules in
  t.strat <- strat;
  let stratum_of = Hashtbl.create 64 in
  List.iter
    (fun ((r : Rule.t), s) -> Hashtbl.replace stratum_of r.uid s)
    strat.rule_stratum;
  t.stratum_of <- stratum_of;
  let n = Array.length strat.strata in
  let recursive = Array.make n false in
  let global = ref false in
  Array.iteri
    (fun i rules ->
      let defines =
        List.concat_map (fun (r : Rule.t) -> List.map norm r.defines) rules
      in
      if List.mem Ir.R_any defines then global := true;
      List.iter
        (fun (r : Rule.t) ->
          if r.reads_any then global := true;
          if List.exists (fun rd -> List.mem (norm rd) defines) r.reads then
            recursive.(i) <- true)
        rules)
    strat.strata;
  t.recursive_strata <- recursive;
  t.global_dred <- !global;
  let rels = Hashtbl.create 16 in
  Array.iteri
    (fun i rules ->
      if recursive.(i) then
        List.iter
          (fun (r : Rule.t) ->
            List.iter (fun d -> Hashtbl.replace rels (norm d) ()) r.defines)
          rules)
    strat.strata;
  t.recursive_rels <- rels

let rel_recursive t r = t.global_dred || Hashtbl.mem t.recursive_rels (norm r)

let deriv_recursive t (rule : Rule.t) =
  t.global_dred
  ||
  match Hashtbl.find_opt t.stratum_of rule.uid with
  | Some s -> s < Array.length t.recursive_strata && t.recursive_strata.(s)
  | None -> true (* unknown rule: be conservative *)

(* ------------------------------------------------------------------ *)
(* Recording derivations (the fixpoint tracer) *)

(* A regular-path atom rests on one witness path of several possible: the
   derivation counts as recursive, and losing it re-derives. *)
let has_regex (rule : Rule.t) =
  List.exists
    (function Ir.A_regex _ -> true | _ -> false)
    rule.body.Ir.atoms

let record_deriv t (src : Provenance.derivation) heads =
  let rule = src.rule in
  if rule.source.body <> [] && heads <> [] && not (Deriv_tbl.mem t.dedup src)
  then begin
    let body = Provenance.body_facts t.store rule.body src.binding in
    let d =
      {
        d_src = src;
        d_recursive = has_regex rule || deriv_recursive t rule;
        d_heads = heads;
        d_body = body;
        d_dead = false;
      }
    in
    Deriv_tbl.add t.dedup src d;
    List.iter
      (fun h ->
        bump t.counts h 1;
        push_assoc t.heads_of h d)
      heads;
    List.iter (fun bf -> push_assoc t.uses bf d) body
  end

(* ------------------------------------------------------------------ *)
(* Store-side fact operations *)

let live_in_store t = function
  | Fact.F_isa (o, c) ->
    Vec.exists
      (fun (e : Store.ientry) ->
        Store.isa_live e
        && Oodb.Obj_id.equal e.i_sub o
        && Oodb.Obj_id.equal e.i_cls c)
      (Store.isa_log t.store)
  | Fact.F_scalar { meth; recv; args; res } -> (
    match Store.scalar_lookup t.store ~meth ~recv ~args with
    | Some r -> Oodb.Obj_id.equal r res
    | None -> false)
  | Fact.F_set { meth; recv; args; res } ->
    Oodb.Obj_id.Set.mem res (Store.set_lookup t.store ~meth ~recv ~args)

(* Tombstone a fact; queue it so the cascade visits its uses. *)
let tombstone t ctx f =
  let ok =
    match f with
    | Fact.F_isa (o, c) -> Store.remove_isa t.store o c
    | Fact.F_scalar { meth; recv; args; res } ->
      Store.remove_scalar t.store ~meth ~recv ~args ~res
    | Fact.F_set { meth; recv; args; res } ->
      Store.remove_set t.store ~meth ~recv ~args ~res
  in
  if ok then begin
    Provenance.forget (Program.provenance t.p) f;
    note_remove ctx f;
    Queue.push f ctx.c_queue
  end;
  ok

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
  List.iter (fun f -> ignore (tombstone t ctx f : bool)) !garbage

(* A live fact's provenance record names support it still has. *)
let record_holds t f = function
  | Provenance.Extensional -> get_count t.edb f > 0
  | Provenance.Derived r -> (
    match Deriv_tbl.find_opt t.dedup r with
    | Some d -> List.exists (Fact.equal f) d.d_heads
    | None -> false)

(* Re-point a record that no longer holds: to [Extensional] if a
   multiplicity remains, else to a live derivation — well-founded, as the
   fact is in a non-recursive stratum (recursive heads are over-deleted
   and re-recorded). A tombstoned fact has no record. *)
let repoint t f =
  let prov = Program.provenance t.p in
  match Provenance.lookup prov f with
  | Some src when not (record_holds t f src) ->
    Provenance.forget prov f;
    if get_count t.edb f > 0 then Provenance.record prov f Extensional
    else
      Option.fold ~none:[] ~some:( ! ) (Fact_tbl.find_opt t.heads_of f)
      |> List.find_opt (fun d -> not d.d_dead)
      |> Option.iter (fun d -> Provenance.record prov f (Derived d.d_src))
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The deletion cascade.

   Killing a derivation decrements the counts of its heads. A head in a
   non-recursive stratum dies when its count reaches zero with no
   extensional support — counting is exact there, because support cannot
   be cyclic. A head in a recursive stratum is over-deleted outright
   (DRed): cyclic derivations keep each other's counts positive, so the
   count is not trusted; every remaining derivation of the head is killed
   too and the re-derivation phase restores whatever still has
   well-founded support. *)

let rec kill_deriv t ctx (d : deriv) =
  d.d_dead <- true;
  if has_regex d.d_src.rule then ctx.c_rederive <- true;
  Deriv_tbl.remove t.dedup d.d_src;
  List.iter
    (fun h ->
      bump t.counts h (-1);
      if d.d_recursive || rel_recursive t (rel_of h) then over_delete t ctx h
      else if get_count t.counts h <= 0 && get_count t.edb h <= 0 then
        ignore (tombstone t ctx h : bool);
      repoint t h)
    d.d_heads

and over_delete t ctx f =
  if get_count t.edb f <= 0 && tombstone t ctx f then
    match Fact_tbl.find_opt t.heads_of f with
    | None -> ()
    | Some ds ->
      List.iter
        (fun d ->
          if not d.d_dead then begin
            (* deleting despite remaining support: must re-derive *)
            ctx.c_rederive <- true;
            kill_deriv t ctx d
          end)
        !ds

(* A non-recursive derivation that lost a body fact may still hold via an
   alternative support set (a different isa chain, a re-asserted tuple):
   replay it and adopt the support it finds, if any. *)
let revalidate t ctx (d : deriv) =
  match Provenance.replay t.store d.d_src with
  | Some body ->
    d.d_body <- body;
    List.iter (fun bf -> push_assoc t.uses bf d) body
  | None -> kill_deriv t ctx d

let drain t ctx =
  while not (Queue.is_empty ctx.c_queue) do
    let f = Queue.pop ctx.c_queue in
    match Fact_tbl.find_opt t.uses f with
    | None -> ()
    | Some ds ->
      let affected =
        List.fold_left
          (fun acc d ->
            if
              (not d.d_dead)
              && List.exists (Fact.equal f) d.d_body
              && not (List.memq d acc)
            then d :: acc
            else acc)
          [] !ds
      in
      List.iter
        (fun d ->
          if not d.d_dead then
            if d.d_recursive then kill_deriv t ctx d else revalidate t ctx d)
        affected
  done

(* ------------------------------------------------------------------ *)
(* Fixpoint re-entry *)

let full_tracing_run t ctx =
  Fixpoint.run ~config:(Program.config t.p)
    ~provenance:(Program.provenance t.p)
    ~tracer:(record_deriv t) ~on_insert:(note_insert ctx) t.store t.strat

let delta_run t ctx baseline =
  Fixpoint.run ~config:(Program.config t.p)
    ~provenance:(Program.provenance t.p)
    ~tracer:(record_deriv t) ~on_insert:(note_insert ctx) ~from:baseline
    t.store t.strat

(* Full recompute: tombstone every live fact with no extensional support,
   drop the whole support index, and re-run the tracing fixpoint from the
   extensional store. The fallback whenever counting/DRed would be
   unsound (negation or inclusion over an affected relation, rule
   retraction) and the recovery path after a mid-batch failure. *)
let refresh t ctx =
  drop_derived t ctx;
  (* extensional facts tombstoned earlier in the batch (or by a failed
     one) but still multiplicity-positive come back, recorded as such *)
  let prov = Program.provenance t.p in
  Fact_tbl.iter
    (fun f r ->
      if !r > 0 then begin
        if not (live_in_store t f) then reinsert t f;
        Provenance.forget prov f;
        Provenance.record prov f Provenance.Extensional
      end)
    t.edb;
  Queue.clear ctx.c_queue;
  ctx.c_rederive <- false;
  Fact_tbl.reset t.counts;
  Fact_tbl.reset t.uses;
  Fact_tbl.reset t.heads_of;
  Deriv_tbl.reset t.dedup;
  full_tracing_run t ctx

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

let edb_insert t ctx (head : Ast.reference) =
  let rule = Ast.fact head in
  let changes = ref 0 in
  let asserted = ref [] in
  ignore
    (Head.execute
       ~on_insert:(fun f ->
         Provenance.record (Program.provenance t.p) f Provenance.Extensional;
         note_insert ctx f)
       ~on_assert:(fun f -> asserted := f :: !asserted)
       t.store ~env:Semantics.Valuation.Env.empty ~rule ~changes head
      : Oodb.Obj_id.t);
  List.iter
    (fun f ->
      bump t.edb f 1;
      ctx.c_edb_log <- (f, 1) :: ctx.c_edb_log)
    !asserted

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
      if get_count t.edb f = 0 then begin
        let c = get_count t.counts f in
        if c > 0 && not (rel_recursive t (rel_of f)) then
          repoint t f (* still derived: counting keeps it *)
        else if c > 0 then over_delete t ctx f
        else ignore (tombstone t ctx f : bool)
      end
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

type saved = { s_rules : Rule.t list; s_strat_dirty : bool }

(* Undo a failed batch: restore the rule set, roll the EDB multiplicities
   back, and recompute — the pre-batch model is the fixpoint of the
   pre-batch extensional store, so [refresh] restores it exactly. *)
let recover t ctx (saved : saved) =
  if saved.s_strat_dirty then begin
    t.rules <- saved.s_rules;
    recompute_strat_meta t
  end;
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

(* Split a batch into fact statements, proper rules and signature
   declarations; queries are rejected. *)
let split_batch spanned =
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
          | Ok () ->
            if r.body = [] then facts := (r.head, span) :: !facts
            else rules := (r, span) :: !rules)))
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
  let t =
    {
      p;
      store = Program.store p;
      rules =
        List.filter (fun (r : Rule.t) -> r.source.body <> []) (Program.rules p);
      strat = { Stratify.strata = [||]; rule_stratum = [] };
      stratum_of = Hashtbl.create 16;
      recursive_strata = [||];
      recursive_rels = Hashtbl.create 16;
      global_dred = false;
      counts = Fact_tbl.create 256;
      edb = Fact_tbl.create 256;
      uses = Fact_tbl.create 256;
      heads_of = Fact_tbl.create 256;
      dedup = Deriv_tbl.create 256;
      commit_hook = None;
    }
  in
  recompute_strat_meta t;
  (* register the extensional multiplicities: re-execute the program's
     fact statements (idempotent; on_assert fires on duplicates too,
     sub-path skolem facts included; an unevaluated program loads here) *)
  let prov = Program.provenance p in
  List.iter
    (fun (r : Rule.t) ->
      if r.source.body = [] then begin
        let changes = ref 0 in
        ignore
          (Head.execute
             ~on_insert:(fun f -> Provenance.record prov f Extensional)
             ~on_assert:(fun f -> bump t.edb f 1)
             t.store ~env:Semantics.Valuation.Env.empty ~rule:r.source ~changes
             r.source.head
            : Oodb.Obj_id.t)
      end)
    (Program.rules p);
  let ctx = new_ctx () in
  (* demand queries leave magic tuples and fragments recorded under
     synthesised rules, materialised or not: drop every derived fact, and
     the run re-derives and re-records them under the program's rules *)
  let fragment = Demand.magic_fact_total t.store > 0 in
  if fragment then drop_derived t ctx;
  if fragment || not (Program.materialised p) then
    ignore (Program.run p : Fixpoint.stats);
  (* one tracing pass at the fixpoint enumerates every body solution of
     every rule exactly once, populating the support index *)
  ignore (full_tracing_run t ctx : Fixpoint.stats);
  t

let assert_batch t src =
  let spanned = parse_batch src in
  let facts, new_rules, sigs = split_batch spanned in
  (* compile and re-stratify BEFORE any store write: an unstratifiable or
     invalid batch must leave no trace *)
  let compiled =
    try List.map (fun (r, span) -> Rule.compile ~span t.store r) new_rules
    with e -> raise (fail_of_exn t e)
  in
  let fact_rules =
    try
      List.map (fun (h, span) -> Rule.compile ~span t.store (Ast.fact h)) facts
    with e -> raise (fail_of_exn t e)
  in
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
    List.concat_map (fun (r : Rule.t) -> r.defines) (fact_rules @ compiled)
  in
  let gate = gate_triggered ~rules:(t.rules @ compiled) ~seed_rels in
  let ctx = new_ctx () in
  let saved = { s_rules = t.rules; s_strat_dirty = compiled <> [] } in
  let baseline = Fixpoint.watermark t.store in
  try
    List.iter (fun (h, _) -> edb_insert t ctx h) facts;
    if compiled <> [] then begin
      t.rules <- t.rules @ compiled;
      recompute_strat_meta t
    end;
    let strategy, fp =
      if facts = [] && compiled = [] then (Counting, None)
      else if gate then (Recompute, Some (refresh t ctx))
      else if compiled <> [] then
        (* a new rule needs a full first evaluation *)
        (Recompute, Some (full_tracing_run t ctx))
      else (Counting, Some (delta_run t ctx baseline))
    in
    run_commit_hook t ~retract:false ~text:src;
    finish t ctx strategy fp
  with e ->
    recover t ctx saved;
    raise (fail_of_exn t e)

let retract_batch t src =
  let spanned = parse_batch src in
  let facts, dropped_src, sigs = split_batch spanned in
  if sigs <> [] then
    rejected "signature declarations cannot be retracted";
  (* match retracted rules structurally against the live rule set *)
  let remaining = ref t.rules in
  let dropped = ref [] in
  List.iter
    (fun ((r : Ast.rule), _) ->
      match
        List.partition (fun (lr : Rule.t) -> lr.source = r) !remaining
      with
      | [], _ -> rejected "no such rule: %a" Syntax.Pretty.pp_rule r
      | matches, rest ->
        dropped := matches @ !dropped;
        remaining := rest)
    dropped_src;
  let seed_rels =
    List.concat_map (fun (r : Rule.t) -> r.defines) !dropped
    @ List.filter_map
        (fun (h, _) ->
          Option.map rel_of (Fact.of_reference t.store h))
        facts
  in
  let gate = gate_triggered ~rules:t.rules ~seed_rels in
  let use_refresh = gate || !dropped <> [] in
  let ctx = new_ctx () in
  let saved = { s_rules = t.rules; s_strat_dirty = !dropped <> [] } in
  try
    List.iter (fun (h, _) -> edb_retract t ctx h) facts;
    if !dropped <> [] then begin
      t.rules <- !remaining;
      recompute_strat_meta t
    end;
    let strategy, fp =
      if use_refresh then (Recompute, Some (refresh t ctx))
      else begin
        drain t ctx;
        if ctx.c_rederive then (Dred, Some (full_tracing_run t ctx))
        else (Counting, None)
      end
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

(* Support-index audit (chaos harness): every live derivation rests on
   live facts, counts agree with the live derivation multiset, and every
   live stored fact's provenance record names support it still has. *)
let check_support t =
  let errs = ref [] in
  let u = Store.universe t.store in
  let say fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  let pp_deriv ppf d = Syntax.Pretty.pp_rule ppf d.d_src.rule.source in
  let recount = Fact_tbl.create 256 in
  Deriv_tbl.iter
    (fun _ (d : deriv) ->
      if d.d_dead then say "dead derivation still in dedup: %a" pp_deriv d
      else begin
        List.iter (fun h -> bump recount h 1) d.d_heads;
        List.iter
          (fun bf ->
            if not (live_in_store t bf) then
              say "derivation %a rests on dead fact %a" pp_deriv d
                (Fact.pp u) bf)
          d.d_body;
        List.iter
          (fun h ->
            if not (live_in_store t h) then
              say "derivation %a heads dead fact %a" pp_deriv d (Fact.pp u) h)
          d.d_heads
      end)
    t.dedup;
  Fact_tbl.iter
    (fun f r ->
      let rc = get_count recount f in
      if !r <> rc then
        say "count mismatch for %a: recorded %d, live derivations %d"
          (Fact.pp u) f !r rc)
    t.counts;
  Fact_tbl.iter
    (fun f _ ->
      if not (Fact_tbl.mem t.counts f) then
        say "derivation of %a missing from counts" (Fact.pp u) f)
    recount;
  Fact.iter_live t.store (fun f ->
      match Provenance.lookup (Program.provenance t.p) f with
      | Some src when record_holds t f src -> ()
      | Some _ | None ->
        say "live fact %a has no record of support it still has" (Fact.pp u)
          f);
  Fact_tbl.iter
    (fun f r ->
      if !r > 0 && not (live_in_store t f) then
        say "extensional fact %a is not live in the store" (Fact.pp u) f)
    t.edb;
  List.rev !errs
