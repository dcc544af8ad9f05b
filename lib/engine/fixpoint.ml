module Ir = Semantics.Ir
module Store = Oodb.Store
module Tbl = Oodb.Obj_id.Tbl

type mode = Naive | Seminaive

type config = {
  mode : mode;
  hilog_virtual : bool;
  max_rounds : int;
  max_objects : int;
  jobs : int;
  budget : Budget.t option;
}

(* PATHLOG_JOBS flips the default degree of parallelism process-wide —
   how CI runs the whole test corpus through the parallel evaluator
   without touching every call site. *)
let default_jobs =
  match Sys.getenv_opt "PATHLOG_JOBS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n >= 1 -> n | Some _ | None -> 1)
  | None -> 1

let default_config =
  {
    mode = Seminaive;
    hilog_virtual = false;
    max_rounds = 10_000;
    max_objects = 1_000_000;
    jobs = default_jobs;
    budget = None;
  }

type stats = {
  mutable rounds : int;
  mutable rule_evaluations : int;
  mutable firings : int;
  mutable insertions : int;
  strata : int;
  mutable degraded : Budget.reason option;
      (* the budget that cut the run short, if any; the store then holds a
         sound partial model *)
}

let pp_stats ppf s =
  Format.fprintf ppf
    "strata: %d, rounds: %d, rule evaluations: %d, firings: %d, insertions: \
     %d"
    s.strata s.rounds s.rule_evaluations s.firings s.insertions;
  match s.degraded with
  | None -> ()
  | Some r -> Format.fprintf ppf ", DEGRADED (%a)" Budget.pp_reason r

(* All class memberships share the isa edge log; the per-class refinement
   only matters to the stratifier, so deltas normalise R_isa_c to R_isa. *)
let norm_rel = Ir.norm_rel

let rel_length store = function
  | Ir.R_isa | Ir.R_isa_c _ -> Oodb.Vec.length (Store.isa_log store)
  | Ir.R_scalar m -> Oodb.Vec.length (Store.scalar_bucket store m)
  | Ir.R_set m -> Oodb.Vec.length (Store.set_bucket store m)
  | Ir.R_any -> 0

(* ------------------------------------------------------------------ *)
(* Interned relations: relevance and delta checks run on dense int ids
   and plain arrays instead of per-round Rel_map snapshots and List.mem
   scans over structural relation values. *)

module Interner = struct
  type t = {
    ids : int Tbl.t;  (* [key rel] -> id *)
    mutable rels : Ir.rel array;  (* id -> rel *)
    mutable count : int;
  }

  let create () =
    {
      ids = Tbl.create 64;
      rels = Array.make 16 Ir.R_any;
      count = 0;
    }

  (* A relation as one int: the object in the high bits, the kind in the
     low two. *)
  let key : Ir.rel -> int = function
    | R_isa -> 0
    | R_any -> 1
    | R_scalar m -> (m lsl 2) lor 2
    | R_set m -> (m lsl 2) lor 3
    | R_isa_c c -> (c + 1) lsl 2

  let intern t r =
    let k = key r in
    match Tbl.find_opt t.ids k with
    | Some id -> id
    | None ->
      let id = t.count in
      if id >= Array.length t.rels then begin
        let rels' = Array.make (2 * Array.length t.rels) Ir.R_any in
        Array.blit t.rels 0 rels' 0 id;
        t.rels <- rels'
      end;
      t.rels.(id) <- r;
      Tbl.add t.ids k id;
      t.count <- id + 1;
      id
end

(* Current length of every relation present in the store, indexed by
   interned id; relations first seen now (new methods appear as rules
   derive into them) get fresh ids, so the array grows monotonically.
   Lengths are raw bucket/log lengths, dead entries included, so they
   are append-monotone. *)
let snapshot itn store =
  ignore (Interner.intern itn Ir.R_isa : int);
  List.iter
    (fun m -> ignore (Interner.intern itn (Ir.R_scalar m) : int))
    (Store.scalar_meths store);
  List.iter
    (fun m -> ignore (Interner.intern itn (Ir.R_set m) : int))
    (Store.set_meths store);
  let lens = Array.make itn.Interner.count 0 in
  for id = 0 to itn.Interner.count - 1 do
    lens.(id) <- rel_length store itn.Interner.rels.(id)
  done;
  lens

(* A relation interned after the marks were taken reads as 0: its whole
   bucket is delta. *)
let len_at marks id = if id < Array.length marks then marks.(id) else 0

(* A rule with its relation sets pre-interned. *)
type crule = {
  rule : Rule.t;
  read_ids : int array;  (* normalised [reads] *)
  head_read_ids : int array;  (* normalised [head_reads] *)
  seed_ids : (int * int) array;  (* seedable (relation id, atom index) *)
  seed_rel_ids : int array;  (* distinct relation ids of [seed_ids] *)
}

let crule_of itn (rule : Rule.t) =
  let intern r = Interner.intern itn (norm_rel r) in
  let read_ids = Array.of_list (List.map intern rule.reads) in
  let head_read_ids = Array.of_list (List.map intern rule.head_reads) in
  let seed_ids =
    Array.of_list (List.map (fun (r, i) -> (intern r, i)) rule.seedable)
  in
  let seed_rel_ids =
    Array.fold_left
      (fun acc (r, _) -> if List.mem r acc then acc else r :: acc)
      [] seed_ids
    |> Array.of_list
  in
  { rule; read_ids; head_read_ids; seed_ids; seed_rel_ids }

(* A stratified program with its relations interned once: every run of
   it reuses the interner and the [crule]s, and its marks are plain
   arrays over the interned ids. One interner serves every stratum, so
   marks taken anywhere index every stratum alike. Runs of one prepared
   program must not overlap: the interner grows as the store gains
   methods. *)
type prepared = { itn : Interner.t; crules : crule list array }

let prepare (strat : Stratify.t) =
  let itn = Interner.create () in
  { itn; crules = Array.map (List.map (crule_of itn)) strat.strata }

type marks = int array

let marks p store = snapshot p.itn store

(* ------------------------------------------------------------------ *)
(* Compiled-plan cache: one plan per (rule uid, seed atom), reused across
   rounds and strata — and, when the caller passes a shared cache, across
   whole runs; recompiled when the store has grown enough that the cost
   ranking is likely stale. Full and demand runs share the cache without
   sharing plans: the demand transform compiles its magic and guarded
   rules afresh, so they have uids of their own. *)


(* keyed by [Store.pack uid (seed_atom + 1)], 0 for the unseeded plan *)
type plan_cache = Semantics.Solve.plan Tbl.t

let plan_cache () : plan_cache = Tbl.create 64

let plan_count (cache : plan_cache) = Tbl.length cache

let forget_plans (cache : plan_cache) uids =
  Tbl.filter_map_inplace
    (fun key p -> if List.mem (key lsr 31) uids then None else Some p)
    cache

let plan_for (cache : plan_cache) store (rule : Rule.t) seed =
  let seed_idx =
    match seed with Some s -> s.Semantics.Solve.seed_atom | None -> -1
  in
  let key = Store.pack rule.uid (seed_idx + 1) in
  match Tbl.find_opt cache key with
  | Some p when not (Semantics.Solve.plan_stale store p) -> p
  | Some _ | None ->
    let p =
      Semantics.Solve.compile_plan
        ?seed_atom:(if seed_idx >= 0 then Some seed_idx else None)
        store rule.body
    in
    Tbl.replace cache key p;
    p

(* The solver-side cooperative hook: polls the budget (cancellation +
   deadline) and the fault registry's solver-step point. [None] when
   neither is armed, so the common case costs nothing per poll. *)
let interrupt_of budget =
  match (budget, Fault.enabled ()) with
  | None, false -> None
  | None, true -> Some (fun () -> Fault.hit Fault.Solver_step)
  | Some b, false -> Some (fun () -> Budget.check b)
  | Some b, true ->
    Some
      (fun () ->
        Fault.hit Fault.Solver_step;
        Budget.check b)

(* Where a run's insertions go: provenance and the caller's hook. One
   sink serves a whole run and holds the firing in progress, so a firing
   allocates no callback of its own; the derivation record is built at
   the firing's first insertion and shared by the rest. *)
type sink = {
  stats : stats;
  store : Store.t;
  provenance : Provenance.t option;
  on_insert : (Fact.t -> unit) option;
  mutable hook : (Fact.t -> unit) option;  (* [None]: nothing to call *)
  mutable rule : Rule.t;
  mutable binding : Oodb.Obj_id.t array;
  mutable source : Provenance.source;
  mutable built : bool;  (* [source] is this firing's *)
}

let sink_insert s fact =
  (match s.provenance with
  | None -> ()
  | Some prov ->
    if not s.built then begin
      s.source <-
        (if s.rule.source.body = [] then Provenance.Extensional
         else Provenance.Derived { Provenance.rule = s.rule; binding = s.binding });
      s.built <- true
    end;
    Provenance.record prov fact s.source);
  match s.on_insert with Some f -> f fact | None -> ()

let sink ?provenance ?on_insert stats store rule =
  let s =
    {
      stats;
      store;
      provenance;
      on_insert;
      hook = None;
      rule;
      binding = [||];
      source = Provenance.Extensional;
      built = false;
    }
  in
  if Option.is_some provenance || Option.is_some on_insert then
    s.hook <- Some (sink_insert s);
  s

(* Execute the rule head under one body solution, recording provenance
   and counting insertions; shared by the sequential path and the
   parallel merge phase. The solver's [binding] is fresh per solution,
   so the firing's derivation record keeps it uncopied. *)
let fire s (rule : Rule.t) binding changes =
  s.stats.firings <- s.stats.firings + 1;
  s.rule <- rule;
  s.binding <- binding;
  s.built <- false;
  let before = !changes in
  ignore
    (Head.execute ?on_insert:s.hook s.store ~binding ~rule:rule.source
       ~changes rule.head);
  s.stats.insertions <- s.stats.insertions + (!changes - before)

(* Evaluate one rule, optionally seeded, executing the head on every body
   solution. *)
let evaluate ?interrupt config plans sink (rule : Rule.t) seed changes =
  sink.stats.rule_evaluations <- sink.stats.rule_evaluations + 1;
  let plan = plan_for plans sink.store rule seed in
  Semantics.Solve.iter ~hilog_virtual:config.hilog_virtual ?interrupt ?seed
    ~plan sink.store rule.body
    ~f:(fun binding -> fire sink rule binding changes)

(* ------------------------------------------------------------------ *)
(* Domain-parallel rounds.

   A round's work is a list of (rule, seed) evaluation tasks, fixed up
   front from the delta marks. With [jobs = 1] the tasks run in order,
   each executing its head immediately, so derivations made by an earlier
   rule are visible to later rules within the same round (Gauss-Seidel) —
   bit-identical to the historical sequential engine. With [jobs > 1] the
   round runs in two phases: every task solves its body against the store
   {e as left by the previous merge} (the store is quiescent, so reads
   need no locks) into a private production buffer, then a single-threaded
   merge executes heads in task order, then discovery order — a
   deterministic schedule (Jacobi). Both schedules reach the same minimal
   model: evaluation is monotone and skolems are keyed by (method,
   receiver, args), so the derived fact set is confluent; only round
   counts and insertion interleavings differ. *)

type task = {
  t_rule : Rule.t;
  t_seed : Semantics.Solve.seed option;
  t_out : Oodb.Obj_id.t array Oodb.Vec.t;  (* body solutions found *)
}

let task rule seed =
  { t_rule = rule; t_seed = seed; t_out = Oodb.Vec.create () }

(* The parallel phases of a round: solve every task's body, then merge
   the heads in task order. *)
let run_parallel ?interrupt config plans pool sink tasks changes =
  let store = sink.store in
  let tasks = Array.of_list tasks in
  (* Plans come from the shared cache, so compile them before going
     parallel; the cache is not synchronised. *)
  let task_plans =
    Array.map (fun t -> plan_for plans store t.t_rule t.t_seed) tasks
  in
  sink.stats.rule_evaluations <-
    sink.stats.rule_evaluations + Array.length tasks;
  Dpool.run pool (Array.length tasks) (fun i ->
      (* each worker re-checks the budget between task claims, so a
         cancellation set on any domain stops the whole batch: the
         raising task records the failure and Dpool abandons the
         unclaimed remainder *)
      (match config.budget with Some b -> Budget.check b | None -> ());
      let t = tasks.(i) in
      Semantics.Solve.iter ~hilog_virtual:config.hilog_virtual ?interrupt
        ?seed:t.t_seed ~plan:task_plans.(i) store t.t_rule.body
        ~f:(fun binding -> Oodb.Vec.push t.t_out binding));
  Array.iter
    (fun t ->
      Oodb.Vec.iter (fun binding -> fire sink t.t_rule binding changes) t.t_out)
    tasks

let check_budget config stats store stratum_rounds =
  if stratum_rounds > config.max_rounds then
    raise
      (Err.Diverged
         (Printf.sprintf "stratum exceeded %d rounds" config.max_rounds));
  let card = Oodb.Universe.cardinality (Store.universe store) in
  if card > config.max_objects then
    raise
      (Err.Diverged
         (Printf.sprintf
            "universe grew past %d objects (likely unbounded virtual-object \
             creation)"
            config.max_objects));
  match config.budget with
  | None -> ()
  | Some b -> Budget.check_caps b ~derivations:stats.firings ~objects:card

let run_stratum ?from ?since ?interrupt config plans pool sink itn crules =
  let store = sink.store and stats = sink.stats in
  (* A round's (rule, seed) tasks are fixed by the marks at its start and
     taken in order: without a pool each is evaluated as it is taken,
     with one they are queued for the round's parallel phases. *)
  let changes = ref 0 in
  let queued = ref [] in
  let take rule seed =
    match pool with
    | None ->
      (match config.budget with Some b -> Budget.check b | None -> ());
      evaluate ?interrupt config plans sink rule seed changes
    | Some _ -> queued := task rule seed :: !queued
  in
  let end_round () =
    (match pool with
    | None -> ()
    | Some pool ->
      let tasks = List.rev !queued in
      queued := [];
      run_parallel ?interrupt config plans pool sink tasks changes);
    let grew = !changes > 0 in
    changes := 0;
    grew
  in
  (* marks at the start of the previous round: the delta a seeded atom
     scans starts there. With a [from] baseline the marks start at the
     caller's marks instead of the current lengths, so the first round is
     an ordinary semi-naive delta round over everything inserted since
     the baseline — incremental maintenance re-enters the fixpoint
     here. *)
  let start = match from with Some _ -> from | None -> since in
  let prev_marks =
    ref (match start with None -> snapshot itn store | Some m -> m)
  in
  let prev_epoch =
    ref (match start with None -> Store.epoch store | Some _ -> -1)
  in
  let round = ref 0 in
  let continue = ref true in
  (* round 1: full evaluation of every rule *)
  let first_round () =
    incr round;
    stats.rounds <- stats.rounds + 1;
    List.iter (fun (cr : crule) -> take cr.rule None) crules;
    end_round ()
  in
  let next_round () =
    incr round;
    stats.rounds <- stats.rounds + 1;
    check_budget config stats store !round;
    (* the epoch is bumped on every insertion, so an epoch unchanged since
       [prev_marks] was taken means no relation grew — skip the
       per-relation scan entirely *)
    let now_epoch = Store.epoch store in
    if now_epoch = !prev_epoch then false
    else begin
      let now = snapshot itn store and prev = !prev_marks in
      let is_changed id = now.(id) > len_at prev id in
      let any_changed = ref false in
      Array.iteri (fun id _ -> if is_changed id then any_changed := true) now;
      if not !any_changed then false
      else begin
        (match config.mode with
        | Naive -> List.iter (fun (cr : crule) -> take cr.rule None) crules
        | Seminaive ->
          List.iter
            (fun (cr : crule) ->
              let rule = cr.rule in
              if rule.reads_any || Array.exists is_changed cr.read_ids then
                (* a seeded task re-runs only the firings that read the
                   delta through its atom; a relation the head evaluates
                   also changes the heads of older firings *)
                if
                  rule.reads_any
                  || Array.exists is_changed cr.head_read_ids
                  || Array.exists
                       (fun r ->
                         is_changed r && not (Array.mem r cr.seed_rel_ids))
                       cr.read_ids
                then take rule None
                else
                  Array.iter
                    (fun (rel_id, idx) ->
                      if is_changed rel_id then
                        take rule
                          (Some
                             {
                               Semantics.Solve.seed_atom = idx;
                               seed_from = len_at prev rel_id;
                             }))
                    cr.seed_ids)
            crules);
        let grew = end_round () in
        prev_marks := now;
        prev_epoch := now_epoch;
        grew
      end
    end
  in
  (* with a baseline the "first full round" already happened when the
     stratum was first evaluated; everything since is delta *)
  continue := (match from with None -> first_round () | Some _ -> true);
  while !continue do
    continue := next_round ()
  done

let run ?(config = default_config) ?provenance ?on_insert ?from ?since
    ?plans store (p : prepared) =
  let stats =
    {
      rounds = 0;
      rule_evaluations = 0;
      firings = 0;
      insertions = 0;
      strata = Array.length p.crules;
      degraded = None;
    }
  in
  let interrupt = interrupt_of config.budget in
  let plans =
    match plans with Some p -> p | None -> (plan_cache () : plan_cache)
  in
  let pool = if config.jobs > 1 then Some (Dpool.create config.jobs) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Dpool.shutdown pool)
    (fun () ->
      (* A budget cutting the run short is degradation, not failure: the
         store holds the sound prefix of the minimal model derived so far
         (evaluation is monotone), flagged in [stats.degraded]. The hard
         divergence guards keep raising {!Err.Diverged}. *)
      try
        Array.iteri
          (fun i -> function
            | [] -> ()
            | (first : crule) :: _ as crules ->
              let sink = sink ?provenance ?on_insert stats store first.rule in
              let since = if i = 0 then since else None in
              run_stratum ?from ?since ?interrupt config plans pool sink p.itn
                crules)
          p.crules
      with Budget.Exhausted reason -> stats.degraded <- Some reason);
  stats
