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

(* Relation watermarks: raw bucket/log lengths (dead entries included —
   lengths are append-monotone). A method first seen later defaults to 0,
   i.e. its whole bucket is delta. *)
let watermark store =
  let isa = Oodb.Vec.length (Store.isa_log store) in
  let lengths meths bucket =
    let tbl = Tbl.create 32 in
    List.iter
      (fun m ->
        Tbl.replace tbl m (Oodb.Vec.length (bucket store m)))
      meths;
    fun m -> Option.value ~default:0 (Tbl.find_opt tbl m)
  in
  let sc = lengths (Store.scalar_meths store) Store.scalar_bucket in
  let st = lengths (Store.set_meths store) Store.set_bucket in
  fun (r : Ir.rel) ->
    match r with
    | Ir.R_isa | Ir.R_isa_c _ -> isa
    | Ir.R_scalar m -> sc m
    | Ir.R_set m -> st m
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
   derive into them) get fresh ids, so the array grows monotonically. *)
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

let len_at marks id = if id < Array.length marks then marks.(id) else 0

(* A rule with its relation sets pre-interned, computed once per stratum. *)
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

(* Execute the rule head under one body solution, recording provenance
   and counting insertions; shared by the sequential path and the
   parallel merge phase. The solver's [binding] is fresh per solution,
   so the firing's derivation record keeps it uncopied. *)
let fire ?provenance ?(on_insert = fun _ -> ()) stats store (rule : Rule.t)
    binding changes =
  stats.firings <- stats.firings + 1;
  let on_insert =
    match provenance with
    | None -> on_insert
    | Some prov ->
      let source =
        if rule.source.body = [] then Provenance.Extensional
        else Provenance.Derived { Provenance.rule; binding }
      in
      fun fact ->
        Provenance.record prov fact source;
        on_insert fact
  in
  let before = !changes in
  ignore
    (Head.execute ~on_insert store ~binding ~rule:rule.source ~changes
       rule.head);
  stats.insertions <- stats.insertions + (!changes - before)

(* Evaluate one rule, optionally seeded, executing the head on every body
   solution. *)
let evaluate ?provenance ?on_insert ?interrupt config plans stats
    store (rule : Rule.t) seed changes =
  stats.rule_evaluations <- stats.rule_evaluations + 1;
  let plan = plan_for plans store rule seed in
  Semantics.Solve.iter ~hilog_virtual:config.hilog_virtual ?interrupt ?seed
    ~plan store rule.body
    ~f:(fun binding ->
      fire ?provenance ?on_insert stats store rule binding changes)

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

let run_tasks ?provenance ?on_insert ?interrupt config plans pool
    stats store tasks changes =
  match (pool : Dpool.t option) with
  | None ->
    List.iter
      (fun t ->
        (match config.budget with Some b -> Budget.check b | None -> ());
        evaluate ?provenance ?on_insert ?interrupt config plans stats
          store t.t_rule t.t_seed changes)
      tasks
  | Some pool ->
    let tasks = Array.of_list tasks in
    (* Plans come from the shared cache, so compile them before going
       parallel; the cache is not synchronised. *)
    let task_plans =
      Array.map (fun t -> plan_for plans store t.t_rule t.t_seed) tasks
    in
    stats.rule_evaluations <- stats.rule_evaluations + Array.length tasks;
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
        Oodb.Vec.iter
          (fun binding ->
            fire ?provenance ?on_insert stats store t.t_rule binding
              changes)
          t.t_out)
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

let run_stratum ?provenance ?on_insert ?from ?interrupt config plans
    pool stats store rules =
  let itn = Interner.create () in
  let crules = List.map (crule_of itn) rules in
  (* marks at the start of the previous round: the delta a seeded atom
     scans starts there. With a [from] baseline the marks start at the
     caller's watermarks instead of the current lengths, so the first
     round is an ordinary semi-naive delta round over everything inserted
     since the baseline — incremental maintenance re-enters the fixpoint
     here. *)
  let prev_marks =
    ref
      (match from with
      | None -> snapshot itn store
      | Some baseline ->
        ignore (snapshot itn store : int array);
        Array.init itn.Interner.count (fun id ->
            baseline itn.Interner.rels.(id)))
  in
  let prev_epoch = ref (match from with None -> Store.epoch store | Some _ -> -1) in
  let round = ref 0 in
  let continue = ref true in
  (* round 1: full evaluation of every rule *)
  let first_round () =
    incr round;
    stats.rounds <- stats.rounds + 1;
    let changes = ref 0 in
    run_tasks ?provenance ?on_insert ?interrupt config plans pool
      stats store
      (List.map (fun r -> task r None) rules)
      changes;
    !changes > 0
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
      let now = snapshot itn store in
      let any_changed = ref false in
      let changed =
        Array.init (Array.length now) (fun id ->
            let c = now.(id) > len_at !prev_marks id in
            if c then any_changed := true;
            c)
      in
      let is_changed id = id < Array.length changed && changed.(id) in
      if not !any_changed then false
      else begin
        let changes = ref 0 in
        let tasks =
          match config.mode with
          | Naive -> List.map (fun r -> task r None) rules
          | Seminaive ->
            List.concat_map
              (fun cr ->
                let rule = cr.rule in
                let relevant =
                  rule.reads_any || Array.exists is_changed cr.read_ids
                in
                if not relevant then []
                else begin
                  (* a seeded task re-runs only the firings that read
                     the delta through its atom; a relation the head
                     evaluates also changes the heads of older firings *)
                  let unseedable_change =
                    rule.reads_any
                    || Array.exists is_changed cr.head_read_ids
                    || Array.exists
                         (fun r ->
                           is_changed r
                           && not (Array.exists (Int.equal r) cr.seed_rel_ids))
                         cr.read_ids
                  in
                  if unseedable_change then [ task rule None ]
                  else
                    Array.to_list cr.seed_ids
                    |> List.filter_map (fun (rel_id, idx) ->
                           if is_changed rel_id then
                             Some
                               (task rule
                                  (Some
                                     {
                                       Semantics.Solve.seed_atom = idx;
                                       seed_from = len_at !prev_marks rel_id;
                                     }))
                           else None)
                end)
              crules
        in
        run_tasks ?provenance ?on_insert ?interrupt config plans
          pool stats store tasks changes;
        prev_marks := now;
        prev_epoch := now_epoch;
        !changes > 0
      end
    end
  in
  if rules <> [] then begin
    (* with a baseline the "first full round" already happened when the
       stratum was first evaluated; everything since is delta *)
    continue := (match from with None -> first_round () | Some _ -> true);
    while !continue do
      continue := next_round ()
    done
  end

let run ?(config = default_config) ?provenance ?on_insert ?from
    ?plans store (strat : Stratify.t) =
  let stats =
    {
      rounds = 0;
      rule_evaluations = 0;
      firings = 0;
      insertions = 0;
      strata = Array.length strat.strata;
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
        Array.iter
          (fun rules ->
            run_stratum ?provenance ?on_insert ?from ?interrupt
              config plans pool stats store rules)
          strat.strata
      with Budget.Exhausted reason -> stats.degraded <- Some reason);
  stats
