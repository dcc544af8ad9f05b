module Ast = Syntax.Ast

type t = {
  store : Oodb.Store.t;
  signatures : Oodb.Signature.t;
  facts : Rule.fact list;  (* the extensional list, in statement order *)
  rules : Rule.t list;  (* every other statement: the rules proper *)
  strat : Stratify.t;
  queries : Ast.literal list list;
  config : Fixpoint.config;
  provenance : Provenance.t;
  plans : Fixpoint.plan_cache;
      (* shared across every evaluation of this program, full and demand
         alike; a plan compiled against a smaller store re-plans through
         [plan_stale] *)
  mutable facts_loaded : bool;
  materialised : bool Atomic.t;
      (* set by every uncut [run]: the store holds the full minimal model
         from then on ([Live] keeps it so under writes), and demand
         queries answer from it. Atomic, because pool workers read it
         without a lock. *)
  mutable degraded : Budget.reason option;
      (* set when a budgeted [run] was cut short: the store holds a sound
         partial model, and answers must be surfaced as degraded *)
  shapes : (string, entry) Hashtbl.t;
      (* keyed by query skeleton ({!Demand.skeleton}), or by skeleton and
         carried constants *)
  shape_order : string Queue.t;  (* insertion order, for eviction *)
  mutable transforms : int;  (* [Demand.transform] calls *)
}

(* What a query skeleton resolves to. *)
and entry =
  | Declined of Demand.fallback  (* the transform declined: run in full *)
  | Carries of Demand.t
      (* the skeleton's transform, whose magic rules mention query
         constants: each set of those constants has an entry of its own,
         keyed by the skeleton and the constants *)
  | Prepared of prepared

(* Everything a first sight needs that does not depend on its
   constants: it instantiates the seed template, inserts the seeds and
   resumes the shape's delta rounds. *)
and prepared = {
  demand : Demand.t;  (* the transform, for the report's counts *)
  seeds : (Ast.rule * Head.t) list;  (* the seed template *)
  shape : shape;
}

(* A demand shape compiled once and re-entered on every later query of
   the same shape; entries whose non-seed rules are equal share one.
   [mark] is the relation marks at the end of its last complete run: the
   store was then closed under the shape's rules, so the next run only
   needs to propagate what arrived since. No removal can break that
   closure: only [Live] removes facts, and only from a materialised
   store, where demand runs no more. *)
and shape = {
  compiled : Demand.shape;
  key : string;  (* [Demand.t.key] *)
  prep : Fixpoint.prepared;  (* [compiled.strat], prepared *)
  mutable mark : Fixpoint.marks option;
}

exception Invalid of string

type answer = {
  columns : string list;
  rows : Oodb.Obj_id.t list list;
}

let invalid fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

(* [parse text] with a parse error reported as [Invalid]. *)
let parsed parse text =
  match parse text with
  | v -> v
  | exception Syntax.Parser.Error (pos, msg) ->
    invalid "%a: %s" Syntax.Token.pp_pos pos msg

let check_query lits =
  match Syntax.Wellformed.check_query lits with
  | Ok () -> ()
  | Error e -> invalid "ill-formed query: %a" Syntax.Wellformed.pp_error e

(* Signature declarations name classes with ground simple references. *)
let ground_object store (r : Ast.reference) =
  match r with
  | Name n -> Oodb.Store.name store n
  | Int_lit n -> Oodb.Store.int store n
  | Str_lit s -> Oodb.Store.str store s
  | Paren _ | Var _ | Path _ | Regex _ | Filter _ | Isa _ ->
    invalid "signature declarations must use ground names: %a"
      Syntax.Pretty.pp_reference r

let load_signature store signatures (cls, meth, args, result, scal) =
  let entry =
    {
      Oodb.Signature.cls = ground_object store cls;
      meth = ground_object store meth;
      arg_classes = List.map (ground_object store) args;
      result_class = ground_object store result;
      scalarity =
        (match scal with
        | Syntax.Scalarity.Scalar -> Oodb.Signature.Scalar
        | Syntax.Scalarity.Set_valued -> Oodb.Signature.Set_valued);
    }
  in
  Oodb.Signature.add signatures entry

type compiled = {
  c_store : Oodb.Store.t;
  c_signatures : Oodb.Signature.t;
  c_facts : Rule.fact list;
  c_rules : Rule.t list;
  c_queries : Ast.literal list list;
}

type invalid = Ill_formed of Syntax.Wellformed.error | Bad_signature of string

let refuse stmt why =
  match (why, stmt) with
  | Bad_signature msg, _ -> raise (Invalid msg)
  | Ill_formed e, Ast.Rule r ->
    invalid "ill-formed rule %a: %a" Syntax.Pretty.pp_rule r
      Syntax.Wellformed.pp_error e
  | Ill_formed e, Ast.Query _ ->
    invalid "ill-formed query: %a" Syntax.Wellformed.pp_error e

let compile ?(on_invalid = fun stmt _ why -> refuse stmt why) spanned =
  let store = Oodb.Store.create () in
  let signatures = Oodb.Signature.create () in
  let facts = ref [] and rules = ref [] and queries = ref [] in
  List.iter
    (fun (stmt, span) ->
      match Syntax.Wellformed.signature_of_statement stmt with
      | Some decl -> (
        try load_signature store signatures decl
        with Invalid msg -> on_invalid stmt span (Bad_signature msg))
      | None -> (
        match stmt with
        | Ast.Rule r -> (
          match Syntax.Wellformed.check_rule r with
          | Ok () -> (
            match Rule.classify ?span store r with
            | Rule.Fact f -> facts := f :: !facts
            | Rule.Rule r -> rules := r :: !rules)
          | Error e -> on_invalid stmt span (Ill_formed e))
        | Ast.Query lits -> (
          match Syntax.Wellformed.check_query lits with
          | Ok () -> queries := lits :: !queries
          | Error e -> on_invalid stmt span (Ill_formed e))))
    spanned;
  {
    c_store = store;
    c_signatures = signatures;
    c_facts = List.rev !facts;
    c_rules = List.rev !rules;
    c_queries = List.rev !queries;
  }

let of_compiled ?(config = Fixpoint.default_config) ?strat c =
  let strat =
    match strat with
    | Some s -> s
    | None -> Stratify.compute ~facts:c.c_facts c.c_store c.c_rules
  in
  {
    store = c.c_store;
    signatures = c.c_signatures;
    facts = c.c_facts;
    rules = c.c_rules;
    strat;
    queries = c.c_queries;
    config;
    provenance = Provenance.create c.c_store;
    plans = Fixpoint.plan_cache ();
    facts_loaded = false;
    materialised = Atomic.make false;
    degraded = None;
    shapes = Hashtbl.create 16;
    shape_order = Queue.create ();
    transforms = 0;
  }

let create ?config statements =
  of_compiled ?config (compile (List.map (fun s -> (s, None)) statements))

let of_string ?config text =
  let spanned = parsed Syntax.Parser.program_spanned text in
  of_compiled ?config (compile (List.map (fun (s, sp) -> (s, Some sp)) spanned))

let store t = t.store
let config t = t.config

let universe t = Oodb.Store.universe t.store
let facts t = t.facts
let rules t = t.rules
let signatures t = t.signatures
let embedded_queries t = t.queries
let strata t = t.strat.strata

(* Execute a ground head into the store, recorded as extensional. *)
let insert_fact ?(binding = [||]) t ~changes ~rule head =
  let on_insert f = Provenance.record_why t.provenance f Provenance.stated in
  ignore (Head.execute ~on_insert t.store ~binding ~rule ~changes head)

(* Execute the fact statements, in statement order, the first time;
   returns the tuples inserted. *)
let load_facts t =
  let changes = ref 0 in
  if not t.facts_loaded then begin
    t.facts_loaded <- true;
    List.iter
      (fun (f : Rule.fact) ->
        insert_fact t ~changes ~rule:f.f_source
          (Head.compile ~named:[] f.f_source.head))
      t.facts
  end;
  !changes

(* The program's config, with [budget] (when given) replacing its own. *)
let budgeted ?budget t =
  match budget with Some _ -> { t.config with budget } | None -> t.config

let run ?budget t =
  let config = budgeted ?budget t in
  let prep = Fixpoint.prepare t.strat in
  (* At jobs 1 the rules' rounds are those of a first round that ran
     the facts ahead of the rules: its second round took the facts as
     delta. A parallel first round solved every body before any fact
     went in, which is what loading the facts first gives. *)
  let since =
    if t.facts_loaded || config.jobs > 1 then None
    else Some (Fixpoint.marks prep t.store)
  in
  let fired = if t.facts_loaded then 0 else List.length t.facts in
  let loaded = load_facts t in
  let stats =
    Fixpoint.run ~config ~provenance:t.provenance ~plans:t.plans ?since
      t.store prep
  in
  stats.firings <- stats.firings + fired;
  stats.insertions <- stats.insertions + loaded;
  (match stats.Fixpoint.degraded with
  | Some _ as d -> t.degraded <- d
  | None ->
    (* a later unbudgeted (or uncut) run reached the fixpoint: the model
       is complete again *)
    t.degraded <- None;
    Atomic.set t.materialised true);
  stats

let degraded t = t.degraded

let materialised t = Atomic.get t.materialised

let provenance t = t.provenance

let query ?budget t lits =
  check_query lits;
  let q = Semantics.Flatten.literals t.store lits in
  let columns = List.map fst q.named in
  let interrupt = Fixpoint.interrupt_of budget in
  let rows =
    Semantics.Solve.named_solutions ?interrupt t.store q
  in
  let rows =
    (* a ground query answers with one empty row when entailed *)
    match (columns, rows) with
    | [], [] ->
      if
        Semantics.Solve.satisfiable ?interrupt t.store q
      then [ [] ]
      else []
    | _ -> rows
  in
  { columns; rows }

let strip_query_syntax s =
  let s = String.trim s in
  let s =
    if String.length s >= 2 && String.sub s 0 2 = "?-" then
      String.sub s 2 (String.length s - 2)
    else s
  in
  let s = String.trim s in
  if String.length s > 0 && s.[String.length s - 1] = '.' then
    String.sub s 0 (String.length s - 1)
  else s

let parse_query text = parsed Syntax.Parser.literals (strip_query_syntax text)

let query_string ?budget t text = query ?budget t (parse_query text)

let run_queries t = List.map (fun lits -> (lits, query t lits)) t.queries

let row_to_string t row =
  String.concat ", "
    (List.map (Oodb.Universe.to_string (universe t)) row)

let pp_answer t ppf answer =
  match answer.columns with
  | [] ->
    Format.fprintf ppf "%s" (if answer.rows = [] then "no" else "yes")
  | _ ->
    Format.fprintf ppf "%s@." (String.concat ", " answer.columns);
    List.iter
      (fun row -> Format.fprintf ppf "%s@." (row_to_string t row))
      answer.rows

let check_types t ~mode = Oodb.Signature.check t.store t.signatures ~mode

let lint_types t =
  Typecheck.check_rules ~facts:t.facts t.store t.signatures t.rules

let explain ?predicted t lits =
  let q = Semantics.Flatten.literals t.store lits in
  Semantics.Solve.explain ?predicted t.store q

let explain_string ?predicted t text = explain ?predicted t (parse_query text)

(* ------------------------------------------------------------------ *)
(* Demand-driven evaluation: magic-sets transform, query-seeded fixpoint.
   See {!Demand}. The transformed fragment accumulates in the program's
   own store — monotone, so repeated demand queries (and a later full
   {!run}) compose soundly. Once a {!run} has materialised the full
   model, demand queries read it and evaluate nothing. *)

type demand_report = {
  d_fallback : Demand.fallback option;
  d_stats : Fixpoint.stats;
  d_resumed : bool;
  d_seeds : int;
  d_magic_rules : int;
  d_guarded : int;
  d_unguarded : int;
  d_dropped : int;
  d_magic_facts : int;
}

(* Entries kept; the oldest is retired past this. A shape differs per
   constant only where a constant sits in a magic rule (a query such as
   [a0\[boss -> X\], X\[up ->> \{Y\}\]]), so a client can mint entries
   at will and the table must stay bounded. *)
let max_shapes = 256

let transform t lits =
  t.transforms <- t.transforms + 1;
  Demand.transform t.store t.rules lits

let demand_transforms t = t.transforms

(* Retire the oldest entry, and its shape's plans unless another entry
   still runs that shape. *)
let evict_oldest t =
  let old = Queue.pop t.shape_order in
  let gone = Hashtbl.find_opt t.shapes old in
  Hashtbl.remove t.shapes old;
  match gone with
  | Some (Prepared p) ->
    let shared =
      Hashtbl.fold
        (fun _ e acc ->
          acc || match e with Prepared q -> q.shape == p.shape | _ -> false)
        t.shapes false
    in
    if not shared then
      Fixpoint.forget_plans t.plans p.shape.compiled.Demand.generated
  | Some (Declined _ | Carries _) | None -> ()

let add_entry t key e =
  if Queue.length t.shape_order >= max_shapes then evict_oldest t;
  Hashtbl.replace t.shapes key e;
  Queue.push key t.shape_order

(* The shape [d]'s non-seed rules compile to: an entry's, when one
   already runs the same rules, so its mark carries over. *)
let shape_for t (d : Demand.t) =
  let running =
    Hashtbl.fold
      (fun _ e acc ->
        match (acc, e) with
        | None, Prepared p when String.equal p.shape.key d.key -> Some p.shape
        | _ -> acc)
      t.shapes None
  in
  match running with
  | Some sh -> sh
  | None ->
    let compiled = Demand.compile t.store d in
    {
      compiled;
      key = d.key;
      prep = Fixpoint.prepare compiled.strat;
      mark = None;
    }

let prepare t (sk : Demand.skeleton) d =
  {
    demand = d;
    seeds = Demand.seed_template d ~slots:(Array.length sk.sk_consts);
    shape = shape_for t d;
  }

(* The prepared entry a query resolves to, made on a miss: one transform
   per skeleton, and for a skeleton whose magic rules carry constants,
   one specialisation per set of those constants. *)
let entry_for t (sk : Demand.skeleton) =
  let fresh key d =
    let p = prepare t sk d in
    add_entry t key (Prepared p);
    p
  in
  let specialised d =
    let key = sk.sk_key ^ Demand.carried_key d sk.sk_consts in
    match Hashtbl.find_opt t.shapes key with
    | Some (Prepared p) -> p
    | Some (Declined _ | Carries _) | None ->
      fresh key (Demand.specialise d sk.sk_consts)
  in
  match Hashtbl.find_opt t.shapes sk.sk_key with
  | Some (Prepared p) -> Ok p
  | Some (Carries d) -> Ok (specialised d)
  | Some (Declined fb) -> Error fb
  | None -> (
    match transform t sk.sk_lits with
    | Error fb ->
      add_entry t sk.sk_key (Declined fb);
      Error fb
    | Ok d when d.carried <> [] ->
      add_entry t sk.sk_key (Carries d);
      Ok (specialised d)
    | Ok d -> Ok (fresh sk.sk_key d))

let plan_count t = Fixpoint.plan_count t.plans

(* The counters of a demand query that evaluated nothing. *)
let idle_stats () =
  {
    Fixpoint.rounds = 0;
    rule_evaluations = 0;
    firings = 0;
    insertions = 0;
    strata = 0;
    degraded = None;
  }

let constant_objects t (sk : Demand.skeleton) =
  Array.map (ground_object t.store) sk.sk_consts

(* Insert the query's seeds and run its shape's fixpoint, resumed from
   the shape's mark when it has one; returns the stats and whether it
   resumed. *)
let demand_fixpoint ?budget t (p : prepared) binding =
  ignore (load_facts t : int);
  let sh = p.shape in
  let from = sh.mark in
  let changes = ref 0 in
  List.iter (fun (rule, head) -> insert_fact ~binding t ~changes ~rule head) p.seeds;
  let stats =
    Fixpoint.run ~config:(budgeted ?budget t) ~provenance:t.provenance
      ~plans:t.plans ?from t.store sh.prep
  in
  (match stats.Fixpoint.degraded with
  | Some _ as dg ->
    (* a budget-cut run left a sound but possibly incomplete fragment:
       flag it exactly as a cut full run would be, and make the next
       query of this shape start over with a full first round *)
    t.degraded <- dg;
    sh.mark <- None
  | None -> sh.mark <- Some (Fixpoint.marks sh.prep t.store));
  (stats, from <> None)

let query_demand ?budget t lits =
  check_query lits;
  let sk = Demand.skeleton lits in
  let fallback, stats, resumed, counted =
    if materialised t then
      (* the model answers; only a declined transform is reported *)
      let fallback =
        match Hashtbl.find_opt t.shapes sk.sk_key with
        | Some (Declined fb) -> Some fb
        | Some (Carries _ | Prepared _) -> None
        | None ->
          Result.fold ~ok:(fun _ -> None) ~error:Option.some
            (transform t sk.sk_lits)
      in
      (fallback, idle_stats (), false, None)
    else
      match entry_for t sk with
      | Error fb ->
        (* negation / inclusion / hilog strata make the transform
           unsound: fall back to honest full materialisation *)
        (Some fb, run ?budget t, false, None)
      | Ok p ->
        let stats, resumed =
          demand_fixpoint ?budget t p (constant_objects t sk)
        in
        (None, stats, resumed, Some p.demand)
  in
  let answer = query ?budget t lits in
  let count f = Option.fold ~none:0 ~some:f counted in
  ( answer,
    {
      d_fallback = fallback;
      d_stats = stats;
      d_resumed = resumed;
      d_seeds = count (fun d -> Demand.seed_count d sk.sk_consts);
      d_magic_rules = count (fun d -> d.n_magic);
      d_guarded = count (fun d -> d.n_guarded);
      d_unguarded = count (fun d -> d.n_unguarded);
      d_dropped = count (fun d -> d.n_dropped);
      d_magic_facts = Demand.magic_fact_total t.store;
    } )

let query_demand_string ?budget t text =
  query_demand ?budget t (parse_query text)

let demand_entry t lits =
  check_query lits;
  let sk = Demand.skeleton lits in
  match entry_for t sk with
  | Error fb -> Error fb
  | Ok p ->
    let binding = constant_objects t sk in
    let seeds =
      List.concat_map
        (fun (_, head) -> fst (Head.asserts t.store ~binding head))
        p.seeds
    in
    let rules =
      Array.to_list p.shape.compiled.strat.strata
      |> List.concat_map (List.map (fun (r : Rule.t) -> r.source))
    in
    Ok (seeds, rules)

let explain_demand t lits =
  check_query lits;
  match transform t lits with
  | Error fb ->
    [
      Printf.sprintf
        "%% demand transform unavailable (%s): full materialisation would \
         run"
        (Demand.fallback_to_string fb);
    ]
  | Ok d -> Demand.listing t.store d

let explain_demand_string t text = explain_demand t (parse_query text)

let why ?budget t reference =
  match Fact.of_reference t.store reference with
  | None ->
    invalid
      "why expects a ground membership or method fact, e.g. a : c or \
       x[m -> y]"
  | Some fact ->
    let interrupt = Fixpoint.interrupt_of budget in
    Provenance.explain ?interrupt t.store t.provenance fact

let why_string ?budget t text =
  why ?budget t (parsed Syntax.Parser.reference (strip_query_syntax text))

let verify_model t =
  let rec go = function
    | [] -> Ok ()
    | (rule : Ast.rule) :: rest -> (
      match Semantics.Entail.find_violation t.store rule with
      | None -> go rest
      | Some cex ->
        let msg =
          String.concat ", "
            (List.map
               (fun (v, o) ->
                 v ^ " = " ^ Oodb.Universe.to_string (universe t) o)
               cex)
        in
        Error (rule, msg))
  in
  go
    (List.map (fun (f : Rule.fact) -> f.f_source) t.facts
    @ List.map (fun (r : Rule.t) -> r.source) t.rules)
