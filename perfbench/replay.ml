(* In-process replays of the seeded operations against each layer's
   public functions. Each replay mirrors the server's request path for
   its workload step by step — admission, cache, solve and reply
   rendering; the demand transform; the analysis gate, Live maintenance,
   WAL append, snapshot cadence and subscription re-evaluation — with a
   span around every layer call. Untraced, the same code is the
   correctness oracle for replies that depend on the replayed state. *)

open Pathlog

(* Payload lines of a QUERY reply, as the server renders them. *)
let answer_lines p (a : Program.answer) =
  match a.columns with
  | [] -> [ (if a.rows = [] then "no" else "yes") ]
  | columns ->
    let u = Program.universe p in
    String.concat "\t" columns
    :: List.map
         (fun row -> String.concat "\t" (List.map (Universe.to_string u) row))
         a.rows

let why_lines p q =
  match Program.why_string p q with
  | Some proof ->
    String.split_on_char '\n'
      (Format.asprintf "%a" (Provenance.pp_proof (Program.universe p)) proof)
  | None -> [ "not in the model" ]

(* A reply's identity for comparison: rows are a set, so QUERY payloads
   are compared with their rows sorted; WHY proofs in order. *)
let digest op lines =
  match (op, lines) with
  | Gen.Query _, header :: rows ->
    Digest.to_hex
      (Digest.string (String.concat "\n" (header :: List.sort compare rows)))
  | _ -> Digest.to_hex (Digest.string (String.concat "\n" lines))

let reply_digest op = function
  | Protocol.Ok lines -> Some (digest op lines)
  | Protocol.Degraded _ | Protocol.Busy _ | Protocol.Err _ | Protocol.Pong ->
    None

(* The answer to a read request on the program's current model. *)
let answer p op =
  match op with
  | Gen.Query q -> digest op (answer_lines p (Program.query_string p q))
  | Gen.Why q -> digest op (why_lines p q)
  | Gen.Assert _ | Gen.Retract _ -> invalid_arg "Replay.answer"

(* Run [ops] as operations [first..]; returns each operation's wall time,
   taken outside its root span. *)
let run_ops tr ~first ops f =
  let walls = Array.make (Array.length ops) 0. in
  Array.iteri
    (fun i op ->
      let name = "op." ^ Gen.verb op and run () = ignore (Sys.opaque_identity (f op)) in
      let t0 = Trace.now () in
      Trace.operation tr (first + i) name run;
      walls.(i) <- Trace.now () -. t0)
    ops;
  walls

let render tr reply =
  let s = Trace.span tr "protocol.render" (fun () -> Protocol.render_reply reply) in
  ignore (Sys.opaque_identity s)

(* Durations (or self times) of every span named [name], in ms. *)
let span_ms ?(self = false) tr name =
  let spans = Trace.spans tr in
  let st = if self then Trace.self_times spans else [||] in
  let out = ref [] in
  Array.iteri
    (fun i (s : Trace.span) ->
      if s.name = name then
        out := (if self then st.(i) else s.stop -. s.start) :: !out)
    spans;
  Stat.ms (Array.of_list !out)

(* ------------------------------------------------------------------ *)
(* read_paths: cache -> solve -> render, on a materialised program, with
   the server's default 1024-entry cache. Admission control is replayed
   apart from the requests: the wire run serves without --admit-cost,
   whose estimate costs about a hundred times the solve it guards. *)

module Read = struct
  type t = {
    p : Program.t;
    absint : Absint.t;
    cache : Qcache.t;
    mutable evicted : int;
    mutable misses : int;
    mutable product_states : int;
  }

  let create text =
    let p = Pathlog.load text in
    {
      p;
      absint = Absint.analyze (Program.store p) (Program.rules p);
      cache = Qcache.create ~capacity:Server.default_config.cache_capacity;
      evicted = 0;
      misses = 0;
      product_states = 0;
    }

  (* What [serve --admit-cost] would spend on each QUERY of [ops]. *)
  let admission tr t ops =
    Trace.operation tr (-1) "op.ADMIT" (fun () ->
        Array.iter
          (function
            | Gen.Query q ->
              let lits = Trace.span tr "parse.query" (fun () -> Program.parse_query q) in
              ignore
                (Trace.span tr "absint.admit" (fun () ->
                     Absint.query_cost t.absint (Program.store t.p)
                       (Program.rules t.p) lits))
            | _ -> ())
          ops)

  let request tr t op =
    let reply =
      match op with
      | Gen.Query q -> (
        let epoch =
          Trace.span tr "store.freeze" (fun () ->
              Store.snapshot_epoch (Store.freeze (Program.store t.p)))
        in
        match Trace.span tr "qcache.find" (fun () -> Qcache.find t.cache ~epoch q) with
        | Some r -> r
        | None ->
          let s0 = Atomic.get Solve.product_states_expanded in
          let a = Trace.span tr "solve.query" (fun () -> Program.query_string t.p q) in
          t.product_states <-
            t.product_states + Atomic.get Solve.product_states_expanded - s0;
          t.misses <- t.misses + 1;
          let r =
            Protocol.Ok (Trace.span tr "answer.render" (fun () -> answer_lines t.p a))
          in
          let before = (Qcache.stats t.cache).entries in
          Trace.span tr "qcache.add" (fun () -> Qcache.add t.cache ~epoch q r);
          if (Qcache.stats t.cache).entries < before then
            t.evicted <- t.evicted + before;
          r)
      | Gen.Why q ->
        Protocol.Ok (Trace.span tr "solve.why" (fun () -> why_lines t.p q))
      | Gen.Assert _ | Gen.Retract _ -> invalid_arg "Read.request"
    in
    render tr reply

  let layer_metrics tr t =
    let c = Qcache.stats t.cache in
    let lookups = float_of_int (c.hits + c.misses) in
    [
      ("qcache.hit_ratio", Stat.ratio (float_of_int c.hits) lookups, "ratio",
       int_of_float lookups);
      ("qcache.evictions", float_of_int t.evicted, "count", int_of_float lookups);
      ("absint.admit_ms_p50", Stat.median (span_ms tr "absint.admit"), "ms",
       Array.length (span_ms tr "absint.admit"));
      ("solve.query_ms_p50", Stat.median (span_ms tr "solve.query"), "ms", t.misses);
      ("solve.query_ms_p95", Stat.quantile (span_ms tr "solve.query") 0.95, "ms",
       t.misses);
      ("solve.product_states_per_query",
       Stat.ratio (float_of_int t.product_states) (float_of_int t.misses),
       "count", t.misses);
      ("protocol.render_ms_p50", Stat.median (span_ms tr "protocol.render"), "ms",
       Array.length (span_ms tr "protocol.render"));
    ]
end

(* ------------------------------------------------------------------ *)
(* goal_directed: first sight runs the magic-sets transform and its
   fixpoint; a repeat takes the lock-free read path through the cache. *)

module Goal = struct
  type t = {
    p : Program.t;
    cache : Qcache.t;
    ready : (string, unit) Hashtbl.t;
    mutable first : int;
    mutable fallbacks : int;
    mutable rule_evals : int;
  }

  (* The parsed program holds no magic facts; every first sight's stay in
     the store, so [layer_metrics] counts them once, after the replay. *)
  let create text =
    {
      p = Pathlog.parse text;
      cache = Qcache.create ~capacity:Server.default_config.cache_capacity;
      ready = Hashtbl.create 1024;
      first = 0;
      fallbacks = 0;
      rule_evals = 0;
    }

  let request tr t op =
    let q = match op with Gen.Query q -> q | _ -> invalid_arg "Goal.request" in
    let reply =
      if not (Hashtbl.mem t.ready q) then begin
        let a, (rep : Program.demand_report) =
          Trace.span tr "demand.query" (fun () -> Program.query_demand_string t.p q)
        in
        if rep.d_fallback <> None then t.fallbacks <- t.fallbacks + 1;
        t.first <- t.first + 1;
        t.rule_evals <- t.rule_evals + rep.d_stats.Fixpoint.rule_evaluations;
        Hashtbl.replace t.ready q ();
        Protocol.Ok (Trace.span tr "answer.render" (fun () -> answer_lines t.p a))
      end
      else
        Trace.span tr "demand.repeat" (fun () ->
            let epoch = Store.snapshot_epoch (Store.freeze (Program.store t.p)) in
            match Qcache.find t.cache ~epoch q with
            | Some r -> r
            | None ->
              let a = Trace.span tr "solve.query" (fun () -> Program.query_string t.p q) in
              let r = Protocol.Ok (answer_lines t.p a) in
              Qcache.add t.cache ~epoch q r;
              r)
    in
    render tr reply

  let layer_metrics tr t =
    let first = span_ms tr "demand.query" and repeat = span_ms tr "demand.repeat" in
    let n = float_of_int t.first in
    let magic = float_of_int (Demand.magic_fact_total (Program.store t.p)) in
    [
      ("demand.first_sight_ms_p50", Stat.median first, "ms", t.first);
      ("demand.first_sight_ms_p95", Stat.quantile first 0.95, "ms", t.first);
      ("demand.repeat_ms_p50", Stat.median repeat, "ms", Array.length repeat);
      ("demand.fallback_ratio", Stat.ratio (float_of_int t.fallbacks) n, "ratio",
       t.first);
      ("demand.magic_facts_per_query", Stat.ratio magic n,
       "count", t.first);
      ("fixpoint.rule_evaluations_per_query",
       Stat.ratio (float_of_int t.rule_evals) n, "count", t.first);
    ]
end

(* ------------------------------------------------------------------ *)
(* write_mix: gate -> Live (WAL append in the commit hook) -> snapshot
   cadence -> subscription re-evaluation, over a data directory of the
   replay's own; then a recovery from that directory. *)

module Write = struct
  type sub = { query : string; mutable rows : string list }

  type delta = { sub : int; appeared : string list; vanished : string list }

  type t = {
    dir : string;
    text : string;
    mutable live : Live.t;
    mutable durable : Durable.t;
    subs : sub array;
    mutable retracts : int;
    mutable dred : int;
    mutable rederive_evals : int;
    mutable removed : int;
    mutable snapshots : int;
    mutable snapshot_s : float;
    mutable batch_bytes : int;
    mutable deltas : int;
    mutable batches : int;
    mutable wal_bytes : int;
  }

  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()

  let hook tr d =
    Some
      (fun ~retract ~epoch ~text ->
        Trace.span tr "durable.append" (fun () ->
            ignore (Durable.append d ~retract ~epoch text : int)))

  let create tr ~dir text =
    rm_rf dir;
    let p = Pathlog.load text in
    let d, _ = Durable.open_dir dir in
    let live = Live.attach p in
    Live.set_commit_hook live (hook tr d);
    {
      dir;
      text;
      live;
      durable = d;
      subs = Array.of_list (List.map (fun q -> { query = q; rows = [] }) Gen.Write_mix.subscriptions);
      retracts = 0;
      dred = 0;
      rederive_evals = 0;
      removed = 0;
      snapshots = 0;
      snapshot_s = 0.;
      batch_bytes = 0;
      deltas = 0;
      batches = 0;
      wal_bytes = 0;
    }

  let program t = Live.program t.live

  (* Standing-query rows, as the server keeps them: sorted one-line rows,
     "true" for an entailed ground query. *)
  let sub_rows t q =
    let p = program t in
    let a = Program.query_string p q in
    match a.columns with
    | [] -> if a.rows = [] then [] else [ "true" ]
    | _ -> List.sort compare (List.tl (answer_lines p a))

  let subscribe t = Array.iter (fun s -> s.rows <- sub_rows t s.query) t.subs

  let diff before after =
    let rec go b a app van =
      match (b, a) with
      | [], [] -> (List.rev app, List.rev van)
      | [], x :: a -> go [] a (x :: app) van
      | x :: b, [] -> go b [] app (x :: van)
      | x :: b', y :: a' ->
        let c = compare x y in
        if c = 0 then go b' a' app van
        else if c < 0 then go b' a app (x :: van)
        else go b a' (y :: app) van
    in
    go before after [] []

  (* One batch. Returns the reply's digest and the DELTA frames the
     commit would push, in subscription order. *)
  let batch tr t op =
    let retract, text =
      match op with
      | Gen.Assert s -> (false, s)
      | Gen.Retract s -> (true, s)
      | _ -> invalid_arg "Write.batch"
    in
    (match Trace.span tr "check.gate" (fun () -> Check.gate text) with
    | Ok _ -> ()
    | Error msg -> failwith ("gate refused a generated batch: " ^ msg));
    let st =
      Trace.span tr (if retract then "live.retract" else "live.assert") (fun () ->
          (if retract then Live.retract_batch else Live.assert_batch) t.live text)
    in
    t.batches <- t.batches + 1;
    t.batch_bytes <- t.batch_bytes + String.length text;
    if retract then begin
      t.retracts <- t.retracts + 1;
      if st.strategy = Live.Dred then t.dred <- t.dred + 1;
      t.removed <- t.removed + List.length st.removed;
      match st.fixpoint with
      | Some f -> t.rederive_evals <- t.rederive_evals + f.Fixpoint.rule_evaluations
      | None -> ()
    end;
    let t0 = Trace.now () in
    let cut =
      Trace.span tr "durable.snapshot" (fun () ->
          Durable.maybe_snapshot t.durable
            ~every:Server.default_config.snapshot_every ~epoch:st.epoch
            ~source:(fun () -> Live.dump_source t.live))
    in
    if cut then begin
      t.snapshots <- t.snapshots + 1;
      t.snapshot_s <- t.snapshot_s +. (Trace.now () -. t0)
    end;
    let deltas =
      Trace.span tr "subscribe.reeval" (fun () ->
          List.concat
            (Array.to_list
               (Array.mapi
                  (fun i s ->
                    let rows = sub_rows t s.query in
                    let appeared, vanished = diff s.rows rows in
                    if appeared = [] && vanished = [] then []
                    else begin
                      s.rows <- rows;
                      [ { sub = i; appeared; vanished } ]
                    end)
                  t.subs)))
    in
    t.deltas <- t.deltas + List.length deltas;
    let reply =
      Protocol.Ok
        [
          Printf.sprintf "added %d" (List.length st.added);
          Printf.sprintf "removed %d" (List.length st.removed);
        ]
    in
    render tr reply;
    (Printf.sprintf "%d/%d" (List.length st.added) (List.length st.removed), deltas)

  (* A read's reply lines. *)
  let read tr t op =
    let q = match op with Gen.Query q -> q | _ -> invalid_arg "Write.read" in
    let a = Trace.span tr "solve.query" (fun () -> Program.query_string (program t) q) in
    let lines = Trace.span tr "answer.render" (fun () -> answer_lines (program t) a) in
    render tr (Protocol.Ok lines);
    lines

  (* Stop and recover the replay's own data directory the way the server
     does: open (scan, truncate torn tail), reload the newest snapshot,
     attach Live, replay the WAL suffix through the gate. Returns whether
     the recovered model equals the one before the stop. *)
  let recover tr t =
    let model () =
      List.sort compare (String.split_on_char '\n' (Live.dump_source t.live))
    in
    let before = model () in
    t.wal_bytes <- (Durable.stats t.durable).wal_bytes;
    Durable.close t.durable;
    Trace.operation tr (-1) "op.RECOVER" (fun () ->
        let d, r = Trace.span tr "durable.open" (fun () -> Durable.open_dir t.dir) in
        Trace.span tr "live.replay" (fun () ->
            let p =
              match r.Durable.r_snapshot with
              | Some (_, _, src) -> Program.of_string src
              | None -> Pathlog.load t.text
            in
            let live = Live.attach p in
            List.iter
              (fun (rc : Durable.record) ->
                match Check.gate rc.text with
                | Error msg -> failwith ("recovery gate refused a record: " ^ msg)
                | Ok _ ->
                  ignore
                    ((if rc.retract then Live.retract_batch else Live.assert_batch)
                       live rc.text))
              r.Durable.r_tail;
            Live.set_commit_hook live (hook tr d);
            t.live <- live;
            t.durable <- d));
    model () = before

  let layer_metrics tr t =
    let assert_ms = span_ms ~self:true tr "live.assert"
    and retract_ms = span_ms ~self:true tr "live.retract" in
    let nb = t.batches in
    [
      ("check.gate_ms_p50", Stat.median (span_ms tr "check.gate"), "ms", nb);
      ("live.assert_ms_p50", Stat.median assert_ms, "ms", Array.length assert_ms);
      ("live.retract_ms_p50", Stat.median retract_ms, "ms", t.retracts);
      ("live.retract_ms_p95", Stat.quantile retract_ms 0.95, "ms", t.retracts);
      ("live.dred_ratio", Stat.ratio (float_of_int t.dred) (float_of_int t.retracts),
       "ratio", t.retracts);
      ("live.rederive_evals_per_removed",
       Stat.ratio (float_of_int t.rederive_evals) (float_of_int t.removed),
       "count", t.removed);
      ("durable.append_ms_p50", Stat.median (span_ms tr "durable.append"), "ms", nb);
      ("durable.wal_bytes_per_batch_byte",
       Stat.ratio (float_of_int t.wal_bytes) (float_of_int t.batch_bytes),
       "ratio", t.batch_bytes);
      ("durable.snapshots", float_of_int t.snapshots, "count", nb);
      ("durable.snapshot_ms_total", t.snapshot_s *. 1000., "ms", t.snapshots);
      ("subscribe.reeval_ms_per_batch",
       Stat.ratio (Stat.sum (span_ms tr "subscribe.reeval")) (float_of_int nb),
       "ms", nb);
      ("subscribe.deltas_per_batch",
       Stat.ratio (float_of_int t.deltas) (float_of_int nb), "count", nb);
      ("durable.open_ms", Stat.sum (span_ms tr "durable.open"), "ms", 1);
      ("live.replay_ms", Stat.sum (span_ms tr "live.replay"), "ms", 1);
    ]
end
