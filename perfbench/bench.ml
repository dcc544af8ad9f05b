(* End-to-end wire benchmark for `pathlog serve`.

   bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --work DIR

   A run is several rounds. Each round starts the real server (PATH
   serve ...) as its own process, times its set-up, warms it, and drives
   it from two client connections in a closed loop, each replaying a
   fixed seeded stream of requests (the stream length is a fixed
   function of S, never of elapsed time). Every figure is the median
   over the rounds, so neither a slow spell of the host nor one server
   process's luck decides it. Every reply is checked against an
   in-process oracle over the same generated program. On write_mix the
   last round's server is then stopped gracefully and restarted on its
   --data directory to time recovery.

   --trace 1 additionally replays the first round's operations in-process
   with spans around each layer's public functions and prints the
   per-layer metrics; every workload's replay runs, so each layer is
   measured on the workload that exercises it. The last stdout line is
   the JSON summary: end-to-end metrics with --trace 0, per-layer
   metrics with --trace 1. *)

module Protocol = Pathlog.Protocol

let now = Trace.now

(* A run is [rounds] rounds, each on a freshly started server; every
   figure is the median over rounds. A round's measured streams hold
   --seconds times these rates of requests, split over the rounds, so
   one run measures for about --seconds on one CPU. *)
let rounds = 9
let read_rate = 12000
let goal_rate = 900
let write_rate = 100 (* batches *)
let reader_rate = 600
let restarts = 5

(* Span accounting: an operation of the traced replay is accounted for
   when no more than [tolerance] of its in-process time, or
   [tolerance_floor] seconds if that is more, lies outside every layer
   span. *)
let tolerance = 0.05
let tolerance_floor = 10e-6

let e2e_names =
  [ "setup_s"; "throughput_rps"; "latency_p50_ms"; "latency_p95_ms";
    "server_rss_mb" ]

let layer_names =
  [
    "qcache.hit_ratio"; "qcache.evictions"; "absint.admit_ms_p50";
    "solve.query_ms_p50"; "solve.query_ms_p95"; "solve.product_states_per_query";
    "protocol.render_ms_p50"; "server.overhead_ms_p50";
    "demand.first_sight_ms_p50"; "demand.first_sight_ms_p95";
    "demand.repeat_ms_p50"; "demand.fallback_ratio";
    "demand.magic_facts_per_query"; "fixpoint.rule_evaluations_per_query";
    "check.gate_ms_p50"; "live.assert_ms_p50"; "live.retract_ms_p50";
    "live.retract_ms_p95"; "live.dred_ratio"; "live.rederive_evals_per_removed";
    "durable.append_ms_p50"; "durable.wal_bytes_per_batch_byte";
    "durable.snapshots"; "durable.snapshot_ms_total";
    "subscribe.reeval_ms_per_batch"; "subscribe.deltas_per_batch";
    "durable.open_ms"; "live.replay_ms"; "trace.overhead_ratio";
    "trace.unaccounted_share";
  ]

(* ------------------------------------------------------------------ *)
(* Arguments and run meta                                              *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  cli : string;
  work : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and cli = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "read_paths|goal_directed|write_mix");
      ("--seed", Arg.Set_int seed, "generator seed");
      ("--seconds", Arg.Set_int seconds, "run size (fixed request count per second)");
      ("--trace", Arg.Set_int trace, "1: traced in-process replay, per-layer metrics");
      ("--cli", Arg.Set_string cli, "path to the pathlog CLI executable");
      ("--work", Arg.Set_string work, "scratch directory for this run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --work DIR";
  if not (List.mem !workload [ "read_paths"; "goal_directed"; "write_mix" ]) then
    failwith ("unknown workload " ^ !workload);
  if !seconds < 1 || !cli = "" || !work = "" then failwith "bad arguments";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    traced = !trace = 1;
    cli = !cli;
    work = !work;
  }

(* The filesystem holding [dir]: the longest mount point that prefixes
   its real path, from /proc/mounts. *)
let filesystem_of dir =
  let path = Unix.realpath dir in
  let ic = open_in "/proc/mounts" in
  let best = ref ("unknown", "", -1) in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | dev :: mnt :: fs :: _ ->
         let l = String.length mnt in
         let prefix =
           mnt = "/"
           || (String.length path >= l
              && String.sub path 0 l = mnt
              && (String.length path = l || path.[l] = '/'))
         in
         let _, _, bl = !best in
         if prefix && l > bl then best := (fs, dev, l)
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let fs, dev, _ = !best in
  fs ^ " on " ^ dev

(* The CPUs this process may run on, as /proc/self/status lists them. *)
let cpus_allowed () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> "unknown"
        | Some l -> (
          match String.split_on_char ':' l with
          | [ "Cpus_allowed_list"; v ] -> String.trim v
          | _ -> scan ())
      in
      scan ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Workload plans                                                      *)

type plan = {
  program : string;
  flags : string list;
  probe : Gen.op;
  warm : Gen.op array * Gen.op array;
  measured : Gen.op array * Gen.op array;
      (* connection A, connection B; on write_mix A writes, B reads *)
  mix : string;
}

(* Round [round]'s plan; every round serves the same program, and its
   streams are drawn under salts of its own. *)
let plan a ~data ~round =
  let seed = a.seed and salt k = k + (100 * round) in
  let per rate = a.seconds * rate / rounds in
  match a.workload with
  | "read_paths" ->
    let text, boss = Gen.Read_paths.program seed in
    let n = per read_rate in
    {
      program = text;
      flags = [];
      probe = Gen.Query "e1.boss+[Y]";
      warm = Gen.Read_paths.streams ~salt:(salt 11) seed boss 4096;
      measured = Gen.Read_paths.streams ~salt:(salt 10) seed boss n;
      mix =
        Printf.sprintf "%d x %d requests, Zipf(%.1f) over %d distinct QUERY/WHY"
          rounds n Gen.Read_paths.zipf_s
          (Array.length (Gen.Read_paths.population seed boss));
    }
  | "goal_directed" ->
    let n = per goal_rate in
    let chains = Gen.Goal_directed.chains n in
    {
      program = Gen.Goal_directed.program ~chains;
      (* one worker: a first sight writes the store's indexes while no
         read runs beside it. With parallel workers a lock-free read can
         run while a first sight grows an index table, and a read that
         meets the table mid-resize misses entries that are there *)
      flags = [ "--demand"; "--workers"; "1" ];
      probe = Gen.Goal_directed.probe;
      warm = (Gen.Goal_directed.warm ~salt:(salt 31) seed, [||]);
      measured = Gen.Goal_directed.streams ~salt:(salt 30) seed n;
      mix =
        Printf.sprintf "%d x %d bound point queries over %d chains of %d, 1/%d first sight"
          rounds n chains Gen.Goal_directed.length Gen.Goal_directed.first_sight_every;
    }
  | _ ->
    let writes = Gen.Write_mix.writes ~salt:(salt 43) seed (per write_rate / 2) in
    (* pad the warm-up so the round ends half-way between two snapshots:
       recovery then always replays the same length of WAL suffix *)
    let every = Pathlog.Server.default_config.snapshot_every in
    let rec warm_writes pairs =
      let w = Gen.Write_mix.writes ~salt:(salt 41) seed pairs in
      if (Array.length w + Array.length writes) mod every = every / 2 then w
      else warm_writes (pairs + 1)
    in
    let nr = per reader_rate in
    {
      program = Gen.Write_mix.program seed;
      flags = [ "--data"; data ];
      probe = Gen.Query "g0a0[reach ->> {Y}]";
      warm = (warm_writes 8, Gen.Write_mix.reader ~salt:(salt 42) seed (nr / 8));
      measured = (writes, Gen.Write_mix.reader ~salt:(salt 44) seed nr);
      mix =
        Printf.sprintf
          "%d x (%d ASSERT/RETRACT batches on one connection, %d QUERY on the other)"
          rounds (Array.length writes) nr;
    }

(* ------------------------------------------------------------------ *)
(* Driving the server                                                  *)

type sample = {
  op : Gen.op;
  sent : float;
  latency : float;
  reply : (Protocol.reply, string) result;
}

let progress fmt = Printf.ksprintf (fun s -> Printf.eprintf "bench: %s\n%!" s) fmt

let live_servers = ref []

let spawn a ~program ~log flags =
  let s = Wire.spawn ~cli:a.cli ~log ~program flags in
  live_servers := s :: !live_servers;
  s

let stop s =
  Wire.stop s;
  live_servers := List.filter (fun x -> x != s) !live_servers

(* Both connections in one closed loop; returns their samples and the
   wall time until both streams are done. *)
let run_pair ca cb (opsa, opsb) =
  let lines ops = Array.map Gen.request ops in
  let out, wall = Wire.closed_loop [ (ca, lines opsa); (cb, lines opsb) ] in
  let samples ops (ws : Wire.sample array) =
    Array.map2
      (fun op (w : Wire.sample) -> { op; sent = w.sent; latency = w.latency; reply = w.reply })
      ops ws
  in
  match out with
  | [ a; b ] ->
    let done_at ws = Array.fold_left (fun m (w : Wire.sample) -> Float.max m (w.sent +. w.latency)) 0. ws in
    if Array.length a > 0 && Array.length b > 0 then
      progress "connection A done %+.3f s after connection B"
        (done_at a -. done_at b);
    (samples opsa a, samples opsb b, wall)
  | _ -> assert false

let ok_reply = function Ok (Protocol.Ok _) -> true | _ -> false

(* Spawn, then send the probe until it is answered: set-up time. *)
let start a ~program ~log ~probe flags =
  let t0 = now () in
  let s = spawn a ~program ~log flags in
  let c, r = Wire.await_ready s.Wire.port (Gen.request probe) in
  let dt = now () -. t0 in
  if not (ok_reply r) then
    failwith "set-up probe was not answered OK";
  (s, c, dt)

let parse_stats lines =
  List.filter_map
    (fun l ->
      match String.rindex_opt l ' ' with
      | Some i ->
        Option.map
          (fun v -> (String.sub l 0 i, v))
          (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
      | None -> None)
    lines

let stat stats k = Option.value ~default:0. (List.assoc_opt k stats)

(* ------------------------------------------------------------------ *)
(* Checking replies                                                    *)

type check = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let note ck fmt =
  Printf.ksprintf
    (fun s ->
      ck.failed <- ck.failed + 1;
      if List.length ck.notes < 10 then ck.notes <- s :: ck.notes)
    fmt

let expect ck ok fmt =
  ck.attempted <- ck.attempted + 1;
  Printf.ksprintf (fun s -> if not ok then note ck "%s" s) fmt

(* The oracle answers every distinct read request once on its own
   in-process program (on goal_directed materialised in full: the
   demand = full-materialisation check). *)
let answers oracle =
  let memo = Hashtbl.create 4096 in
  fun op ->
    match Hashtbl.find_opt memo op with
    | Some d -> d
    | None ->
      let d = Replay.answer oracle op in
      Hashtbl.replace memo op d;
      d

let check_reads ck want samples =
  Array.iter
    (fun s ->
      let want = want s.op in
      match s.reply with
      | Ok r ->
        let got = Replay.reply_digest s.op r in
        expect ck (got = Some want) "%s: %s" (Gen.request s.op)
          (if got = None then String.trim (Protocol.render_reply r) else "wrong answer")
      | Error e -> expect ck false "%s: %s" (Gen.request s.op) e)
    samples

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

type outcome = {
  metrics : (string * float * string * int) list;  (* name, value, unit, samples *)
  stats : (string * float) list;
  client_p50_ms : float;
  inproc : Gen.op array;  (* the measured requests, interleaved A/B *)
}

let interleave (a, b) =
  let n = max (Array.length a) (Array.length b) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if i < Array.length b then out := b.(i) :: !out;
    if i < Array.length a then out := a.(i) :: !out
  done;
  Array.of_list !out

let latencies samples = Array.map (fun s -> s.latency) samples

let write_mix_checks ck a p ~writes ~reads ~subs ~deltas ~recovered =
  let tr = Trace.create ~enabled:false in
  let w = Replay.Write.create tr ~dir:(Filename.concat a.work "oracle-data") p.program in
  let warm_w = Array.length (fst p.warm) in
  (* reads touch only ladders no batch writes: one right answer each *)
  check_reads ck (answers (Replay.Write.program w)) reads;
  let expected = ref [] in
  Array.iteri
    (fun i s ->
      if i = warm_w then begin
        Replay.Write.subscribe w;
        Array.iteri
          (fun k (sub : Replay.Write.sub) ->
            let _, baseline = subs.(k) in
            expect ck (baseline = sub.rows) "SUBSCRIBE %s: wrong baseline" sub.query)
          w.subs
      end;
      let d, ds = Replay.Write.batch tr w s.op in
      if i >= warm_w then
        List.iter (fun (x : Replay.Write.delta) -> expected := (i, x) :: !expected) ds;
      (match s.reply with
      | Ok (Protocol.Ok lines) ->
        let field k =
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ key; v ] when key = k -> Some v
              | _ -> None)
            lines
        in
        let got =
          match (field "added", field "removed") with
          | Some x, Some y -> x ^ "/" ^ y
          | _ -> "?"
        in
        expect ck (got = d) "%s: added/removed %s, expected %s" (Gen.request s.op) got d
      | Ok r ->
        expect ck false "%s: %s" (Gen.request s.op)
          (String.trim (Protocol.render_reply r))
      | Error e -> expect ck false "%s: %s" (Gen.request s.op) e))
    writes;
  (* DELTA frames: per subscription, the server's sequence must equal the
     replay's; each frame's lag is its arrival minus its batch's send *)
  let expected = List.rev !expected in
  let lags = ref [] in
  Array.iteri
    (fun k (id, _) ->
      let want = List.filter (fun (_, (x : Replay.Write.delta)) -> x.sub = k) expected in
      let got =
        List.filter (fun (_, (d : Protocol.delta)) -> d.sub_id = id) deltas
      in
      expect ck (List.length want = List.length got)
        "subscription %d: %d DELTA frames, expected %d" k (List.length got)
        (List.length want);
      List.iter2
        (fun (i, (x : Replay.Write.delta)) (t, (d : Protocol.delta)) ->
          expect ck
            (x.appeared = d.appeared && x.vanished = d.vanished)
            "subscription %d: wrong DELTA after batch %d" k i;
          lags := (t -. writes.(i).sent) :: !lags)
        (List.filteri (fun j _ -> j < List.length got) want)
        (List.filteri (fun j _ -> j < List.length want) got))
    subs;
  (* the recovered server must answer as the replay's final state *)
  List.iter
    (fun (op, r) ->
      let want = Replay.digest op (Replay.Write.read tr w op) in
      expect ck (Replay.reply_digest op r = Some want)
        "after restart %s: wrong answer" (Gen.request op))
    recovered;
  Array.of_list !lags

(* One round: a fresh server (on write_mix over a fresh data
   directory), its set-up timed, warmed, then the round's measured
   streams. *)
type round = {
  plan : plan;
  setup : float;
  warm_a : sample array;
  warm_b : sample array;
  meas_a : sample array;
  meas_b : sample array;
  wall : float;
  subs : (int * string list) array;  (* write_mix: SUBSCRIBE id, baseline *)
  deltas : (float * Protocol.delta) list;  (* write_mix: in arrival order *)
  stats : (string * float) list;
  rss : float;
}

let one_round a ~program ~log ~data r =
  let p = plan a ~data ~round:r in
  let a_writes = a.workload = "write_mix" in
  if a_writes then Replay.Write.rm_rf data;
  let srv, ca, setup = start a ~program ~log ~probe:p.probe p.flags in
  progress "round %d: set-up %.3f s" (r + 1) setup;
  let cb = Wire.connect srv.Wire.port in
  let warm_a, warm_b, _ = run_pair ca cb p.warm in
  let subs =
    if a_writes then
      Array.of_list
        (List.map
           (fun q ->
             match Wire.call cb ("SUBSCRIBE " ^ q) with
             | Ok (Protocol.Ok (first :: rows)), _ ->
               (Scanf.sscanf first "id %d" Fun.id, rows)
             | _ -> failwith ("SUBSCRIBE failed: " ^ q))
           Gen.Write_mix.subscriptions)
    else [||]
  in
  let meas_a, meas_b, wall = run_pair ca cb p.measured in
  progress "round %d: measured %d requests in %.3f s" (r + 1)
    (Array.length meas_a + Array.length meas_b) wall;
  (* every DELTA caused by the last batch precedes the QUIT's reply *)
  if a_writes then Wire.finish cb;
  let stats =
    match Wire.call ca "STATS" with
    | Ok (Protocol.Ok lines), _ -> parse_stats lines
    | _ -> failwith "STATS failed"
  in
  let rss = Wire.peak_rss_mb srv in
  Wire.close ca;
  Wire.close cb;
  stop srv;
  { plan = p; setup; warm_a; warm_b; meas_a; meas_b; wall; subs;
    deltas = List.rev cb.Wire.deltas; stats; rss }

let median_of rounds f = Stat.median (Array.map f rounds)

let run a =
  let data = Filename.concat a.work "data" in
  let program = Filename.concat a.work "program.plg" in
  let text = (plan a ~data ~round:0).program in
  Out_channel.with_open_bin program (fun oc -> output_string oc text);
  let log = Filename.concat a.work "server.log" in
  let a_writes = a.workload = "write_mix" in
  let rs = Array.init rounds (one_round a ~program ~log ~data) in
  let last = rs.(rounds - 1) in
  (* write_mix: stop and restart on the last round's --data, [restarts]
     times, to time recovery; the last recovered server is asked again *)
  let recovery_times = Array.make (if a_writes then restarts else 0) 0. in
  let recovered = ref [] in
  for i = 0 to Array.length recovery_times - 1 do
    let s, c, dt = start a ~program ~log ~probe:last.plan.probe last.plan.flags in
    recovery_times.(i) <- dt;
    if i = restarts - 1 then
      recovered :=
        List.map
          (fun op ->
            match Wire.call c (Gen.request op) with
            | Ok r, _ -> (op, r)
            | Error e, _ -> (op, Protocol.Err (Protocol.Internal, e)))
          (last.plan.probe
          :: List.map (fun q -> Gen.Query q) Gen.Write_mix.subscriptions
          @ Array.to_list (Array.sub (snd last.plan.measured) 0 20));
    Wire.close c;
    stop s
  done;
  progress "checking replies";
  let ck = { attempted = 0; failed = 0; notes = [] } in
  let lags =
    if a_writes then
      Array.concat
        (Array.to_list
           (Array.map
              (fun r ->
                write_mix_checks ck a r.plan ~writes:(Array.append r.warm_a r.meas_a)
                  ~reads:(Array.append r.warm_b r.meas_b) ~subs:r.subs ~deltas:r.deltas
                  ~recovered:(if r == last then !recovered else []))
              rs))
    else begin
      let want = answers (Pathlog.load text) in
      Array.iter
        (fun r -> check_reads ck want (Array.concat [ r.warm_a; r.warm_b; r.meas_a; r.meas_b ]))
        rs;
      [||]
    end
  in
  let lat r = Stat.ms (latencies (Array.append r.meas_a r.meas_b)) in
  let writes r = Stat.ms (latencies r.meas_a) in
  Array.iteri
    (fun i r ->
      progress "round %d: %.1f requests/s, latency quantiles (ms): %s" (i + 1)
        (float_of_int (Array.length (lat r)) /. r.wall)
        (String.concat " "
           (List.map
              (fun q -> Printf.sprintf "%.3f" (Stat.quantile (lat r) q))
              [ 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ])))
    rs;
  let n = Array.fold_left (fun n r -> n + Array.length (lat r)) 0 rs in
  let nw = Array.fold_left (fun n r -> n + Array.length r.meas_a) 0 rs in
  let metrics =
    [
      ("setup_s", median_of rs (fun r -> r.setup), "s", rounds);
      ("throughput_rps",
       median_of rs (fun r -> float_of_int (Array.length (lat r)) /. r.wall), "1/s", n);
      ("latency_p50_ms", median_of rs (fun r -> Stat.median (lat r)), "ms", n);
      ("latency_p95_ms", median_of rs (fun r -> Stat.quantile (lat r) 0.95), "ms", n);
      ("server_rss_mb", median_of rs (fun r -> r.rss), "MiB", rounds);
      ("error_ratio", Stat.ratio (float_of_int ck.failed) (float_of_int ck.attempted),
       "ratio", ck.attempted);
    ]
    @
    if a_writes then
      [
        ("write_p50_ms", median_of rs (fun r -> Stat.median (writes r)), "ms", nw);
        ("write_p95_ms", median_of rs (fun r -> Stat.quantile (writes r) 0.95), "ms", nw);
        ("delta_lag_p50_ms", Stat.median (Stat.ms lags), "ms", Array.length lags);
        ("recovery_s", Stat.median recovery_times, "s", restarts);
      ]
    else []
  in
  let first = rs.(0) in
  ( ck,
    {
      metrics;
      stats = last.stats;
      client_p50_ms = Stat.median (lat first);
      inproc = interleave first.plan.measured;
    },
    first.plan )

(* ------------------------------------------------------------------ *)
(* Traced replays                                                      *)

(* Each workload's first-round operations replayed in-process, so every
   layer is measured on the workload that exercises it. Returns the
   per-layer metrics and, for the wire workload, its span accounting. *)
let traced_layers a ~(wire : outcome) wire_plan =
  let layers = ref [] in
  let add l = layers := !layers @ l in
  let own w = w = a.workload in
  let plan_for w =
    if own w then wire_plan
    else plan { a with workload = w } ~data:(Filename.concat a.work ("data-" ^ w)) ~round:0
  in
  let replay tr w =
    let p = plan_for w in
    let ops = interleave p.measured in
    match w with
    | "read_paths" ->
      let t = Replay.Read.create p.program in
      let off = Trace.create ~enabled:false in
      ignore (Replay.run_ops off ~first:0 (interleave p.warm) (Replay.Read.request off t));
      let walls = Replay.run_ops tr ~first:0 ops (Replay.Read.request tr t) in
      Replay.Read.admission tr t (Array.sub ops 0 (min 300 (Array.length ops)));
      (walls, fun () -> Replay.Read.layer_metrics tr t)
    | "goal_directed" ->
      let t = Replay.Goal.create p.program in
      let off = Trace.create ~enabled:false in
      Replay.Goal.request off t p.probe;
      ignore (Replay.run_ops off ~first:0 (interleave p.warm) (Replay.Goal.request off t));
      let walls = Replay.run_ops tr ~first:0 ops (Replay.Goal.request tr t) in
      (walls, fun () -> Replay.Goal.layer_metrics tr t)
    | _ ->
      let t =
        Replay.Write.create tr ~dir:(Filename.concat a.work ("replay-" ^ w)) p.program
      in
      let off = Trace.create ~enabled:false in
      let warm_w, warm_r = p.warm in
      ignore (Replay.run_ops off ~first:0 warm_w (Replay.Write.batch off t));
      ignore (Replay.run_ops off ~first:0 warm_r (Replay.Write.read off t));
      Replay.Write.subscribe t;
      let walls =
        Replay.run_ops tr ~first:0 ops (fun op ->
            if Gen.is_write op then ignore (Replay.Write.batch tr t op)
            else ignore (Replay.Write.read tr t op))
      in
      if not (Replay.Write.recover tr t) then
        failwith "in-process recovery rebuilt a different model";
      (walls, fun () -> Replay.Write.layer_metrics tr t)
  in
  let accounting = ref (0, 0., 0, 0) and overhead = ref 0. and inproc_p50 = ref 0. in
  List.iter
    (fun w ->
      let tr = Trace.create ~enabled:true in
      let walls, metrics = replay tr w in
      add (metrics ());
      if own w then begin
        (* the same operations untraced: in-process latency and the
           tracing overhead *)
        let untraced = fst (replay (Trace.create ~enabled:false) w) in
        inproc_p50 := Stat.median (Stat.ms untraced);
        overhead := Stat.sum walls /. Stat.sum untraced -. 1.;
        let spans = Trace.spans tr in
        let self = Trace.self_times spans in
        accounting := Trace.accounting ~tolerance ~floor:tolerance_floor spans self;
        Trace.write_tsv (Filename.concat a.work "spans.tsv") spans self
      end)
    [ "read_paths"; "goal_directed"; "write_mix" ];
  let bad, unaccounted, ops, overrun = !accounting in
  ( !layers
    @ [
        ("server.overhead_ms_p50", wire.client_p50_ms -. !inproc_p50, "ms",
         Array.length wire.inproc);
        ("trace.overhead_ratio", !overhead, "ratio", Array.length wire.inproc);
        ("trace.unaccounted_share", unaccounted, "ratio", ops);
      ],
    (bad, ops, overrun) )

(* ------------------------------------------------------------------ *)

let () =
  let a =
    try parse_args ()
    with Failure m ->
      prerr_endline ("bench: " ^ m);
      exit 2
  in
  let cleanup () = List.iter Wire.stop !live_servers in
  at_exit cleanup;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  match run a with
  | exception e ->
    cleanup ();
    Printf.eprintf "bench: %s\n" (Printexc.to_string e);
    exit 1
  | ck, wire, p ->
    let layers =
      if a.traced then begin
        let l, (bad, ops, overrun) = traced_layers a ~wire p in
        (* a GC slice or a preemption can land outside every layer span of
           any one operation; the accounting fails when more than 1% do *)
        ck.attempted <- ck.attempted + 1;
        progress "span accounting: %d of %d operations over tolerance, %d overrun spans"
          bad ops overrun;
        if 100 * bad > ops || overrun > 0 then
          note ck "span accounting: %d of %d operations over %.0f%% unaccounted, \
                   %d overrun spans" bad ops (100. *. tolerance) overrun;
        l
      end
      else []
    in
    let meta =
      [
        ("workload", json_string a.workload);
        ("seed", string_of_int a.seed);
        ("seconds", string_of_int a.seconds);
        ("trace", if a.traced then "1" else "0");
        ("cores", string_of_int (Domain.recommended_domain_count ()));
        ("cpus_allowed", json_string (cpus_allowed ()));
        ("ocaml", json_string Sys.ocaml_version);
        ("ocamlrunparam", json_string (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
        ("data_fs", json_string (filesystem_of a.work));
        ( "flush_policy",
          json_string
            (if a.workload = "write_mix" then
               "fsync per batch before OK (WAL); latencies are this sandbox's disk, not a real device's"
             else "none (no --data)") );
        ("loop", json_string "closed, 2 connections");
        ("mix", json_string p.mix);
      ]
    in
    print_endline ("meta " ^ json_obj meta);
    List.iter
      (fun (k, v, u, n) -> Printf.printf "metric %s %.6g %s (n=%d)\n" k v u n)
      (wire.metrics @ layers);
    let lookups = stat wire.stats "cache_hits" +. stat wire.stats "cache_misses" in
    List.iter
      (fun (k, base, bv) -> Printf.printf "stats %s %.0f (base: %s %.0f)\n" k (stat wire.stats k) base bv)
      [
        ("cache_hits", "lookups", lookups);
        ("cache_misses", "lookups", lookups);
        ("demand_queries_total", "requests_total", stat wire.stats "requests_total");
        ("demand_fallbacks_total", "demand queries", stat wire.stats "demand_queries_total");
        ("magic_facts", "demand queries", stat wire.stats "demand_queries_total");
        ("product_states_expanded", "cache misses", stat wire.stats "cache_misses");
        ("wal_appends_total", "batches", stat wire.stats "asserts_total" +. stat wire.stats "retracts_total");
        ("wal_bytes", "wal appends", stat wire.stats "wal_appends_total");
        ("snapshots_total", "wal appends", stat wire.stats "wal_appends_total");
        ("deltas_pushed", "batches", stat wire.stats "asserts_total" +. stat wire.stats "retracts_total");
        ("latency_p50_us", "server requests", stat wire.stats "latency_count");
      ];
    List.iter (fun n -> Printf.printf "check failed: %s\n" n) (List.rev ck.notes);
    let chosen = if a.traced then layer_names else e2e_names in
    let all = wire.metrics @ layers in
    let values =
      List.map
        (fun k ->
          match List.find_opt (fun (n, _, _, _) -> n = k) all with
          | Some (_, v, u, _) when Float.is_finite v ->
            (k, json_obj [ ("value", Printf.sprintf "%.17g" v); ("unit", json_string u) ])
          | _ ->
            Printf.eprintf "bench: metric %s was not measured\n" k;
            exit 1)
        chosen
    in
    print_endline
      (json_obj
         [
           ("correct", string_of_bool (ck.failed = 0));
           ("attempted", string_of_int ck.attempted);
           ("failed", string_of_int ck.failed);
           ("metrics", json_obj values);
         ])
