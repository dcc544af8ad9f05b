(* pathlog — command-line driver.

   pathlog run FILE [--query Q]... [--dump] [--stats] [--naive] [--types]
   pathlog check FILE [--json] [--deny LEVEL]   full static analysis
   pathlog repl [FILE]           interactive queries against a loaded program
   pathlog serve FILE            long-running concurrent query server
   pathlog connect               client for a running server

   Exit codes (see Err): 0 ok, 1 runtime error, 2 load error, 3 static
   analysis refused the program. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let config_of ~naive ~hilog ~max_rounds ~max_objects ~jobs =
  {
    Pathlog.Fixpoint.default_config with
    mode = (if naive then Pathlog.Fixpoint.Naive else Seminaive);
    hilog_virtual = hilog;
    max_rounds;
    max_objects;
    jobs;
  }

let with_errors store f =
  try f () with
  | Pathlog.Program.Invalid msg ->
    Printf.eprintf "error: %s\n" msg;
    exit Pathlog.Err.exit_load
  | e -> (
    match Option.bind store (fun st -> Pathlog.Err.message st e) with
    | Some msg ->
      Printf.eprintf "error: %s\n" msg;
      exit Pathlog.Err.exit_runtime
    | None -> raise e)

let print_answer p query answer =
  Printf.printf "?- %s\n" query;
  match (answer : Pathlog.Program.answer) with
  | { columns = []; rows } ->
    print_endline (if rows = [] then "no" else "yes")
  | { columns; rows } ->
    Printf.printf "%s\n" (String.concat "\t" columns);
    List.iter
      (fun row -> print_endline (Pathlog.Program.row_to_string p row))
      rows;
    Printf.printf "(%d answers)\n" (List.length rows)

(* ------------------------------------------------------------------ *)

let pp_query_lits ppf lits =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Pathlog.Pretty.pp_literal ppf lits

(* Print a demand-driven answer, preceded by a notice when the transform
   declined and full materialisation ran instead. *)
let print_demand_answer p ~stats name
    (a, (r : Pathlog.Program.demand_report)) =
  (match r.d_fallback with
  | Some fb ->
    Printf.printf "%% demand fallback (%s): full materialisation ran\n"
      (Pathlog.Demand.fallback_to_string fb)
  | None ->
    if stats then
      Printf.printf
        "%% demand: %d seeds, %d magic rules, %d guarded, %d unguarded, %d \
         magic facts\n"
        r.d_seeds r.d_magic_rules r.d_guarded r.d_unguarded r.d_magic_facts);
  if stats then Format.printf "%% %a@." Pathlog.Fixpoint.pp_stats r.d_stats;
  print_answer p name a

(* run --demand: no up-front materialisation — each query (embedded or
   --query) runs the magic-sets transform and fixpoints only its demanded
   fragment (see DESIGN.md); unsound cases fall back to a full run with a
   notice. *)
let run_demand p ~budget ~stats queries =
  List.iter
    (fun lits ->
      print_demand_answer p ~stats
        (Format.asprintf "%a" pp_query_lits lits)
        (Pathlog.Program.query_demand ?budget p lits))
    (Pathlog.Program.embedded_queries p);
  List.iter
    (fun q ->
      print_demand_answer p ~stats q
        (Pathlog.Program.query_demand_string ?budget p q))
    queries;
  match Pathlog.Program.degraded p with
  | Some reason ->
    Format.printf
      "%% degraded: evaluation stopped early (%a); answers above are a \
       sound subset@."
      Pathlog.Budget.pp_reason reason;
    exit Pathlog.Err.exit_runtime
  | None -> ()

(* [--dump]: the model as sorted fact statements, reloadable as a
   program *)
let print_model st = List.iter (Format.printf "%s@.") (Pathlog.Fact.model st)

let run_cmd file queries dump stats naive hilog max_rounds max_objects types
    jobs deadline demand =
  let config = config_of ~naive ~hilog ~max_rounds ~max_objects ~jobs in
  let budget =
    Option.map
      (fun d -> Pathlog.Budget.create ~deadline_in:d ())
      deadline
  in
  let p =
    with_errors None (fun () ->
        Pathlog.Program.of_string ~config (read_file file))
  in
  let st = Pathlog.Program.store p in
  if demand then
    with_errors (Some st) (fun () ->
        run_demand p ~budget ~stats queries;
        if dump then print_model st)
  else
  with_errors (Some st) (fun () ->
      let s = Pathlog.Program.run ?budget p in
      if stats then
        Format.printf "%% %a@." Pathlog.Fixpoint.pp_stats s;
      (match Pathlog.Program.degraded p with
      | Some reason ->
        (* the partial model is sound but incomplete; refuse to answer
           queries over it and exit nonzero so scripts notice *)
        Format.printf
          "%% degraded: evaluation stopped early (%a); the model is a \
           sound partial model, queries skipped@."
          Pathlog.Budget.pp_reason reason;
        exit Pathlog.Err.exit_runtime
      | None -> ());
      List.iter
        (fun (lits, answer) ->
          print_answer p
            (Format.asprintf "%a"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                  Pathlog.Pretty.pp_literal)
               lits)
            answer)
        (Pathlog.Program.run_queries p);
      List.iter
        (fun q -> print_answer p q (Pathlog.Program.query_string p q))
        queries;
      if types then begin
        match Pathlog.Program.check_types p ~mode:`Lenient with
        | [] -> print_endline "% types: ok"
        | violations ->
          List.iter
            (fun v ->
              Format.printf "%% type violation: %a@."
                (Pathlog.Signature.pp_violation st)
                v)
            violations;
          exit Pathlog.Err.exit_analysis
      end;
      if dump then print_model st)

let check_cmd file json deny estimates card_threshold =
  let text = read_file file in
  let result = Pathlog.Check.analyze ?card_threshold ~estimates text in
  let denied =
    List.exists
      (fun (d : Pathlog.Diagnostic.t) ->
        Pathlog.Diagnostic.severity_rank d.severity
        >= Pathlog.Diagnostic.severity_rank deny)
      result.diagnostics
  in
  if json then print_endline (Pathlog.Check.to_json result)
  else begin
    List.iter
      (fun d -> print_endline (Pathlog.Diagnostic.to_string ~file d))
      result.diagnostics;
    List.iter print_endline result.estimates;
    if (not denied) && Pathlog.Check.ok result then begin
      Printf.printf "ok: %d rules, %d strata\n" result.n_rules
        result.n_strata;
      Option.iter
        (fun p ->
          Array.iteri
            (fun i rules ->
              List.iter
                (fun (r : Pathlog.Rule.t) ->
                  Format.printf "  stratum %d: %a@." i
                    Pathlog.Pretty.pp_rule r.source)
                rules)
            (Pathlog.Program.strata p))
        result.program
    end
  end;
  if denied then exit Pathlog.Err.exit_analysis

let explain_cmd file queries demand estimates =
  let p =
    with_errors None (fun () -> Pathlog.Program.of_string (read_file file))
  in
  let st = Pathlog.Program.store p in
  (* --estimates: annotate plan nodes with the abstract interpreter's
     predicted cardinalities; the plan itself is the one [run] executes *)
  let predicted =
    if estimates then
      Some
        (Pathlog.Absint.predicted
           (Pathlog.Absint.analyze ~facts:(Pathlog.Program.facts p) st
              (Pathlog.Program.rules p))
           st)
    else None
  in
  with_errors (Some st) (fun () ->
      if demand then
        (* the adorned, magic-transformed program per query — no
           evaluation happens *)
        List.iter
          (fun q ->
            Printf.printf "?- %s\n" q;
            List.iter print_endline
              (Pathlog.Program.explain_demand_string p q))
          queries
      else begin
        ignore (Pathlog.Program.run p);
        List.iter
          (fun q ->
            Printf.printf "?- %s\n" q;
            List.iteri
              (fun i line -> Printf.printf "  %d. %s\n" (i + 1) line)
              (Pathlog.Program.explain_string ?predicted p q))
          queries
      end)

let query_cmd file strategy queries =
  let p =
    with_errors None (fun () -> Pathlog.Program.of_string (read_file file))
  in
  let st = Pathlog.Program.store p in
  with_errors (Some st) (fun () ->
      List.iter
        (fun q ->
          let lits =
            match Pathlog.Parser.literals q with
            | lits -> lits
            | exception Pathlog.Parser.Error (pos, msg) ->
              Printf.eprintf "error: %s: %s\n"
                (Format.asprintf "%a" Pathlog.Token.pp_pos pos)
                msg;
              exit 1
          in
          match strategy with
          | "full" ->
            ignore (Pathlog.Program.run p);
            print_answer p q (Pathlog.Program.query p lits)
          | "demand" ->
            print_demand_answer p ~stats:false q
              (Pathlog.Program.query_demand p lits)
          | other ->
            Printf.eprintf "error: unknown strategy %s\n" other;
            exit 1)
        queries)

let why_cmd file queries =
  let p =
    with_errors None (fun () -> Pathlog.Program.of_string (read_file file))
  in
  let st = Pathlog.Program.store p in
  with_errors (Some st) (fun () ->
      ignore (Pathlog.Program.run p);
      let u = Pathlog.Program.universe p in
      List.iter
        (fun q ->
          match Pathlog.Program.why_string p q with
          | Some proof ->
            Format.printf "%a@." (Pathlog.Provenance.pp_proof u) proof
          | None -> Printf.printf "%s: not in the model\n" q)
        queries)

let lint_cmd file =
  let p =
    with_errors None (fun () -> Pathlog.Program.of_string (read_file file))
  in
  match Pathlog.Program.lint_types p with
  | [] -> print_endline "lint: no warnings"
  | warnings ->
    List.iter
      (fun w ->
        Format.printf "warning: %a@." Pathlog.Typecheck.pp_warning w)
      warnings;
    exit Pathlog.Err.exit_analysis

let fmt_cmd file normalize =
  let statements =
    match Pathlog.Parser.program (read_file file) with
    | stmts -> stmts
    | exception Pathlog.Parser.Error (pos, msg) ->
      Format.eprintf "error: %a: %s@." Pathlog.Token.pp_pos pos msg;
      exit 1
  in
  let statements =
    if not normalize then statements
    else
      List.map
        (function
          | Syntax.Ast.Rule r -> Syntax.Ast.Rule (Pathlog.Normalize.rule r)
          | Syntax.Ast.Query lits ->
            Syntax.Ast.Query (List.map Pathlog.Normalize.literal lits))
        statements
  in
  print_string (Pathlog.Pretty.program_to_string statements)

let repl_cmd file =
  let p =
    with_errors None (fun () ->
        match file with
        | Some f -> Pathlog.load (read_file f)
        | None -> Pathlog.load "")
  in
  let st = Pathlog.Program.store p in
  print_endline "PathLog interactive query shell. Enter queries, e.g.";
  print_endline "  ?- X : employee..vehicles.color[Z].";
  print_endline "Ctrl-D to exit.";
  let rec loop () =
    print_string "?- ";
    match read_line () with
    | exception End_of_file -> ()
    | "" -> loop ()
    | line ->
      (try
         let answer = Pathlog.Program.query_string p line in
         match answer with
         | { columns = []; rows } ->
           print_endline (if rows = [] then "no" else "yes")
         | { columns; rows } ->
           Printf.printf "%s\n" (String.concat "\t" columns);
           List.iter
             (fun row ->
               print_endline (Pathlog.Program.row_to_string p row))
             rows
       with
      | Pathlog.Program.Invalid msg -> Printf.eprintf "error: %s\n" msg
      | e -> (
        match Pathlog.Err.message st e with
        | Some msg -> Printf.eprintf "error: %s\n" msg
        | None -> raise e));
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* serve / connect — the concurrent query server and its client.       *)

let server_address ~host ~port ~unix_sock =
  match unix_sock with
  | Some path -> Pathlog.Server.Unix_path path
  | None -> Pathlog.Server.Tcp (host, port)

let serve_cmd file host port unix_sock workers queue max_request deadline jobs
    faults demand admit_cost data snapshot_every =
  (match faults with
  | None -> ()
  | Some spec -> (
    match Pathlog.Fault.configure_string spec with
    | Ok () ->
      Printf.eprintf "pathlog: fault injection armed: %s\n%!" spec
    | Error msg ->
      Printf.eprintf "error: bad --faults spec: %s\n" msg;
      exit Pathlog.Err.exit_load));
  let text = read_file file in
  (* Refuse to serve a program static analysis can already prove broken:
     a conflict or divergence found mid-flight would take the whole
     server down, not one request. *)
  let p =
    match Pathlog.Check.gate_program text with
    | Ok (p, _) -> p
    | Error msg ->
      Printf.eprintf "error: program refused by static analysis:\n%s\n" msg;
      exit Pathlog.Err.exit_analysis
  in
  (* the gate hands back the program it analysed; --demand serves it
     without materialising it: the first sight of each query fixpoints
     only its demanded fragment *)
  if not demand then
    with_errors None (fun () ->
        ignore (Pathlog.Program.run p : Pathlog.Fixpoint.stats));
  (* --jobs N with N > 1 turns on real parallelism end to end: the query
     pool is backed by N domains instead of threads (queries evaluate
     concurrently on the lock-free read path). *)
  let config =
    {
      Pathlog.Server.default_config with
      workers = (if jobs > 1 then jobs else workers);
      pool_domains = jobs > 1;
      queue_capacity = queue;
      max_request_bytes = max_request;
      deadline_s = deadline;
      demand;
      admit_cost;
      data_dir = data;
      snapshot_every;
    }
  in
  let srv =
    match
      Pathlog.Server.create ~config ~program:p
        (server_address ~host ~port ~unix_sock)
    with
    | srv -> srv
    | exception Failure msg ->
      (* a recovered snapshot refused by the analysis gate *)
      Printf.eprintf "error: %s\n" msg;
      exit Pathlog.Err.exit_analysis
  in
  Pathlog.Server.install_signal_handlers srv;
  (match data with
  | Some dir ->
    Format.printf
      "pathlog: durable under %s (WAL fsync'd per batch, snapshot every %d \
       batches); recovery replays behind the socket@."
      dir snapshot_every
  | None -> ());
  Format.printf
    "pathlog: serving %s%s on %a (%d %s, queue %d); SIGINT/SIGTERM drains@."
    file
    (if demand then " demand-driven" else "")
    Pathlog.Server.pp_address
    (Pathlog.Server.address srv)
    config.workers
    (if config.pool_domains then "domain workers" else "evaluation slots")
    queue;
  Pathlog.Server.serve srv;
  print_endline "pathlog: drained, bye"

let print_reply = function
  | Ok (Pathlog.Protocol.Ok lines) -> List.iter print_endline lines
  | Ok Pathlog.Protocol.Pong -> print_endline "PONG"
  | Ok (Pathlog.Protocol.Degraded lines) ->
    print_endline "DEGRADED (partial model; answers are sound, possibly incomplete)";
    List.iter print_endline lines
  | Ok (Pathlog.Protocol.Busy (retry_ms, msg)) ->
    Printf.printf "BUSY (retry after %dms) %s\n" retry_ms msg
  | Ok (Pathlog.Protocol.Err (code, msg)) ->
    Printf.printf "ERR %s %s\n" (Pathlog.Protocol.code_to_string code) msg
  | Error `Eof ->
    print_endline "error: server closed the connection";
    exit 1
  | Error (`Malformed msg) ->
    Printf.printf "error: malformed reply: %s\n" msg;
    exit 1

let is_raw_request line =
  match String.index_opt (line ^ " ") ' ' with
  | None -> false
  | Some i -> (
    match String.uppercase_ascii (String.sub line 0 i) with
    | "PING" | "STATS" | "QUERY" | "WHY" | "ASSERT" | "RETRACT"
    | "SUBSCRIBE" | "QUIT" ->
      true
    | _ -> false)

(* Drain DELTA frames pushed to this session's subscriptions. Called
   between REPL turns; non-blocking beyond [timeout_s]. *)
let drain_deltas c =
  let rec go () =
    match Pathlog.Client.next_delta ~timeout_s:0.05 c with
    | None -> ()
    | Some d ->
      List.iter
        (fun r -> Printf.printf "DELTA %d + %s\n" d.Pathlog.Protocol.sub_id r)
        d.Pathlog.Protocol.appeared;
      List.iter
        (fun r -> Printf.printf "DELTA %d - %s\n" d.Pathlog.Protocol.sub_id r)
        d.Pathlog.Protocol.vanished;
      go ()
  in
  go ()

let connect_cmd host port unix_sock queries =
  let addr = server_address ~host ~port ~unix_sock in
  let c =
    match Pathlog.Client.connect addr with
    | c -> c
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "error: cannot connect to %a: %s@."
        Pathlog.Server.pp_address addr (Unix.error_message e);
      exit 1
  in
  Fun.protect
    ~finally:(fun () -> Pathlog.Client.close c)
    (fun () ->
      if queries <> [] then
        List.iter
          (fun q ->
            print_reply
              (Pathlog.Client.request_with_retry c ("QUERY " ^ q)))
          queries
      else begin
        Format.printf
          "connected to %a; enter queries, or PING / STATS / WHY <fact> / \
           ASSERT <facts> / RETRACT <facts> / SUBSCRIBE <query> / QUIT. \
           Ctrl-D exits.@."
          Pathlog.Server.pp_address addr;
        let rec loop () =
          drain_deltas c;
          print_string "> ";
          match read_line () with
          | exception End_of_file -> ()
          | "" -> loop ()
          | line ->
            let line =
              if is_raw_request line then line else "QUERY " ^ line
            in
            print_reply (Pathlog.Client.request_with_retry c line);
            if String.uppercase_ascii (String.trim line) <> "QUIT" then
              loop ()
        in
        loop ()
      end)

(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let queries_arg =
  Arg.(
    value & opt_all string []
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Run $(docv) after loading.")

let dump_arg =
  Arg.(value & flag & info [ "dump" ] ~doc:"Dump the computed model.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print evaluation statistics.")

let naive_arg =
  Arg.(
    value & flag
    & info [ "naive" ] ~doc:"Use naive instead of semi-naive evaluation.")

let hilog_arg =
  Arg.(
    value & flag
    & info [ "hilog-virtual" ]
        ~doc:
          "Enumerate virtual objects for variable method positions (may \
           diverge; see DESIGN.md).")

let max_rounds_arg =
  Arg.(
    value & opt int 10_000
    & info [ "max-rounds" ] ~doc:"Fixpoint round budget per stratum.")

let max_objects_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-objects" ] ~doc:"Universe size budget.")

let types_arg =
  Arg.(
    value & flag
    & info [ "types" ] ~doc:"Check the model against signature declarations.")

(* A plain usage error on a bad count — not a PL diagnostic; there is no
   program to analyse yet when the flag is parsed. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg "must be an integer >= 1")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv Pathlog.Fixpoint.default_config.jobs
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate fixpoint rounds on N domains in parallel (1 = the \
           sequential engine; default from \\$PATHLOG_JOBS).")

let run_deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock evaluation budget. When it expires mid-evaluation \
           the run stops cooperatively, keeps the sound partial model \
           derived so far, prints a degraded notice, and exits 1.")

let demand_arg =
  Arg.(
    value & flag
    & info [ "demand" ]
        ~doc:
          "Demand-driven evaluation: skip full materialisation and answer \
           each query over only the fragment its bound receivers demand \
           (magic-sets transform; falls back to a full run on negation, \
           inclusion or hilog).")

let run_t =
  Term.(
    const run_cmd $ file_arg $ queries_arg $ dump_arg $ stats_arg $ naive_arg
    $ hilog_arg $ max_rounds_arg $ max_objects_arg $ types_arg $ jobs_arg
    $ run_deadline_arg $ demand_arg)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the diagnostics as a JSON object.")

let deny_arg =
  let levels =
    Arg.enum
      [
        ("error", Pathlog.Diagnostic.Error);
        ("warning", Pathlog.Diagnostic.Warning);
        ("hint", Pathlog.Diagnostic.Hint);
      ]
  in
  Arg.(
    value
    & opt levels Pathlog.Diagnostic.Error
    & info [ "deny" ] ~docv:"LEVEL"
        ~doc:
          "Exit non-zero when a diagnostic at or above $(docv) is reported \
           (error, warning, or hint; default error).")

let estimates_arg =
  Arg.(
    value & flag
    & info [ "estimates" ]
        ~doc:
          "Print the abstract interpreter's predicted cardinalities: \
           per-relation bounds, per-rule firing bounds, and per-stratum \
           termination verdicts.")

let card_threshold_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "card-threshold" ] ~docv:"N"
        ~doc:
          "PL051 threshold: warn when the predicted derivation count \
           exceeds $(docv) (default 1000000).")

let check_t =
  Term.(
    const check_cmd $ file_arg $ json_arg $ deny_arg $ estimates_arg
    $ card_threshold_arg)

let repl_file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")

let repl_t = Term.(const repl_cmd $ repl_file_arg)

let explain_demand_arg =
  Arg.(
    value & flag
    & info [ "demand" ]
        ~doc:
          "Print the adorned, magic-transformed program the demand-driven \
           evaluator would run for each query.")

let explain_t =
  Term.(
    const explain_cmd $ file_arg $ queries_arg $ explain_demand_arg
    $ estimates_arg)

let lint_t = Term.(const lint_cmd $ file_arg)

let why_t = Term.(const why_cmd $ file_arg $ queries_arg)

let strategy_arg =
  Arg.(
    value
    & opt string "full"
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Evaluation strategy: full (materialise the model, then answer) \
           or demand (magic-sets evaluation of only what the query \
           demands).")

let query_t = Term.(const query_cmd $ file_arg $ strategy_arg $ queries_arg)

let normalize_arg =
  Arg.(
    value & flag
    & info [ "normalize" ]
        ~doc:
          "Also normalise references (drop redundant parentheses and self \
           steps, sort and deduplicate filter chains).")

let fmt_t = Term.(const fmt_cmd $ file_arg $ normalize_arg)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host to bind/connect to.")

let port_arg =
  Arg.(
    value & opt int 7411
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 binds an ephemeral port).")

let unix_sock_arg =
  Arg.(
    value & opt (some string) None
    & info [ "unix" ] ~docv:"PATH"
        ~doc:"Serve on a unix-domain socket instead of TCP.")

let workers_arg =
  Arg.(
    value & opt int Pathlog.Server.default_config.workers
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "At most N QUERY/WHY evaluations at once, each run in its \
           session's own thread (with --jobs, the number of domains).")

let queue_arg =
  Arg.(
    value & opt int Pathlog.Server.default_config.queue_capacity
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Requests that may wait for an evaluation slot; requests beyond \
           it are shed with BUSY.")

let max_request_arg =
  Arg.(
    value & opt int Pathlog.Server.default_config.max_request_bytes
    & info [ "max-request" ] ~docv:"BYTES"
        ~doc:"Request line size limit (TOOLARGE beyond it).")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-request deadline; requests that wait longer for an \
           evaluation slot are answered ERR TIMEOUT, and evaluations still \
           running at it are cancelled.")

let serve_jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate queries on N domains instead of the session threads \
           (N > 1): parallel query evaluation on the lock-free read path.")

let faults_arg =
  Arg.(
    value & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault injection, e.g. \
           'seed=42;wire_write:short@0.01;solver_step:delay@0.001:2'. \
           Same grammar as \\$PATHLOG_FAULTS; see lib/fault.")

let admit_cost_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "admit-cost" ] ~docv:"BOUND"
        ~doc:
          "Admission control: refuse queries whose statically predicted \
           derivation count exceeds $(docv) with ERR COST, before any \
           evaluation starts.")

let data_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data" ] ~docv:"DIR"
        ~doc:
          "Durability: keep a write-ahead log and epoch snapshots under \
           $(docv) (created if missing). Every accepted ASSERT/RETRACT is \
           fsync'd before its OK; restarting with the same $(docv) \
           recovers every acknowledged batch (snapshot + WAL replay, torn \
           tail truncated). Clients are answered BUSY while the replay \
           runs.")

let snapshot_every_arg =
  Arg.(
    value & opt int 64
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "With --data: cut a snapshot every $(docv) committed batches (0 \
           disables periodic snapshots; the WAL alone still recovers \
           everything).")

let serve_t =
  Term.(
    const serve_cmd $ file_arg $ host_arg $ port_arg $ unix_sock_arg
    $ workers_arg $ queue_arg $ max_request_arg $ deadline_arg
    $ serve_jobs_arg $ faults_arg $ demand_arg $ admit_cost_arg $ data_arg
    $ snapshot_every_arg)

let connect_t =
  Term.(const connect_cmd $ host_arg $ port_arg $ unix_sock_arg $ queries_arg)

let () =
  let info =
    Cmd.info "pathlog" ~version:"1.0.0"
      ~doc:"PathLog: access to objects by path expressions and rules"
  in
  let cmds =
    Cmd.group info
      [
        Cmd.v (Cmd.info "run" ~doc:"Evaluate a program and its queries") run_t;
        Cmd.v
          (Cmd.info "check"
             ~doc:
               "Run the full static analysis: well-formedness, \
                stratification, type lint, skolem-cycle, dead-rule and \
                scalar-conflict detection")
          check_t;
        Cmd.v (Cmd.info "repl" ~doc:"Interactive query shell") repl_t;
        Cmd.v
          (Cmd.info "explain" ~doc:"Show the evaluation plan for queries")
          explain_t;
        Cmd.v
          (Cmd.info "lint"
             ~doc:"Statically check rule heads against signatures")
          lint_t;
        Cmd.v
          (Cmd.info "why" ~doc:"Show the proof tree of a derived fact")
          why_t;
        Cmd.v
          (Cmd.info "query"
             ~doc:
               "Answer queries with a chosen evaluation strategy (full, \
                demand)")
          query_t;
        Cmd.v
          (Cmd.info "fmt"
             ~doc:"Reprint a program in canonical concrete syntax")
          fmt_t;
        Cmd.v
          (Cmd.info "serve"
             ~doc:
               "Materialise a program once and serve concurrent queries \
                over TCP or a unix socket")
          serve_t;
        Cmd.v
          (Cmd.info "connect"
             ~doc:"Connect to a running pathlog server (one-shot or REPL)")
          connect_t;
      ]
  in
  exit (Cmd.eval cmds)
