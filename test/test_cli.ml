(* End-to-end tests of the command-line driver: run the real binary on the
   shipped programs and check its output and exit codes. *)

let find_file candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "not found: %s" (String.concat ", " candidates)

let cli () =
  find_file
    [ "../bin/pathlog_cli.exe"; "_build/default/bin/pathlog_cli.exe" ]

let plg name =
  find_file
    [ "../examples/programs/" ^ name;
      "examples/programs/" ^ name;
      "_build/default/examples/programs/" ^ name ]

(* Run the CLI, return (exit code, combined output). *)
let run_cli args =
  let out = Filename.temp_file "pathlog_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote (cli ()))
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let contains = Helpers.contains

let test_run_genealogy () =
  let code, out = run_cli [ "run"; plg "genealogy.plg"; "--stats" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "stats line" true (contains ~sub:"% strata" out);
  Alcotest.(check bool) "embedded query answered" true
    (contains ~sub:"(5 answers)" out);
  Alcotest.(check bool) "sally in closure" true (contains ~sub:"sally" out)

let test_run_query_flag () =
  let code, out =
    run_cli [ "run"; plg "genealogy.plg"; "-q"; "tim[desc ->> {X}]" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "answer" true (contains ~sub:"sally" out)

let test_run_types_flag () =
  let code, out = run_cli [ "run"; plg "university.plg"; "--types" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "types ok" true (contains ~sub:"types: ok" out)

let test_run_dump () =
  let code, out = run_cli [ "run"; plg "addresses.plg"; "--dump" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "dump has skolem fact" true
    (contains ~sub:"alice.address[street -> mainSt]." out)

let test_check_shows_strata () =
  let code, out = run_cli [ "check"; plg "university.plg" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "strata header" true (contains ~sub:"2 strata" out);
  Alcotest.(check bool) "stratum 1 rule shown" true
    (contains ~sub:"stratum 1" out)

let test_explain () =
  let code, out =
    run_cli [ "explain"; plg "genealogy.plg"; "-q"; "peter[desc ->> {X}]" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "plan step" true (contains ~sub:"1." out);
  Alcotest.(check bool) "access path" true (contains ~sub:"lookup" out)

let test_why () =
  let code, out =
    run_cli [ "why"; plg "genealogy.plg"; "-q"; "peter[desc ->> {sally}]" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "proof leaf" true
    (contains ~sub:"tim[kids ->> {sally}]   (fact)" out)

let test_error_exit_code () =
  let bad = Filename.temp_file "bad" ".plg" in
  let oc = open_out bad in
  output_string oc "X[a -> 1] <- y.\n";
  (* unsafe head var *)
  close_out oc;
  let code, out = run_cli [ "run"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "exit 2 (load error)" 2 code;
  Alcotest.(check bool) "error message" true (contains ~sub:"error:" out)

let test_conflict_reported () =
  let bad = Filename.temp_file "bad" ".plg" in
  let oc = open_out bad in
  output_string oc "x[m -> a]. x[m -> b].\n";
  close_out oc;
  let code, out = run_cli [ "run"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "exit 1 (runtime error)" 1 code;
  Alcotest.(check bool) "conflict message" true
    (contains ~sub:"already yields" out)

let suite =
  [
    Alcotest.test_case "run genealogy" `Quick test_run_genealogy;
    Alcotest.test_case "run -q" `Quick test_run_query_flag;
    Alcotest.test_case "run --types" `Quick test_run_types_flag;
    Alcotest.test_case "run --dump" `Quick test_run_dump;
    Alcotest.test_case "check strata" `Quick test_check_shows_strata;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "why proof" `Quick test_why;
    Alcotest.test_case "error exit code" `Quick test_error_exit_code;
    Alcotest.test_case "conflict reported" `Quick test_conflict_reported;
  ]

(* appended: the query subcommand strategies *)

let test_query_strategies () =
  List.iter
    (fun strategy ->
      let code, out =
        run_cli
          [ "query"; plg "genealogy.plg"; "-s"; strategy; "-q";
            "tim[desc ->> {X}]" ]
      in
      Alcotest.(check int) (strategy ^ " exit") 0 code;
      Alcotest.(check bool) (strategy ^ " answer") true
        (contains ~sub:"sally" out))
    [ "full"; "demand" ]

let test_query_bad_strategy () =
  List.iter
    (fun strategy ->
      let code, _ =
        run_cli
          [ "query"; plg "genealogy.plg"; "-s"; strategy; "-q";
            "tim[desc ->> {X}]" ]
      in
      Alcotest.(check int) (strategy ^ " exits 1") 1 code)
    [ "quantum"; "focused"; "topdown" ]

let suite =
  suite
  @ [
      Alcotest.test_case "query strategies" `Quick test_query_strategies;
      Alcotest.test_case "query bad strategy" `Quick test_query_bad_strategy;
    ]

(* appended: fmt subcommand *)

let test_fmt_roundtrip () =
  let code, out = run_cli [ "fmt"; plg "university.plg" ] in
  Alcotest.(check int) "exit 0" 0 code;
  (* formatted output reparses to the same statements *)
  let original =
    Pathlog.Parser.program
      (let ic = open_in_bin (plg "university.plg") in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic)))
  in
  let reparsed = Pathlog.Parser.program out in
  Alcotest.(check int) "same statement count" (List.length original)
    (List.length reparsed);
  Alcotest.(check bool) "same statements" true
    (List.for_all2 Syntax.Ast.equal_statement original reparsed)

let test_fmt_normalize_idempotent () =
  let _, once = run_cli [ "fmt"; plg "company.plg"; "--normalize" ] in
  let tmp = Filename.temp_file "fmt" ".plg" in
  let oc = open_out tmp in
  output_string oc once;
  close_out oc;
  let _, twice = run_cli [ "fmt"; tmp; "--normalize" ] in
  Sys.remove tmp;
  Alcotest.(check string) "fmt --normalize is idempotent" once twice

let suite =
  suite
  @ [
      Alcotest.test_case "fmt roundtrip" `Quick test_fmt_roundtrip;
      Alcotest.test_case "fmt normalize idempotent" `Quick
        test_fmt_normalize_idempotent;
    ]

(* appended: the static-analysis side of the check subcommand *)

let with_program text f =
  let tmp = Filename.temp_file "check" ".plg" in
  let oc = open_out tmp in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> f tmp)

let test_check_clean_examples () =
  List.iter
    (fun name ->
      let code, out = run_cli [ "check"; "--deny"; "warning"; plg name ] in
      Alcotest.(check int) (name ^ " exit") 0 code;
      Alcotest.(check bool) (name ^ " ok line") true (contains ~sub:"ok:" out))
    [
      "addresses.plg"; "company.plg"; "genealogy.plg"; "lists.plg";
      "university.plg";
    ]

let test_check_conflict_exit () =
  with_program "x[m -> a].\nx[m -> b].\n" (fun file ->
      let code, out = run_cli [ "check"; file ] in
      Alcotest.(check int) "exit 3 (analysis)" 3 code;
      Alcotest.(check bool) "PL040 reported" true (contains ~sub:"PL040" out);
      Alcotest.(check bool) "span shown" true
        (contains ~sub:"line 2, columns 1-10" out))

let test_check_deny_warning () =
  with_program "x : nat.\nX.succ : nat <- X : nat.\n" (fun file ->
      (* default deny level lets warnings through *)
      let code, out = run_cli [ "check"; file ] in
      Alcotest.(check int) "warning passes by default" 0 code;
      Alcotest.(check bool) "PL030 reported" true (contains ~sub:"PL030" out);
      let code, _ = run_cli [ "check"; "--deny"; "warning"; file ] in
      Alcotest.(check int) "denied at warning" 3 code)

let test_check_json () =
  with_program "x[m -> a].\nx[m -> b].\n" (fun file ->
      let code, out = run_cli [ "check"; "--json"; file ] in
      Alcotest.(check int) "exit 3" 3 code;
      Alcotest.(check bool) "ok field" true (contains ~sub:"\"ok\":false" out);
      Alcotest.(check bool) "code field" true
        (contains ~sub:"\"code\":\"PL040\"" out);
      Alcotest.(check bool) "span object" true
        (contains ~sub:"\"span\":{\"start\":{\"line\":2" out))

let test_check_parse_error () =
  with_program "x[m ->\n" (fun file ->
      let code, out = run_cli [ "check"; file ] in
      Alcotest.(check int) "exit 3" 3 code;
      Alcotest.(check bool) "PL001 reported" true (contains ~sub:"PL001" out))

let broken_plg name =
  find_file
    [ "../examples/broken/" ^ name;
      "examples/broken/" ^ name;
      "_build/default/examples/broken/" ^ name ]

(* run --deadline on a divergent program: the budget must stop the run,
   print a partial-model notice, and exit with Err.exit_runtime — while
   the hard divergence guards are pushed out of the way so it is really
   the wall-clock budget that fires. *)
let test_run_deadline_degrades () =
  let code, out =
    run_cli
      [
        "run"; broken_plg "runaway_pairs.plg";
        "--deadline"; "0.1";
        "--max-rounds"; "1000000";
        "--max-objects"; "1000000000";
      ]
  in
  Alcotest.(check int) "exit_runtime" Pathlog.Err.exit_runtime code;
  Alcotest.(check bool) "degraded notice" true
    (contains ~sub:"degraded" out);
  Alcotest.(check bool) "partial-model wording" true
    (contains ~sub:"sound partial model" out);
  Alcotest.(check bool) "names the reason" true
    (contains ~sub:"timeout" out)

(* and without --deadline the same program trips the hard divergence
   guard instead: also exit 1, but as an error, not a degraded notice *)
let test_run_divergent_hard_guard () =
  let code, out =
    run_cli
      [ "run"; broken_plg "runaway_pairs.plg"; "--max-objects"; "5000" ]
  in
  Alcotest.(check int) "exit_runtime" Pathlog.Err.exit_runtime code;
  Alcotest.(check bool) "diverged error" true
    (contains ~sub:"error" out);
  Alcotest.(check bool) "no degraded notice" false
    (contains ~sub:"degraded" out)

let demand_chain_text =
  "a0[boss -> a1].\na1[boss -> a2].\nb0[boss -> b1].\n\
   X[up ->> {Y}] <- X[boss -> Y].\n\
   X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].\n\
   ?- a0[up ->> {W}].\n"

let test_run_demand () =
  with_program demand_chain_text (fun file ->
      let code, out =
        run_cli
          [ "run"; file; "--demand"; "--stats"; "-q"; "b0[up ->> {X}]" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "demand stats line" true
        (contains ~sub:"% demand:" out);
      Alcotest.(check bool) "guarded rules counted" true
        (contains ~sub:"2 guarded" out);
      Alcotest.(check bool) "embedded query answered" true
        (contains ~sub:"(2 answers)" out);
      Alcotest.(check bool) "flag query answered" true
        (contains ~sub:"(1 answers)" out))

let test_explain_demand () =
  with_program demand_chain_text (fun file ->
      let code, out =
        run_cli [ "explain"; file; "--demand"; "-q"; "a0[up ->> {X}]" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "magic seeds" true
        (contains ~sub:"magic seeds" out);
      Alcotest.(check bool) "magic predicate" true
        (contains ~sub:"magic$set$up" out);
      Alcotest.(check bool) "adornment shown" true
        (contains ~sub:"bound-receiver" out))

let test_serve_bad_faults_spec () =
  let code, out =
    run_cli
      [
        "serve"; broken_plg "runaway_pairs.plg";
        "--faults"; "nowhere:explode@1.0";
      ]
  in
  Alcotest.(check int) "exit_load" Pathlog.Err.exit_load code;
  Alcotest.(check bool) "spec error reported" true
    (contains ~sub:"bad --faults spec" out)

(* [serve] drains on SIGTERM: the stop request is seen even while every
   thread blocks in a system call (the accept loop waits in [select]
   with no timeout). Three cycles of start, one QUERY, SIGTERM; each
   must exit 0 with the drain line, well inside the 10 s limit. *)
let test_serve_drains_on_sigterm () =
  let cycle () =
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process (cli ())
        [| cli (); "serve"; plg "company.plg"; "--port"; "0" |]
        Unix.stdin out_w out_w
    in
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    let rec banner () =
      let line = input_line ic in
      match String.index_opt line ':' with
      | Some _ when contains ~sub:"pathlog: serving" line ->
        let port = String.sub line (String.rindex line ':' + 1) 6 in
        int_of_string (List.hd (String.split_on_char ' ' port))
      | _ -> banner ()
    in
    let port = banner () in
    let c = Pathlog.Client.connect (Pathlog.Server.Tcp ("127.0.0.1", port)) in
    Alcotest.(check bool) "served" true
      (Pathlog.Client.query c "?- e1 : employee." = Ok [ "yes" ]);
    Pathlog.Client.close c;
    Unix.kill pid Sys.sigterm;
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        wait ()
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "serve did not exit within 10 s of SIGTERM"
      | _, status -> status
    in
    let status = wait () in
    let rest = In_channel.input_all ic in
    close_in ic;
    Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
    Alcotest.(check bool) "drained" true (contains ~sub:"drained, bye" rest)
  in
  for _ = 1 to 3 do
    cycle ()
  done

(* The fact statements of a [run --dump] output (answers and comments
   dropped), sorted. *)
let dump_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         l <> "" && l.[0] <> '?' && l.[0] <> '%'
         && l.[String.length l - 1] = '.')
  |> List.sort compare

(* [run --demand --dump] prints the demanded fragment without the
   demand transform's magic tuples, and the dump reloads to itself. *)
let test_run_demand_dump () =
  with_program
    "a[f -> b]. b[f -> c].\nX[twice -> Z] <- X[f -> Y], Y[f -> Z].\n\
     ?- a[twice -> Z].\n"
    (fun file ->
      let code, out = run_cli [ "run"; "--demand"; file; "--dump" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "answered on demand" true
        (contains ~sub:"a[twice -> c]." out);
      Alcotest.(check bool) "no magic tuple" false (contains ~sub:"$" out);
      let dump = dump_lines out in
      with_program (String.concat "\n" dump) (fun reload ->
          let code, out = run_cli [ "run"; reload; "--dump" ] in
          Alcotest.(check int) "reload exit 0" 0 code;
          Alcotest.(check (list string)) "reload dumps the same facts" dump
            (dump_lines out)))

let suite =
  suite
  @ [
      Alcotest.test_case "run --demand --dump" `Quick test_run_demand_dump;
      Alcotest.test_case "check clean examples" `Quick
        test_check_clean_examples;
      Alcotest.test_case "check conflict exit" `Quick test_check_conflict_exit;
      Alcotest.test_case "check --deny warning" `Quick test_check_deny_warning;
      Alcotest.test_case "check --json" `Quick test_check_json;
      Alcotest.test_case "check parse error" `Quick test_check_parse_error;
      Alcotest.test_case "run --deadline degrades divergent program" `Quick
        test_run_deadline_degrades;
      Alcotest.test_case "run without deadline trips the hard guard" `Quick
        test_run_divergent_hard_guard;
      Alcotest.test_case "serve rejects a bad --faults spec" `Quick
        test_serve_bad_faults_spec;
      Alcotest.test_case "serve drains on SIGTERM" `Quick
        test_serve_drains_on_sigterm;
      Alcotest.test_case "run --demand" `Quick test_run_demand;
      Alcotest.test_case "explain --demand" `Quick test_explain_demand;
    ]
