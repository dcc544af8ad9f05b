type request =
  | Ping
  | Stats
  | Query of string
  | Why of string
  | Assert of string
  | Retract of string
  | Subscribe of string
  | Quit

type error_code =
  | Parse
  | Badreq
  | Toolarge
  | Timeout
  | Cancelled
  | Analysis
  | Cost
  | Internal

let code_to_string = function
  | Parse -> "PARSE"
  | Badreq -> "BADREQ"
  | Toolarge -> "TOOLARGE"
  | Timeout -> "TIMEOUT"
  | Cancelled -> "CANCELLED"
  | Analysis -> "ANALYSIS"
  | Cost -> "COST"
  | Internal -> "INTERNAL"

let code_of_string = function
  | "PARSE" -> Some Parse
  | "BADREQ" -> Some Badreq
  | "TOOLARGE" -> Some Toolarge
  | "TIMEOUT" -> Some Timeout
  | "CANCELLED" -> Some Cancelled
  | "ANALYSIS" -> Some Analysis
  | "COST" -> Some Cost
  | "INTERNAL" -> Some Internal
  | _ -> None

let verb = function
  | Ping -> "PING"
  | Stats -> "STATS"
  | Query _ -> "QUERY"
  | Why _ -> "WHY"
  | Assert _ -> "ASSERT"
  | Retract _ -> "RETRACT"
  | Subscribe _ -> "SUBSCRIBE"
  | Quit -> "QUIT"

(* Split "VERB rest" on the first run of blanks; the verb is
   case-insensitive, the argument is passed through verbatim. *)
let split_verb line =
  let n = String.length line in
  let rec scan i = if i < n && line.[i] <> ' ' && line.[i] <> '\t' then scan (i + 1) else i in
  let stop = scan 0 in
  let rec skip i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip (i + 1) else i in
  let rest_at = skip stop in
  (String.uppercase_ascii (String.sub line 0 stop),
   String.sub line rest_at (n - rest_at))

let parse_request line =
  let line = String.trim line in
  if line = "" then Stdlib.Error (Badreq, "empty request")
  else
    let v, arg = split_verb line in
    match v with
    | "PING" -> Stdlib.Ok Ping
    | "STATS" -> Stdlib.Ok Stats
    | "QUIT" -> Stdlib.Ok Quit
    | "QUERY" ->
      if arg = "" then Stdlib.Error (Badreq, "QUERY needs a query")
      else Stdlib.Ok (Query arg)
    | "WHY" ->
      if arg = "" then Stdlib.Error (Badreq, "WHY needs a fact")
      else Stdlib.Ok (Why arg)
    | "ASSERT" ->
      if arg = "" then Stdlib.Error (Badreq, "ASSERT needs statements")
      else Stdlib.Ok (Assert arg)
    | "RETRACT" ->
      if arg = "" then Stdlib.Error (Badreq, "RETRACT needs statements")
      else Stdlib.Ok (Retract arg)
    | "SUBSCRIBE" ->
      if arg = "" then Stdlib.Error (Badreq, "SUBSCRIBE needs a query")
      else Stdlib.Ok (Subscribe arg)
    | other -> Stdlib.Error (Badreq, "unknown verb " ^ other)

type reply =
  | Pong
  | Ok of string list
  | Degraded of string list
  | Busy of int * string
  | Err of error_code * string

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let breaks_line l = String.exists (function '\n' | '\r' -> true | _ -> false) l

(* Payload lines with embedded newlines become several frame lines, keeping
   the OK count honest; a carriage return becomes a space. Lines that hold
   neither, the usual case for answers and proofs, pass through
   uncopied. *)
let flatten_payload lines =
  if not (List.exists breaks_line lines) then lines
  else
    List.concat_map
      (fun l ->
        if not (breaks_line l) then [ l ]
        else
          String.split_on_char '\n' l
          |> List.map (String.map (function '\r' -> ' ' | c -> c)))
      lines

let render_reply reply =
  let b = Buffer.create 128 in
  let counted header lines =
    let lines = flatten_payload lines in
    Buffer.add_string b header;
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int (List.length lines));
    Buffer.add_char b '\n';
    List.iter
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      lines
  in
  (match reply with
  | Pong -> Buffer.add_string b "PONG\n"
  | Busy (retry_after_ms, msg) ->
    Buffer.add_string b
      (Printf.sprintf "BUSY %d %s\n" (max 0 retry_after_ms) (one_line msg))
  | Err (code, msg) ->
    Buffer.add_string b ("ERR " ^ code_to_string code ^ " " ^ one_line msg ^ "\n")
  | Ok lines -> counted "OK" lines
  | Degraded lines -> counted "DEGRADED" lines);
  Buffer.contents b

(* A DELTA frame is pushed by the server to subscribers after a committed
   mutation batch: "DELTA <id> <n>" followed by exactly <n> signed lines
   ("+ <row>" for answers that appeared, "- <row>" for answers that
   vanished). It can arrive between a request and its reply, so clients
   read frames, not replies. *)
type delta = {
  sub_id : int;
  appeared : string list;
  vanished : string list;
}

let render_delta d =
  let b = Buffer.create 128 in
  let signed sign rows = List.map (fun r -> sign ^ " " ^ one_line r) rows in
  let lines = signed "+" d.appeared @ signed "-" d.vanished in
  Buffer.add_string b
    (Printf.sprintf "DELTA %d %d\n" d.sub_id (List.length lines));
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

type frame = Reply of reply | Delta of delta

let collect_payload ic n wrap =
  let rec collect acc k =
    if k = 0 then Stdlib.Ok (wrap (List.rev acc))
    else
      match input_line ic with
      | exception End_of_file -> Stdlib.Error (`Malformed "truncated payload")
      | l -> collect (l :: acc) (k - 1)
  in
  collect [] n

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> Stdlib.Error `Eof
  | header -> (
    let header = String.trim header in
    let v, rest = split_verb header in
    let counted wrap =
      match int_of_string_opt (String.trim rest) with
      | None -> Stdlib.Error (`Malformed ("bad payload count " ^ rest))
      | Some n when n < 0 -> Stdlib.Error (`Malformed "negative payload count")
      | Some n -> collect_payload ic n wrap
    in
    match v with
    | "PONG" -> Stdlib.Ok (Reply Pong)
    | "BUSY" -> (
      (* BUSY <retry-after-ms> <message>; a missing or non-numeric hint
         degrades to 0 (retry whenever), keeping old peers readable *)
      let first, msg = split_verb rest in
      match int_of_string_opt first with
      | Some ms -> Stdlib.Ok (Reply (Busy (max 0 ms, msg)))
      | None -> Stdlib.Ok (Reply (Busy (0, rest))))
    | "ERR" -> (
      let c, msg = split_verb rest in
      match code_of_string c with
      | Some code -> Stdlib.Ok (Reply (Err (code, msg)))
      | None -> Stdlib.Error (`Malformed ("unknown error code " ^ c)))
    | "OK" -> counted (fun lines -> Reply (Ok lines))
    | "DEGRADED" -> counted (fun lines -> Reply (Degraded lines))
    | "DELTA" -> (
      let id_s, count_s = split_verb rest in
      match (int_of_string_opt id_s, int_of_string_opt (String.trim count_s)) with
      | Some id, Some n when n >= 0 ->
        collect_payload ic n (fun lines ->
            let appeared, vanished =
              List.fold_left
                (fun (app, van) l ->
                  let sign, row = split_verb l in
                  match sign with
                  | "+" -> (row :: app, van)
                  | "-" -> (app, row :: van)
                  | _ -> (app, van))
                ([], []) lines
            in
            Delta
              {
                sub_id = id;
                appeared = List.rev appeared;
                vanished = List.rev vanished;
              })
      | _ -> Stdlib.Error (`Malformed ("bad DELTA header " ^ rest)))
    | other -> Stdlib.Error (`Malformed ("unknown reply " ^ other)))

(* Read one reply, discarding any DELTA frames that arrive in between —
   the convenience entry point for clients that never subscribe. *)
let read_reply ic =
  let rec go () =
    match read_frame ic with
    | Stdlib.Ok (Reply r) -> Stdlib.Ok r
    | Stdlib.Ok (Delta _) -> go ()
    | Stdlib.Error e -> Stdlib.Error e
  in
  go ()

let input_line_bounded ic ~max =
  let b = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length b = 0 then Stdlib.Error `Eof
      else Stdlib.Ok (Buffer.contents b)
    | '\n' -> Stdlib.Ok (Buffer.contents b)
    | c ->
      if Buffer.length b >= max then begin
        (* drain the rest of the oversized line to stay framed *)
        let rec drain () =
          match input_char ic with
          | exception End_of_file -> ()
          | '\n' -> ()
          | _ -> drain ()
        in
        drain ();
        Stdlib.Error `Toolarge
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
  in
  go ()
