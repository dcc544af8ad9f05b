(* The server as its own process, and client connections driven from a
   single thread. Replies and DELTA frames are read from the raw sockets
   and timestamped as they are read; the closed loop waits in select(2)
   only, so no client-side scheduling sits inside a measured latency.
   Built on the server's public wire protocol ({!Pathlog.Protocol}). *)

module Protocol = Pathlog.Protocol

let now = Trace.now

type server = {
  pid : int;
  port : int;
  banner : in_channel;
}

let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* The banner line ends "... on 127.0.0.1:PORT (N thread workers, ...)". *)
let port_of_banner line =
  let key = " on 127.0.0.1:" in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = key then
      let j = ref (i + n) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub line (i + n) (!j - i - n))
    else find (i + 1)
  in
  find 0

(* Start [cli serve program args...] on an ephemeral port; returns once
   the server printed its listening banner. Server diagnostics go to
   [log]. *)
let spawn ~cli ~log ~program args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let log_fd =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let argv = Array.of_list (cli :: "serve" :: program :: "--port" :: "0" :: args) in
  let pid = Unix.create_process cli argv (Lazy.force dev_null) wr log_fd in
  Unix.close wr;
  Unix.close log_fd;
  let banner = Unix.in_channel_of_descr rd in
  let rec wait () =
    match input_line banner with
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      close_in_noerr banner;
      failwith ("server exited before listening; see " ^ log)
    | line -> (
      match port_of_banner line with Some port -> port | None -> wait ())
  in
  let port = wait () in
  { pid; port; banner }

(* Peak resident set of the server process, in MiB (VmHWM). *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Graceful stop: SIGTERM drains the server; SIGKILL after 30 s. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  close_in_noerr s.banner

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable partial : string;  (* bytes after the last newline read *)
  lines : (float * string) Queue.t;  (* read time and line, not yet framed *)
  mutable eof : bool;
  mutable deltas : (float * Protocol.delta) list;  (* arrival, newest first *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    fd;
    chunk = Bytes.create 65536;
    partial = "";
    lines = Queue.create ();
    eof = false;
    deltas = [];
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One read(2): what the socket holds now, split into lines stamped with
   the time they were read. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> c.eof <- true
  | n ->
    let t = now () in
    let parts = String.split_on_char '\n' (c.partial ^ Bytes.sub_string c.chunk 0 n) in
    let rec push = function
      | [ last ] -> c.partial <- last
      | l :: rest ->
        Queue.add (t, l) c.lines;
        push rest
      | [] -> c.partial <- ""
    in
    push parts
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> c.eof <- true

let split_word s =
  match String.index_opt s ' ' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "")

(* The next whole frame among the lines read so far, parsed as
   {!Protocol.read_frame} parses it, with the time its last line was
   read. *)
let take_frame c : (float * (Protocol.frame, string) result) option =
  match Queue.peek_opt c.lines with
  | None -> None
  | Some (t, header) -> (
    let v, rest = split_word (String.trim header) in
    let malformed () = Error ("malformed frame: " ^ header) in
    let counted n wrap =
      match n with
      | Some n when n >= 0 ->
        if Queue.length c.lines <= n then None
        else begin
          ignore (Queue.pop c.lines);
          let last = ref t in
          let payload =
            List.init n (fun _ ->
                let t, l = Queue.pop c.lines in
                last := t;
                l)
          in
          Some (!last, Ok (wrap payload))
        end
      | _ ->
        ignore (Queue.pop c.lines);
        Some (t, malformed ())
    in
    let single r =
      ignore (Queue.pop c.lines);
      Some (t, r)
    in
    match v with
    | "OK" -> counted (int_of_string_opt rest) (fun l -> Protocol.Reply (Protocol.Ok l))
    | "DEGRADED" ->
      counted (int_of_string_opt rest) (fun l -> Protocol.Reply (Protocol.Degraded l))
    | "DELTA" ->
      let id, n = split_word rest in
      counted (int_of_string_opt n) (fun lines ->
          let signed s =
            List.filter_map
              (fun l ->
                let sign, row = split_word l in
                if sign = s then Some row else None)
              lines
          in
          Protocol.Delta
            {
              sub_id = Option.value ~default:(-1) (int_of_string_opt id);
              appeared = signed "+";
              vanished = signed "-";
            })
    | "PONG" -> single (Ok (Protocol.Reply Protocol.Pong))
    | "BUSY" ->
      let ms, msg = split_word rest in
      single
        (Ok
           (Protocol.Reply
              (Protocol.Busy (Option.value ~default:0 (int_of_string_opt ms), msg))))
    | "ERR" -> (
      let code, msg = split_word rest in
      match Protocol.code_of_string code with
      | Some code -> single (Ok (Protocol.Reply (Protocol.Err (code, msg))))
      | None -> single (malformed ()))
    | _ -> single (malformed ()))

(* Take whole frames read so far up to the first reply: DELTA frames are
   kept with their arrival; returns the reply and its arrival. *)
let rec take_reply c =
  match take_frame c with
  | None -> if c.eof then Some (now (), Error "EOF") else None
  | Some (t, Ok (Protocol.Delta d)) ->
    c.deltas <- (t, d) :: c.deltas;
    take_reply c
  | Some (t, Ok (Protocol.Reply r)) -> Some (t, Ok r)
  | Some (t, Error e) -> Some (t, Error e)

let send c line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  match go 0 with () -> true | exception Unix.Unix_error _ -> false

(* One request and its reply, blocking; the latency runs from the send
   to the read that completed the reply frame. *)
let call c line =
  let t0 = now () in
  if not (send c line) then (Error "EOF", now () -. t0)
  else
    let rec wait () =
      match take_reply c with
      | Some (t, r) -> (r, t -. t0)
      | None ->
        fill c;
        wait ()
    in
    wait ()

type sample = {
  line : string;
  sent : float;
  latency : float;
  reply : (Protocol.reply, string) result;
}

type stream = {
  conn : conn;
  requests : string array;
  mutable next : int;
  mutable sent_at : float;
  samples : sample option array;
}

(* A closed loop over several connections from this one thread: each
   connection sends its next request as soon as the reply to the
   previous one is read, until its stream is done. A connection whose
   stream is done is still read until every stream is done, so DELTA
   frames are timestamped on arrival. Returns each stream's samples and
   the wall time until the last reply. *)
let closed_loop (streams : (conn * string array) list) =
  let st =
    List.map
      (fun (conn, requests) ->
        { conn; requests; next = 0; sent_at = 0.;
          samples = Array.make (Array.length requests) None })
      streams
  in
  let issue s =
    if s.next < Array.length s.requests then begin
      s.sent_at <- now ();
      if not (send s.conn s.requests.(s.next)) then s.conn.eof <- true
    end
  in
  let rec drain s =
    match take_reply s.conn with
    | Some (t, r) when s.next < Array.length s.requests ->
      s.samples.(s.next) <-
        Some { line = s.requests.(s.next); sent = s.sent_at; latency = t -. s.sent_at; reply = r };
      s.next <- s.next + 1;
      issue s;
      drain s
    | Some _ | None -> ()
  in
  let t0 = now () in
  List.iter issue st;
  let rec loop () =
    if List.exists (fun s -> s.next < Array.length s.requests) st then begin
      let fds = List.filter_map (fun s -> if s.conn.eof then None else Some s.conn.fd) st in
      let ready, _, _ =
        if fds = [] then ([], [], [])
        else
          try Unix.select fds [] [] (-1.)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun s ->
          if List.mem s.conn.fd ready then begin
            fill s.conn;
            drain s
          end
          else if s.conn.eof then drain s)
        st;
      loop ()
    end
  in
  loop ();
  let wall = now () -. t0 in
  (List.map (fun s -> Array.map Option.get s.samples) st, wall)

(* Drain a connection that may still carry DELTA frames: QUIT, then read
   to the end of the stream. *)
let finish c =
  ignore (call c "QUIT");
  while not c.eof do
    fill c;
    ignore (take_reply c)
  done

(* Connect and send [probe] until it is answered with something other
   than BUSY (recovery sheds requests with BUSY until the WAL suffix is
   in the model). *)
let await_ready port probe =
  let c = connect port in
  let rec go () =
    match call c probe with
    | Ok (Protocol.Busy _), _ ->
      Unix.sleepf 0.001;
      go ()
    | r, _ -> r
  in
  let r = go () in
  (c, r)
