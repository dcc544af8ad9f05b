type backend = Threads | Domains

(* A one-shot mailbox: the caller parks on it while a domain worker
   computes the result, so every socket write stays in the caller. *)
module Ivar = struct
  type 'a t = {
    m : Mutex.t;
    c : Condition.t;
    mutable v : ('a, exn * Printexc.raw_backtrace) result option;
  }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let fill t v =
    Mutex.lock t.m;
    t.v <- Some v;
    Condition.broadcast t.c;
    Mutex.unlock t.m

  let read t =
    Mutex.lock t.m;
    while t.v = None do
      Condition.wait t.c t.m
    done;
    let v = Option.get t.v in
    Mutex.unlock t.m;
    match v with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
end

(* [Threads]: no workers at all. The caller evaluates in its own thread
   once it holds one of [workers] slots; a caller that finds every slot
   taken parks in [waiters] (FIFO) until a finishing caller hands its
   slot over. Threads share the runtime lock, so a worker thread would
   buy no parallelism, only a handoff per request.

   [Domains]: [workers] domains serve [jobs]; the caller hands its job
   over and parks on an {!Ivar} — real parallelism for CPU-bound query
   evaluation. *)
type t = {
  lock : Mutex.t;
  backend : backend;
  workers : int;
  capacity : int;
  mutable active : int;
      (* admitted and not finished (running + waiting), bounded by
         [workers + capacity] *)
  idle : Condition.t;  (* signalled when [active] drops to 0 *)
  (* Threads *)
  mutable running : int;  (* slots held *)
  waiters : (Condition.t * bool ref) Queue.t;
      (* callers waiting for a slot; the flag is set when one is handed
         over *)
  (* Domains *)
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable domains : unit Domain.t array;  (* emptied once joined *)
  mutable stopping : bool;
}

let domain_loop t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.jobs then Mutex.unlock t.lock (* stopping, drained *)
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.lock;
      job ();
      loop ()
    end
  in
  loop ()

let create ?(backend = Threads) ~workers ~capacity () =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  if capacity < 0 then invalid_arg "Pool.create: capacity < 0";
  let t =
    {
      lock = Mutex.create ();
      backend;
      workers;
      capacity;
      active = 0;
      idle = Condition.create ();
      running = 0;
      waiters = Queue.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      domains = [||];
      stopping = false;
    }
  in
  if backend = Domains then
    t.domains <- Array.init workers (fun _ -> Domain.spawn (domain_loop t));
  t

(* Called with [t.lock] held. *)
let finished t =
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.idle

(* A slot is only ever free while nobody waits: {!release_slot} hands it
   straight to the longest waiter. *)
let acquire_slot t =
  if t.running < t.workers then t.running <- t.running + 1
  else begin
    let c = Condition.create () and granted = ref false in
    Queue.push (c, granted) t.waiters;
    while not !granted do
      Condition.wait c t.lock
    done
  end

let release_slot t =
  match Queue.take_opt t.waiters with
  | Some (c, granted) ->
    granted := true;
    Condition.signal c
  | None -> t.running <- t.running - 1

let run_gated t f =
  acquire_slot t;
  Mutex.unlock t.lock;
  let release () =
    Mutex.lock t.lock;
    release_slot t;
    finished t;
    Mutex.unlock t.lock
  in
  match f () with
  | v ->
    release ();
    v
  | exception e ->
    release ();
    raise e

let run_on_domain t f =
  let ivar = Ivar.create () in
  let job () =
    let v =
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Ivar.fill ivar v;
    Mutex.lock t.lock;
    finished t;
    Mutex.unlock t.lock
  in
  Queue.push job t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  Ivar.read ivar

let run t f =
  Mutex.lock t.lock;
  (* [active] counts running + waiting requests: a free slot admits even
     with [capacity = 0], and at most [capacity] requests ever wait. *)
  if t.stopping || t.active >= t.workers + t.capacity then begin
    Mutex.unlock t.lock;
    None
  end
  else begin
    t.active <- t.active + 1;
    Some
      (match t.backend with
      | Threads -> run_gated t f
      | Domains -> run_on_domain t f)
  end

let workers t = t.workers

let capacity t = t.capacity

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  while t.active > 0 do
    Condition.wait t.idle t.lock
  done;
  let domains = t.domains in
  t.domains <- [||];
  Mutex.unlock t.lock;
  Array.iter Domain.join domains
