(* An entry lives in one slot of the clock for as long as it is cached;
   [referenced] is its second chance. *)
type entry = {
  key : string;
  slot : int;
  mutable epoch : int;
  mutable reply : Protocol.reply;
  mutable referenced : bool;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  slots : entry option array;
  (* empty slots: never used, or emptied by a stale lookup *)
  mutable free : int list;
  mutable hand : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stale : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Qcache.create: capacity < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    slots = Array.make capacity None;
    free = List.init capacity Fun.id;
    hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stale = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~epoch key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e when e.epoch = epoch ->
        t.hits <- t.hits + 1;
        e.referenced <- true;
        Some e.reply
      | Some e ->
        Hashtbl.remove t.table key;
        t.slots.(e.slot) <- None;
        t.free <- e.slot :: t.free;
        t.misses <- t.misses + 1;
        t.stale <- t.stale + 1;
        None
      | None ->
        t.misses <- t.misses + 1;
        None)

(* The hand sweeps the full clock: a referenced entry loses its bit and
   is passed over, the first unreferenced one is evicted. Two turns at
   most. *)
let rec evict t =
  let i = t.hand in
  t.hand <- (i + 1) mod Array.length t.slots;
  match t.slots.(i) with
  | Some e when e.referenced ->
    e.referenced <- false;
    evict t
  | Some e ->
    Hashtbl.remove t.table e.key;
    t.evictions <- t.evictions + 1;
    i
  | None -> i

let add t ~epoch key reply =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.epoch <- epoch;
        e.reply <- reply
      | None ->
        let slot =
          match t.free with
          | i :: rest ->
            t.free <- rest;
            i
          | [] -> evict t
        in
        let e = { key; slot; epoch; reply; referenced = false } in
        t.slots.(slot) <- Some e;
        Hashtbl.replace t.table key e)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  stale : int;
}

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        evictions = t.evictions;
        stale = t.stale;
      })
