(* An entry lives in one slot of the clock for as long as it is cached;
   [referenced] is its second chance. *)
type entry = {
  key : string;
  slot : int;
  mutable epoch : int;
  mutable frame : string;
  mutable referenced : bool;
}

(* What an entry costs beside its key and frame bytes, rounded to 16
   words: the entry block (6 words), its hash bucket (4), its clock slot
   with its [Some] box (3) and two string headers with their padding
   (about 3); the table's bucket array adds a word or two. *)
let entry_overhead = 128

type t = {
  lock : Mutex.t;
  budget : int;
  table : (string, entry) Hashtbl.t;
  mutable slots : entry option array;
      (* grows with the entries, never past twice their peak count *)
  mutable used : int;  (* slots ever filled: [0, used) *)
  mutable free : int list;  (* emptied slots below [used] *)
  mutable hand : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stale : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Qcache.create: capacity < 1";
  {
    lock = Mutex.create ();
    budget = capacity;
    table = Hashtbl.create 64;
    slots = Array.make 16 None;
    used = 0;
    free = [];
    hand = 0;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stale = 0;
  }

let weight key frame = String.length key + String.length frame + entry_overhead

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Drop [e] from the table and its slot; the caller counts why. *)
let remove t e =
  Hashtbl.remove t.table e.key;
  t.slots.(e.slot) <- None;
  t.free <- e.slot :: t.free;
  t.bytes <- t.bytes - weight e.key e.frame

let find_frame t ~epoch key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e when e.epoch = epoch ->
        t.hits <- t.hits + 1;
        e.referenced <- true;
        Some e.frame
      | Some e ->
        remove t e;
        t.misses <- t.misses + 1;
        t.stale <- t.stale + 1;
        None
      | None ->
        t.misses <- t.misses + 1;
        None)

(* The hand sweeps the used slots until [need] more bytes fit: a
   referenced entry loses its bit and is passed over, an unreferenced one
   is evicted. Every entry is evicted within two turns, and [need] is at
   most the budget, so the sweep ends. *)
let evict_until_fits t need =
  while t.bytes + need > t.budget do
    let i = t.hand in
    t.hand <- (if i + 1 >= t.used then 0 else i + 1);
    match t.slots.(i) with
    | Some e when e.referenced -> e.referenced <- false
    | Some e ->
      remove t e;
      t.evictions <- t.evictions + 1
    | None -> ()
  done

let take_slot t =
  match t.free with
  | i :: rest ->
    t.free <- rest;
    i
  | [] ->
    if t.used = Array.length t.slots then begin
      let grown = Array.make (2 * t.used) None in
      Array.blit t.slots 0 grown 0 t.used;
      t.slots <- grown
    end;
    t.used <- t.used + 1;
    t.used - 1

(* A replace frees the key's own weight first, so it evicts nothing
   unless the new frame is heavier; it keeps the reference bit. A frame
   over an eighth of the budget is not cached, and the key's older frame
   goes with it: a find never answers with anything but the latest
   add. *)
let add_frame t ~epoch key frame =
  with_lock t (fun () ->
      let referenced =
        match Hashtbl.find_opt t.table key with
        | Some e ->
          remove t e;
          e.referenced
        | None -> false
      in
      let w = weight key frame in
      if w <= t.budget / 8 then begin
        evict_until_fits t w;
        let slot = take_slot t in
        let e = { key; slot; epoch; frame; referenced } in
        t.slots.(slot) <- Some e;
        t.bytes <- t.bytes + w;
        Hashtbl.replace t.table key e
      end)

(* The reply-typed pair: only [Ok] replies are cached, so a frame reads
   back as its payload lines. *)
let find t ~epoch key =
  find_frame t ~epoch key
  |> Option.map (fun frame ->
         (* every frame line ends in a newline; the first is the header *)
         let body = String.sub frame 0 (String.length frame - 1) in
         Protocol.Ok (List.tl (String.split_on_char '\n' body)))

let add t ~epoch key reply =
  add_frame t ~epoch key (Protocol.render_reply reply)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  bytes : int;
  evictions : int;
  stale : int;
}

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
        evictions = t.evictions;
        stale = t.stale;
      })
