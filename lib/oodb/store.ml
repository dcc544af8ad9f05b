(* [dead] is max_int while the tuple is live; a removal stamps it with the
   epoch the removal produced. One record is physically shared between the
   method bucket, the inverse index and the receiver index, so the single
   field write hides the tuple everywhere at once while every index keeps
   its append-only shape (watermark-based semi-naive deltas stay
   valid). *)
type mentry = {
  recv : Obj_id.t;
  args : Obj_id.t list;
  res : Obj_id.t;
  mutable dead : int;
}

type ientry = { i_sub : Obj_id.t; i_cls : Obj_id.t; mutable i_dead : int }

let live e = e.dead = max_int
let isa_live e = e.i_dead = max_int

type scalar_insert = Added | Duplicate | Conflict of Obj_id.t
type set_insert = SAdded | SDuplicate
type isa_insert = IAdded | IDuplicate | ICycle

type mkey = Obj_id.t * Obj_id.t * Obj_id.t list (* meth, recv, args *)

(* Almost every method in practice takes no extra arguments, so the hot
   (meth, recv) pair packs into a single immediate int — no tuple or list
   allocation per lookup. Object ids are dense, allocated from 0, and stay
   far below 2^31 even in soak runs, so the two halves never collide. *)
let pack a b = (a lsl 31) lor b

type t = {
  universe : Universe.t;
  (* class hierarchy: direct edges of the partial order, both directions.
     [hier_lock] guards the adjacency tables and the closure caches: the
     caches memoize lazily, so even logically read-only traffic
     (classes_of / members) mutates them, and concurrent readers
     (server query domains, parallel fixpoint workers) would otherwise
     race on the underlying hash tables. The critical sections are short
     and uncontended in single-threaded use. *)
  hier_lock : Mutex.t;
  parents : Obj_id.Set.t Obj_id.Tbl.t;
  children : Obj_id.Set.t Obj_id.Tbl.t;
  isa_log : ientry Vec.t;
  mutable class_list : Obj_id.t list;
  class_seen : unit Obj_id.Tbl.t;
  (* memoized closures, maintained incrementally as edges are added *)
  up_cache : Obj_id.Set.t Obj_id.Tbl.t;
  down_cache : Obj_id.Set.t Obj_id.Tbl.t;
  (* scalar methods: 0-ary tuples (the common case) live in [scalar0]
     under a packed (meth, recv) int key; tuples with extra arguments in
     [scalar] under the full mkey *)
  scalar0 : Obj_id.t Obj_id.Tbl.t;
  scalar : (mkey, Obj_id.t) Hashtbl.t;
  scalar_buckets : mentry Vec.t Obj_id.Tbl.t;
  scalar_inv : mentry Vec.t Obj_id.Tbl.t;  (* by [pack meth res] *)
  scalar_recv : mentry Vec.t Obj_id.Tbl.t;  (* by [pack meth recv] *)
  scalar_recv_counts : int Obj_id.Tbl.t;
      (* distinct receivers per method, for planner selectivity *)
  scalar_res_counts : int Obj_id.Tbl.t;
      (* distinct results per method: the inverse index's key count *)
  mutable scalar_meth_list : Obj_id.t list;
  (* set-valued methods, same layout *)
  set0 : Obj_id.Set.t ref Obj_id.Tbl.t;
  set_members : (mkey, Obj_id.Set.t ref) Hashtbl.t;
  set_buckets : mentry Vec.t Obj_id.Tbl.t;
  set_inv : mentry Vec.t Obj_id.Tbl.t;
  set_recv : mentry Vec.t Obj_id.Tbl.t;
  set_recv_counts : int Obj_id.Tbl.t;
  set_res_counts : int Obj_id.Tbl.t;
  set_live : int Obj_id.Tbl.t;  (* live tuples per method *)
  mutable set_meth_list : Obj_id.t list;
  mutable tuple_count : int;  (* isa edges + scalar + set tuples *)
  mutable self : Obj_id.t;  (* the built-in [self], or -1 until asked for *)
  mutable epoch : int;
      (* monotonic data version: bumped on every actual insertion and
         removal (never on duplicates or misses), so readers can tell
         whether the store was written and caches can be keyed by it.
         Not [tuple_count]: a removal bumps it and decrements that. *)
}

let create () =
  {
    universe = Universe.create ();
    hier_lock = Mutex.create ();
    parents = Obj_id.Tbl.create 64;
    children = Obj_id.Tbl.create 64;
    isa_log = Vec.create ();
    class_list = [];
    class_seen = Obj_id.Tbl.create 16;
    up_cache = Obj_id.Tbl.create 64;
    down_cache = Obj_id.Tbl.create 64;
    scalar0 = Obj_id.Tbl.create 256;
    scalar = Hashtbl.create 64;
    scalar_buckets = Obj_id.Tbl.create 32;
    scalar_inv = Obj_id.Tbl.create 256;
    scalar_recv = Obj_id.Tbl.create 256;
    scalar_recv_counts = Obj_id.Tbl.create 32;
    scalar_res_counts = Obj_id.Tbl.create 32;
    scalar_meth_list = [];
    set0 = Obj_id.Tbl.create 256;
    set_members = Hashtbl.create 64;
    set_buckets = Obj_id.Tbl.create 32;
    set_inv = Obj_id.Tbl.create 256;
    set_recv = Obj_id.Tbl.create 256;
    set_recv_counts = Obj_id.Tbl.create 32;
    set_res_counts = Obj_id.Tbl.create 32;
    set_live = Obj_id.Tbl.create 32;
    set_meth_list = [];
    tuple_count = 0;
    self = -1;
    epoch = 0;
  }

let universe st = st.universe
let name st s = Universe.name st.universe s
let int st n = Universe.int st.universe n
let str st s = Universe.str st.universe s

(* Interned on first use, where every [name st "self"] it replaces
   interned it, so object numbering is unchanged. Racing first calls
   intern the same id. *)
let self_id st =
  if st.self >= 0 then st.self
  else begin
    let id = name st "self" in
    st.self <- id;
    id
  end

let scoped st f =
  let self = st.self in
  Universe.scoped st.universe (fun () ->
      Fun.protect ~finally:(fun () -> st.self <- self) f)

let size st = st.tuple_count
let epoch st = st.epoch

(* ------------------------------------------------------------------ *)
(* Class hierarchy                                                     *)

let direct tbl o =
  match Obj_id.Tbl.find_opt tbl o with Some s -> s | None -> Obj_id.Set.empty

(* Reachability along [tbl] (parents for ancestors, children for
   descendants), excluding the start object itself unless reachable via a
   cycle — which add_isa prevents. *)
let closure_raw tbl o =
  let visited = ref Obj_id.Set.empty in
  let rec go x =
    Obj_id.Set.iter
      (fun n ->
        if not (Obj_id.Set.mem n !visited) then begin
          visited := Obj_id.Set.add n !visited;
          go n
        end)
      (direct tbl x)
  in
  go o;
  !visited

(* Callers must hold [hier_lock]. *)
let closure cache tbl o =
  match Obj_id.Tbl.find_opt cache o with
  | Some s -> s
  | None ->
    let s = closure_raw tbl o in
    Obj_id.Tbl.add cache o s;
    s

let with_hier st f =
  Mutex.lock st.hier_lock;
  match f () with
  | v ->
    Mutex.unlock st.hier_lock;
    v
  | exception e ->
    Mutex.unlock st.hier_lock;
    raise e

let classes_of st o = with_hier st (fun () -> closure st.up_cache st.parents o)
let members st c = with_hier st (fun () -> closure st.down_cache st.children c)

(* The value classes [integer] and [string] are built in: every integer
   value-object is a member of [integer], every string value-object of
   [string]. They hold for membership tests but are not enumerable. *)
let builtin_member st o c =
  match Universe.descriptor st.universe c with
  | Name "integer" -> (
    match Universe.descriptor st.universe o with
    | Int _ -> true
    | Name _ | Str _ | Skolem _ -> false)
  | Name "string" -> (
    match Universe.descriptor st.universe o with
    | Str _ -> true
    | Name _ | Int _ | Skolem _ -> false)
  | Name _ | Int _ | Str _ | Skolem _ -> false

(* Strict: an object is not a member of itself. The paper's single
   hierarchy relation is formally a partial order (hence reflexive), but
   reflexive membership carries no information and would make every class
   a member of itself in query answers; we implement the strict part
   uniformly for tests and enumeration (see DESIGN.md). *)
let is_member st o c =
  builtin_member st o c || Obj_id.Set.mem c (classes_of st o)

let add_isa st o c =
  if Obj_id.equal o c then IDuplicate
  else if Obj_id.Set.mem c (direct st.parents o) then IDuplicate
  else if
    builtin_member st c o
    || Obj_id.Set.mem o (with_hier st (fun () -> closure st.up_cache st.parents c))
  then ICycle
  else begin
    Mutex.lock st.hier_lock;
    (* Incremental closure maintenance. The new edge o -> c makes
       anc = {c} ∪ ancestors(c) ancestors of every x ∈ desc = {o} ∪
       descendants(o), and symmetrically desc descendants of every
       y ∈ anc. Nothing else changes: c's own ancestors and o's own
       descendants are untouched by the edge (acyclicity guarantees o is
       not above c), so both closures are computed safely before the
       adjacency is mutated. Only keys already cached are patched;
       uncached keys recompute lazily from the updated adjacency. *)
    let anc = Obj_id.Set.add c (closure st.up_cache st.parents c) in
    let desc = Obj_id.Set.add o (closure st.down_cache st.children o) in
    Obj_id.Tbl.replace st.parents o (Obj_id.Set.add c (direct st.parents o));
    Obj_id.Tbl.replace st.children c (Obj_id.Set.add o (direct st.children c));
    Vec.push st.isa_log { i_sub = o; i_cls = c; i_dead = max_int };
    st.tuple_count <- st.tuple_count + 1;
    st.epoch <- st.epoch + 1;
    if not (Obj_id.Tbl.mem st.class_seen c) then begin
      Obj_id.Tbl.add st.class_seen c ();
      st.class_list <- c :: st.class_list
    end;
    Obj_id.Set.iter
      (fun x ->
        match Obj_id.Tbl.find_opt st.up_cache x with
        | Some ups -> Obj_id.Tbl.replace st.up_cache x (Obj_id.Set.union ups anc)
        | None -> ())
      desc;
    Obj_id.Set.iter
      (fun y ->
        match Obj_id.Tbl.find_opt st.down_cache y with
        | Some downs ->
          Obj_id.Tbl.replace st.down_cache y (Obj_id.Set.union downs desc)
        | None -> ())
      anc;
    Mutex.unlock st.hier_lock;
    IAdded
  end

let has_isa st o c = Obj_id.Set.mem c (direct st.parents o)
let isa_log st = st.isa_log
let known_classes st = List.rev st.class_list

(* ------------------------------------------------------------------ *)
(* Method tables                                                       *)

(* Shared frozen empty bucket, returned for every missing method or
   receiver. Sealed so an accidental push fails loudly instead of
   corrupting every other miss. *)
let empty_bucket = Vec.seal (Vec.create ())

let bucket tbl meth =
  match Obj_id.Tbl.find_opt tbl meth with
  | Some v -> v
  | None ->
    let v = Vec.create () in
    Obj_id.Tbl.add tbl meth v;
    v

let keys counts meth =
  match Obj_id.Tbl.find_opt counts meth with Some n -> n | None -> 0

let bump counts meth = Obj_id.Tbl.replace counts meth (1 + keys counts meth)

(* Push into a packed (meth, obj) index — the inverse index by result or
   the secondary index by receiver — counting distinct objects per method
   the first time a pair appears. *)
let index_push tbl counts ~meth obj entry =
  let key = pack meth obj in
  match Obj_id.Tbl.find_opt tbl key with
  | Some v -> Vec.push v entry
  | None ->
    let v = Vec.create () in
    Vec.push v entry;
    Obj_id.Tbl.add tbl key v;
    bump counts meth

let add_scalar st ~meth ~recv ~args ~res =
  let existing =
    match args with
    | [] -> Obj_id.Tbl.find_opt st.scalar0 (pack meth recv)
    | _ -> Hashtbl.find_opt st.scalar (meth, recv, args)
  in
  match existing with
  | Some existing ->
    if Obj_id.equal existing res then Duplicate else Conflict existing
  | None ->
    (match args with
    | [] -> Obj_id.Tbl.add st.scalar0 (pack meth recv) res
    | _ -> Hashtbl.add st.scalar (meth, recv, args) res);
    let entry = { recv; args; res; dead = max_int } in
    let b = bucket st.scalar_buckets meth in
    if Vec.length b = 0 then st.scalar_meth_list <- meth :: st.scalar_meth_list;
    Vec.push b entry;
    index_push st.scalar_inv st.scalar_res_counts ~meth res entry;
    index_push st.scalar_recv st.scalar_recv_counts ~meth recv entry;
    st.tuple_count <- st.tuple_count + 1;
    st.epoch <- st.epoch + 1;
    Added

let scalar_lookup st ~meth ~recv ~args =
  match args with
  | [] -> Obj_id.Tbl.find_opt st.scalar0 (pack meth recv)
  | _ -> Hashtbl.find_opt st.scalar (meth, recv, args)

let scalar_bucket st meth =
  match Obj_id.Tbl.find_opt st.scalar_buckets meth with
  | Some v -> v
  | None -> empty_bucket

let scalar_inverse st ~meth ~res =
  match Obj_id.Tbl.find_opt st.scalar_inv (pack meth res) with
  | Some v -> v
  | None -> empty_bucket

let scalar_recv_index st ~meth ~recv =
  match Obj_id.Tbl.find_opt st.scalar_recv (pack meth recv) with
  | Some v -> v
  | None -> empty_bucket

let scalar_recv_keys st meth = keys st.scalar_recv_counts meth

let scalar_res_keys st meth = keys st.scalar_res_counts meth

let scalar_meths st = List.rev st.scalar_meth_list

let add_set st ~meth ~recv ~args ~res =
  let set =
    match args with
    | [] -> (
      let key = pack meth recv in
      match Obj_id.Tbl.find_opt st.set0 key with
      | Some r -> r
      | None ->
        let r = ref Obj_id.Set.empty in
        Obj_id.Tbl.add st.set0 key r;
        r)
    | _ -> (
      let key = (meth, recv, args) in
      match Hashtbl.find_opt st.set_members key with
      | Some r -> r
      | None ->
        let r = ref Obj_id.Set.empty in
        Hashtbl.add st.set_members key r;
        r)
  in
  if Obj_id.Set.mem res !set then SDuplicate
  else begin
    set := Obj_id.Set.add res !set;
    let entry = { recv; args; res; dead = max_int } in
    let b = bucket st.set_buckets meth in
    if Vec.length b = 0 then st.set_meth_list <- meth :: st.set_meth_list;
    Vec.push b entry;
    index_push st.set_inv st.set_res_counts ~meth res entry;
    index_push st.set_recv st.set_recv_counts ~meth recv entry;
    bump st.set_live meth;
    st.tuple_count <- st.tuple_count + 1;
    st.epoch <- st.epoch + 1;
    SAdded
  end

let set_lookup st ~meth ~recv ~args =
  let found =
    match args with
    | [] -> Obj_id.Tbl.find_opt st.set0 (pack meth recv)
    | _ -> Hashtbl.find_opt st.set_members (meth, recv, args)
  in
  match found with Some r -> !r | None -> Obj_id.Set.empty

let set_bucket st meth =
  match Obj_id.Tbl.find_opt st.set_buckets meth with
  | Some v -> v
  | None -> empty_bucket

let set_inverse st ~meth ~res =
  match Obj_id.Tbl.find_opt st.set_inv (pack meth res) with
  | Some v -> v
  | None -> empty_bucket

let set_recv_index st ~meth ~recv =
  match Obj_id.Tbl.find_opt st.set_recv (pack meth recv) with
  | Some v -> v
  | None -> empty_bucket

let set_recv_keys st meth = keys st.set_recv_counts meth

let set_res_keys st meth = keys st.set_res_counts meth

let set_live_count st meth = keys st.set_live meth

let set_meths st = List.rev st.set_meth_list

(* ------------------------------------------------------------------ *)
(* Removal (tombstoning)                                               *)

(* A removal updates the primary tables physically (lookups answer the
   live state immediately) and tombstones the shared index record by
   stamping [dead] with the post-bump epoch. Buckets never shrink, so
   watermarks held by in-flight semi-naive evaluations stay monotone; a
   re-assertion after a removal appends a fresh entry. *)

let stamp st (e : mentry) =
  st.epoch <- st.epoch + 1;
  e.dead <- st.epoch;
  st.tuple_count <- st.tuple_count - 1

(* Newest first: a tuple's live record is its last one, behind every
   record tombstoned before it was re-asserted. *)
let find_live v ~args ~res =
  let rec go i =
    if i < 0 then None
    else
      let e = Vec.get v i in
      if live e && e.args = args && Obj_id.equal e.res res then Some e
      else go (i - 1)
  in
  go (Vec.length v - 1)

let remove_scalar st ~meth ~recv ~args ~res =
  match scalar_lookup st ~meth ~recv ~args with
  | Some existing when Obj_id.equal existing res -> (
    match find_live (scalar_recv_index st ~meth ~recv) ~args ~res with
    | None -> false
    | Some e ->
      (match args with
      | [] -> Obj_id.Tbl.remove st.scalar0 (pack meth recv)
      | _ -> Hashtbl.remove st.scalar (meth, recv, args));
      stamp st e;
      true)
  | Some _ | None -> false

let remove_set st ~meth ~recv ~args ~res =
  let set =
    match args with
    | [] -> Obj_id.Tbl.find_opt st.set0 (pack meth recv)
    | _ -> Hashtbl.find_opt st.set_members (meth, recv, args)
  in
  match set with
  | Some r when Obj_id.Set.mem res !r -> (
    match find_live (set_recv_index st ~meth ~recv) ~args ~res with
    | None -> false
    | Some e ->
      r := Obj_id.Set.remove res !r;
      Obj_id.Tbl.replace st.set_live meth (keys st.set_live meth - 1);
      stamp st e;
      true)
  | Some _ | None -> false

let remove_isa st o c =
  if not (Obj_id.Set.mem c (direct st.parents o)) then false
  else begin
    Mutex.lock st.hier_lock;
    Obj_id.Tbl.replace st.parents o (Obj_id.Set.remove c (direct st.parents o));
    Obj_id.Tbl.replace st.children c
      (Obj_id.Set.remove o (direct st.children c));
    (* additions patch the closure caches incrementally; a removal
       invalidates them wholesale, and they rebuild lazily from the
       updated adjacency *)
    Obj_id.Tbl.reset st.up_cache;
    Obj_id.Tbl.reset st.down_cache;
    (try
       Vec.iter
         (fun e ->
           if isa_live e && Obj_id.equal e.i_sub o && Obj_id.equal e.i_cls c
           then begin
             st.epoch <- st.epoch + 1;
             e.i_dead <- st.epoch;
             raise Exit
           end)
         st.isa_log
     with Exit -> ());
    st.tuple_count <- st.tuple_count - 1;
    Mutex.unlock st.hier_lock;
    true
  end

(* ------------------------------------------------------------------ *)
(* Epoch snapshots                                                     *)

(* A snapshot is the epoch at freeze time, nothing more: it tells a
   reader whether the store was written since, and keys the server's
   result cache. It pins no data — see the contract in store.mli. *)
type snapshot = { s_store : t; s_epoch : int }

let freeze st = { s_store = st; s_epoch = st.epoch }
let snapshot_epoch s = s.s_epoch
let snapshot_stale s = s.s_store.epoch <> s.s_epoch

(* ------------------------------------------------------------------ *)
(* Live iteration — the basis of model dumps, support-index audits and
   durable snapshots: every live tuple, dead entries filtered. *)

let iter_live_isa st f =
  Vec.iter (fun e -> if isa_live e then f e.i_sub e.i_cls) st.isa_log

let iter_live_scalar st f =
  List.iter
    (fun m -> Vec.iter (fun e -> if live e then f m e) (scalar_bucket st m))
    (scalar_meths st)

let iter_live_set st f =
  List.iter
    (fun m -> Vec.iter (fun e -> if live e then f m e) (set_bucket st m))
    (set_meths st)

(* ------------------------------------------------------------------ *)
(* Statistics and printing                                             *)

type stats = {
  objects : int;
  isa_edges : int;
  scalar_tuples : int;
  set_tuples : int;
}

let live_count v = Vec.fold (fun acc e -> if live e then acc + 1 else acc) 0 v

let stats st =
  let count_buckets tbl =
    Obj_id.Tbl.fold (fun _ v acc -> acc + live_count v) tbl 0
  in
  {
    objects = Universe.cardinality st.universe;
    isa_edges =
      Vec.fold (fun acc e -> if isa_live e then acc + 1 else acc) 0 st.isa_log;
    scalar_tuples = count_buckets st.scalar_buckets;
    set_tuples = count_buckets st.set_buckets;
  }

let check_invariants st =
  let problems = ref [] in
  let problem fmt =
    Format.kasprintf (fun m -> problems := m :: !problems) fmt
  in
  let obj = Universe.to_string st.universe in
  (* index records are physically shared with the bucket records *)
  let entry_mem v e = Vec.exists (fun e' -> e' == e) v in
  (* scalar: primary tables vs live bucket entries, both directions,
     inverse and receiver indexes. Tombstoned entries stay in every index
     (they are the same record), so membership is checked for all entries
     but the primary tables must agree with the live ones only. *)
  let scalar_bucket_count = ref 0 in
  let scalar_raw_count = ref 0 in
  List.iter
    (fun m ->
      Vec.iter
        (fun ({ recv; args; res; dead = _ } as e) ->
          incr scalar_raw_count;
          if live e then begin
            incr scalar_bucket_count;
            match scalar_lookup st ~meth:m ~recv ~args with
            | Some res' when Obj_id.equal res res' -> ()
            | Some _ ->
              problem "scalar bucket entry disagrees with primary: %s.%s"
                (obj recv) (obj m)
            | None ->
              problem "scalar bucket entry missing from primary: %s.%s"
                (obj recv) (obj m)
          end;
          if not (entry_mem (scalar_inverse st ~meth:m ~res) e) then
            problem "scalar entry missing from inverse index: %s.%s"
              (obj recv) (obj m);
          if not (entry_mem (scalar_recv_index st ~meth:m ~recv) e) then
            problem "scalar entry missing from receiver index: %s.%s"
              (obj recv) (obj m))
        (scalar_bucket st m))
    (scalar_meths st);
  let scalar_primary_count =
    Obj_id.Tbl.length st.scalar0 + Hashtbl.length st.scalar
  in
  if scalar_primary_count <> !scalar_bucket_count then
    problem "scalar primary has %d entries but buckets have %d live"
      scalar_primary_count !scalar_bucket_count;
  (* set methods: buckets vs member sets and receiver indexes *)
  let set_bucket_count = ref 0 in
  let set_raw_count = ref 0 in
  List.iter
    (fun m ->
      let live_now = live_count (set_bucket st m) in
      if live_now <> set_live_count st m then
        problem "set live counter for %s says %d, bucket has %d live" (obj m)
          (set_live_count st m) live_now;
      Vec.iter
        (fun ({ recv; args; res; dead = _ } as e) ->
          incr set_raw_count;
          if live e then begin
            incr set_bucket_count;
            if not (Obj_id.Set.mem res (set_lookup st ~meth:m ~recv ~args))
            then
              problem "set bucket entry missing from member set: %s..%s"
                (obj recv) (obj m)
          end;
          if not (entry_mem (set_recv_index st ~meth:m ~recv) e) then
            problem "set entry missing from receiver index: %s..%s"
              (obj recv) (obj m))
        (set_bucket st m))
    (set_meths st);
  let member_total =
    Obj_id.Tbl.fold (fun _ s acc -> acc + Obj_id.Set.cardinal !s) st.set0 0
    + Hashtbl.fold
        (fun _ s acc -> acc + Obj_id.Set.cardinal !s)
        st.set_members 0
  in
  if member_total <> !set_bucket_count then
    problem "set member sets hold %d elements but buckets have %d live"
      member_total !set_bucket_count;
  (* receiver indexes: no stale extras, and the distinct-receiver counters
     agree with the actual key populations *)
  let check_recv what recv_tbl counts bucket_count =
    let index_total = ref 0 in
    let per_meth = Obj_id.Tbl.create 16 in
    Obj_id.Tbl.iter
      (fun key v ->
        index_total := !index_total + Vec.length v;
        let m = key lsr 31 in
        Obj_id.Tbl.replace per_meth m
          (1
          + (match Obj_id.Tbl.find_opt per_meth m with
            | Some n -> n
            | None -> 0)))
      recv_tbl;
    if !index_total <> bucket_count then
      problem "%s receiver index holds %d entries but buckets have %d" what
        !index_total bucket_count;
    Obj_id.Tbl.iter
      (fun m n ->
        let counted =
          match Obj_id.Tbl.find_opt counts m with Some c -> c | None -> 0
        in
        if counted <> n then
          problem "%s receiver counter for %s says %d, index has %d keys"
            what (obj m) counted n)
      per_meth
  in
  check_recv "scalar" st.scalar_recv st.scalar_recv_counts !scalar_raw_count;
  check_recv "set" st.set_recv st.set_recv_counts !set_raw_count;
  (* inverse indexes: the distinct-result counters agree with the actual
     key populations, in both directions *)
  let check_res what inv_tbl counts =
    let per_meth = Obj_id.Tbl.create 16 in
    Obj_id.Tbl.iter (fun key _ -> bump per_meth (key lsr 31)) inv_tbl;
    let audit m =
      let counted = keys counts m and actual = keys per_meth m in
      if counted <> actual then
        problem "%s result counter for %s says %d, inverse index has %d keys"
          what (obj m) counted actual
    in
    Obj_id.Tbl.iter (fun m _ -> audit m) per_meth;
    Obj_id.Tbl.iter
      (fun m _ -> if not (Obj_id.Tbl.mem per_meth m) then audit m)
      counts
  in
  check_res "scalar" st.scalar_inv st.scalar_res_counts;
  check_res "set" st.set_inv st.set_res_counts;
  (* hierarchy: live log edges vs adjacency (both directions), acyclicity *)
  let live_isa = ref 0 in
  Vec.iter
    (fun e ->
      if isa_live e then begin
        incr live_isa;
        let o = e.i_sub and c = e.i_cls in
        if not (Obj_id.Set.mem c (direct st.parents o)) then
          problem "isa log edge missing from parents: %s : %s" (obj o)
            (obj c);
        if not (Obj_id.Set.mem o (direct st.children c)) then
          problem "isa log edge missing from children: %s : %s" (obj o)
            (obj c)
      end)
    st.isa_log;
  let edge_count =
    Obj_id.Tbl.fold
      (fun _ s acc -> acc + Obj_id.Set.cardinal s)
      st.parents 0
  in
  if edge_count <> !live_isa then
    problem "parents adjacency has %d edges but the log has %d live"
      edge_count !live_isa;
  Obj_id.Tbl.iter
    (fun o _ ->
      if Obj_id.Set.mem o (classes_of st o) then
        problem "hierarchy cycle through %s" (obj o))
    st.parents;
  (* incrementally maintained closure caches agree with a fresh traversal *)
  let check_cache what cache tbl =
    Obj_id.Tbl.iter
      (fun o cached ->
        let fresh = closure_raw tbl o in
        if not (Obj_id.Set.equal cached fresh) then
          problem "%s cache for %s is stale (%d cached, %d actual)" what
            (obj o)
            (Obj_id.Set.cardinal cached)
            (Obj_id.Set.cardinal fresh))
      cache
  in
  check_cache "ancestor" st.up_cache st.parents;
  check_cache "descendant" st.down_cache st.children;
  (* global tuple counter counts live tuples only *)
  let total = !live_isa + !scalar_bucket_count + !set_bucket_count in
  if st.tuple_count <> total then
    problem "tuple counter says %d but store holds %d live" st.tuple_count
      total;
  List.rev !problems
