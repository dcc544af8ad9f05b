(* Seeded inputs for the three workloads: the program text the server
   loads and the operation streams the generator replays. Everything is a
   pure function of (seed, operation count), so two runs with the same
   arguments send byte-identical requests. *)

type op =
  | Query of string
  | Why of string
  | Assert of string
  | Retract of string

let verb = function
  | Query _ -> "QUERY"
  | Why _ -> "WHY"
  | Assert _ -> "ASSERT"
  | Retract _ -> "RETRACT"

let text = function Query s | Why s | Assert s | Retract s -> s

let request op = verb op ^ " " ^ text op

let is_write = function Assert _ | Retract _ -> true | Query _ | Why _ -> false

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Zipf(s) sampler over ranks 0..n-1 by inverse CDF. *)
let zipf ~s n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* ------------------------------------------------------------------ *)
(* read_paths: the paper's company domain, materialised, with derived
   path rules and boss/mentor chains; Zipf-skewed QUERY/WHY over a
   distinct-request population about four times Qcache's 1024 entries. *)

module Read_paths = struct
  let employees = 600
  let managers = 40
  let cities = 30
  let companies = 12
  let zipf_s = 0.6
  let colors = [| "red"; "blue"; "green"; "black"; "white"; "silver" |]

  (* The seed only renames employees, managers, cities and companies:
     every seed's program and request population is the same structure
     under other names, so the seed cannot move what a run measures. *)
  let renaming seed =
    let perm salt n =
      let a = Array.init n (fun i -> i + 1) in
      shuffle (rng seed salt) a;
      fun i -> a.(i - 1)
    in
    (perm 5 employees, perm 6 managers, perm 7 cities, perm 8 companies)

  (* Managers m1..m40 form a binary tree under [boss]; employees
     e1..e600 each report to a manager, and most have a mentor among the
     30 employees numbered just below them, so [mentor] chains run about
     k/15 deep from employee k (numbers before renaming). Returns the
     program text and, by renamed employee, the number of its manager
     before renaming. *)
  let program seed =
    let st = rng 0 1 in
    let e, m, city, comp = renaming seed in
    let b = Buffer.create (256 * 1024) in
    let p fmt = Printf.bprintf b fmt in
    p "automobile :: vehicle.\nmanager :: employee.\n";
    for i = 1 to managers do
      p "m%d : manager[age -> %d; city -> city%d].\n" (m i)
        (40 + Random.State.int st 25)
        (city (1 + Random.State.int st cities));
      if i > 1 then p "m%d[boss -> m%d].\n" (m i) (m (i / 2))
    done;
    let boss = Array.make (employees + 1) 0 in
    let vehicle = ref 0 in
    for k = 1 to employees do
      let bk = 1 + Random.State.int st managers in
      boss.(e k) <- bk;
      p "e%d : employee[age -> %d; city -> city%d; boss -> m%d].\n" (e k)
        (20 + Random.State.int st 45)
        (city (1 + Random.State.int st cities))
        (m bk);
      if k > 1 && Random.State.float st 1. < 0.9 then
        p "e%d[mentor -> e%d].\n" (e k) (e (max 1 (k - 1 - Random.State.int st 30)));
      let nv = Random.State.int st 4 in
      if nv > 0 then begin
        let vs = List.init nv (fun _ -> incr vehicle; !vehicle) in
        List.iter
          (fun v ->
            if Random.State.float st 1. < 0.6 then
              p "v%d : automobile[cylinders -> %d; color -> %s; producedBy -> comp%d].\n"
                v
                (4 + (2 * Random.State.int st 3))
                colors.(Random.State.int st (Array.length colors))
                (comp (1 + Random.State.int st companies))
            else
              p "v%d : vehicle[color -> %s; producedBy -> comp%d].\n" v
                colors.(Random.State.int st (Array.length colors))
                (comp (1 + Random.State.int st companies)))
          vs;
        p "e%d[vehicles ->> {%s}].\n" (e k)
          (String.concat ", " (List.map (Printf.sprintf "v%d") vs))
      end
    done;
    for c = 1 to companies do
      p "comp%d : company[city -> city%d; president -> m%d].\n" (comp c)
        (city (1 + Random.State.int st cities))
        (m (1 + Random.State.int st managers))
    done;
    p "X[superior ->> {Y}] <- X[boss -> Y].\n";
    p "X[superior ->> {Y}] <- X[boss -> Z], Z[superior ->> {Y}].\n";
    p "X[colleague ->> {Y}] <- X[boss -> B], Y[boss -> B].\n";
    p "X[carColor ->> {C}] <- X..vehicles : automobile.color[C].\n";
    p "X : driver <- X..vehicles : automobile.\n";
    p "X[bossCity -> C] <- X.boss.city[C].\n";
    (Buffer.contents b, boss)

  (* The distinct-request population, in popularity order. The query
     shapes differ in cost by orders of magnitude, so which shape sits at
     which rank is fixed: ranks cycle through the shapes in a fixed
     order, a manager or city query follows every sixth employee, and a
     fixed stride walks the employees so that every popularity band
     mixes shallow and deep mentor chains. A WHY asks after the manager
     above the employee's own. *)
  let population seed boss =
    let e, m, city, _ = renaming seed in
    let employee i = e (1 + ((i * 367) mod employees)) in
    let per_employee k =
      [
        Query (Printf.sprintf "e%d..vehicles : automobile.color[Z]" k);
        Query (Printf.sprintf "e%d.(boss|mentor)+[Y]" k);
        Query (Printf.sprintf "e%d.mentor+..vehicles : automobile.color[Z]" k);
        Query (Printf.sprintf "e%d[superior ->> {Y}].city[C]" k);
        Query (Printf.sprintf "e%d[colleague ->> {Y}].mentor+[Z]" k);
        Query (Printf.sprintf "e%d.mentor*.boss[B]" k);
        Why (Printf.sprintf "e%d[superior ->> {m%d}]" k (m (max 1 (boss.(k) / 2))));
      ]
    in
    let by_manager =
      Array.init managers (fun j ->
          Query (Printf.sprintf "X : employee[boss -> m%d].mentor+[Y]" (m (j + 1))))
    and by_city =
      Array.concat
        (List.init cities (fun j ->
             [|
               Query (Printf.sprintf "X : driver[bossCity -> city%d]" (city (j + 1)));
               Query
                 (Printf.sprintf
                    "X : employee[city -> city%d]..vehicles : \
                     automobile.producedBy[city -> C]"
                    (city (j + 1)));
             |]))
    in
    (* extra j, for j < 100: two manager queries in every five *)
    let extra j =
      if j mod 5 < 2 then by_manager.((2 * (j / 5)) + (j mod 5))
      else by_city.((3 * (j / 5)) + (j mod 5) - 2)
    in
    Array.of_list
      (List.concat
         (List.init employees (fun i ->
              per_employee (employee i) @ if i mod 6 = 5 then [ extra (i / 6) ] else [])))

  (* [n] requests split over two connections; warm-up streams draw from
     the same distribution under a different salt. *)
  let streams ~salt seed boss n =
    let pop = population seed boss in
    let draw = zipf ~s:zipf_s (Array.length pop) in
    let st = rng seed salt in
    let one () = Array.init ((n + 1) / 2) (fun _ -> pop.(draw st)) in
    let a = one () in
    let b = one () in
    (a, b)
end

(* ------------------------------------------------------------------ *)
(* goal_directed: many short boss chains under a recursive [up]
   closure. Full materialisation derives every chain's closure; a bound
   point query at a chain's head demands that one chain. An eighth of
   the requests are first sight, the rest repeat an earlier query of the
   same connection. The server runs them one at a time, so a request
   waits for the other connection's: with an eighth, about 77% of the
   requests pair two repeats and the median latency sits well inside
   that mode. Every chain has the same shape, so every first sight
   does the same closure work whatever the seed; what grows is the
   store each demand run starts from. A third of the chains are never
   queried: the demand engine's cost per first sight jumps about 35-fold
   once its magic facts (seven per queried chain) outnumber the [boss]
   facts (six per chain), and a run that crossed that point part-way
   would measure where it fell, not the engine. The program stays as
   small as that allows, because the server's load gate grows about
   quadratically with the statement count. *)

module Goal_directed = struct
  let length = 6
  let first_sight_every = 8
  let warm_requests = 200

  let chain_query c = Printf.sprintf "c%dn0[up ->> {Y}]" c

  let probe = Query (chain_query 0)

  (* First sights in one stream of [n] requests. *)
  let firsts n = n / first_sight_every

  (* Chain 0 answers the set-up probe, the next ones the warm-up's first
     sights; then each connection takes fresh chains of its own. Half as
     many again stay unqueried. *)
  let chains n = 3 * (1 + firsts warm_requests + (2 * firsts ((n + 1) / 2))) / 2

  let program ~chains =
    let b = Buffer.create (chains * length * 24) in
    for c = 0 to chains - 1 do
      for i = 0 to length - 1 do
        Printf.bprintf b "c%dn%d[boss -> c%dn%d].\n" c i c (i + 1)
      done
    done;
    Buffer.add_string b "X[up ->> {Y}] <- X[boss -> Y].\n";
    Buffer.add_string b "X[up ->> {Y}] <- X[boss -> Z], Z[up ->> {Y}].\n";
    Buffer.contents b

  (* One stream of [n] requests: exactly every eighth request (at seeded
     positions, the first one included) is the first sight of the next
     fresh chain from [first] on; every other one repeats, uniformly, a
     query this stream already sent. *)
  let stream st ~first n =
    let k = firsts n in
    let fresh = Array.make n false in
    let pos = Array.init (n - 1) (fun i -> i + 1) in
    shuffle st pos;
    fresh.(0) <- true;
    for i = 0 to k - 2 do
      fresh.(pos.(i)) <- true
    done;
    let seen = ref 0 in
    Array.map
      (fun is_fresh ->
        if is_fresh then begin
          incr seen;
          Query (chain_query (first + !seen - 1))
        end
        else Query (chain_query (first + Random.State.int st !seen)))
      fresh

  let warm ~salt seed = stream (rng seed salt) ~first:1 warm_requests

  let streams ~salt seed n =
    let st = rng seed salt in
    let per = (n + 1) / 2 in
    let first = 1 + firsts warm_requests in
    (stream st ~first per, stream st ~first:(first + firsts per) per)
end

(* ------------------------------------------------------------------ *)
(* write_mix: many small ladders (two rails joined by rungs) under a
   recursive [reach] closure, plus a non-recursive [tagged] relation.
   The writer asserts a batch and retracts the same batch next, so every
   even-numbered commit returns the store to its base state. The writer
   and the reader work on disjoint halves of the ladders: a read that
   overlaps a commit can observe a retraction half-done (DRed's
   over-deletion is visible to the lock-free read path), so readers keep
   to ladders no batch touches, and every read has one right answer. *)

module Write_mix = struct
  let groups = 120
  let written = 60  (* ladders 0..59 take writes, 60..119 only reads *)
  let rail = 8
  let tags = 6

  let program seed =
    let st = rng seed 4 in
    let b = Buffer.create (groups * rail * 80) in
    let p fmt = Printf.bprintf b fmt in
    for g = 0 to groups - 1 do
      for i = 0 to rail - 1 do
        if i + 1 < rail then begin
          p "g%da%d[next ->> {g%da%d}].\n" g i g (i + 1);
          p "g%db%d[next ->> {g%db%d}].\n" g i g (i + 1)
        end;
        if i mod 2 = 0 then p "g%da%d[next ->> {g%db%d}].\n" g i g i;
        if Random.State.int st 3 = 0 then
          p "g%da%d[tag -> t%d].\n" g i (Random.State.int st tags)
      done
    done;
    p "X[reach ->> {Y}] <- X[next ->> {Y}].\n";
    p "X[reach ->> {Y}] <- X[next ->> {Z}], Z[reach ->> {Y}].\n";
    p "X[tagged ->> {T}] <- X[next ->> {Y}], Y[tag -> T].\n";
    Buffer.contents b

  (* The standing queries the reader subscribes to, on ladders 0..2,
     which only the writer's aimed batches touch. *)
  let subscriptions =
    [
      "g0a0[reach ->> {Y}]";
      "g0b0..next+[tag -> T]";
      "g1b0..next+[tag -> T]";
      "g2a0[tagged ->> {T}]";
    ]

  (* One batch on ladders 3..59: a shortcut edge inside a rail
     (recursive, retracted by DRed), an extension past a rail's end with
     a tagged tail (cascade), or tags on the b rail, which carries none in
     the base program (non-recursive, counting). *)
  let batch st k =
    let g = 3 + Random.State.int st (written - 3) in
    match Random.State.int st 10 with
    | 0 | 1 | 2 | 3 ->
      let i = Random.State.int st (rail - 2) in
      let j = i + 2 + Random.State.int st (rail - i - 2) in
      Printf.sprintf "g%da%d[next ->> {g%da%d}]." g i g j
    | 4 | 5 | 6 ->
      (* tail names cycle: each pair retracts its tail before the next *)
      Printf.sprintf "g%db%d[next ->> {x%d}]. x%d[tag -> t%d]." g (rail - 1)
        (k mod 16) (k mod 16) (Random.State.int st tags)
    | _ ->
      let i = Random.State.int st rail in
      let i' = (i + 1 + Random.State.int st (rail - 1)) mod rail in
      Printf.sprintf "g%db%d[tag -> t%d]. g%db%d[tag -> t%d]." g i
        (Random.State.int st tags) g i' (Random.State.int st tags)

  (* One batch on the subscribed ladders, which changes at most one
     standing query: mostly tags on a b rail, sometimes an extension of
     ladder 0 (its retract is a DRed one). *)
  let aimed st =
    if Random.State.int st 8 = 0 then Printf.sprintf "g0b%d[next ->> {y}]." (rail - 1)
    else
      let g = Random.State.int st 3 in
      let i = Random.State.int st rail in
      let i' = (i + 1 + Random.State.int st (rail - 1)) mod rail in
      Printf.sprintf "g%db%d[tag -> t%d]. g%db%d[tag -> t%d]." g i
        (Random.State.int st tags) g i' (Random.State.int st tags)

  (* [pairs] assert/retract pairs of [batch]es. Before every eighth pair
     an [aimed] batch is asserted, and it is retracted four pairs later,
     so the subscriber's DELTA frames come at least eight commits apart:
     the server's sockets leave Nagle's algorithm on, and a frame written
     while the subscriber has not yet acknowledged the one before waits
     for its delayed ACK, which would put half of the frames in a second
     mode about 40 ms up. Every stream is balanced: it leaves the store
     as it found it. *)
  let writes ~salt seed pairs =
    let st = rng seed salt in
    let out = ref [] and live = ref None in
    let add op = out := op :: !out in
    let retract_aimed () =
      Option.iter (fun t -> add (Retract t)) !live;
      live := None
    in
    for k = 0 to pairs - 1 do
      if k mod 8 = 0 then begin
        let t = aimed st in
        add (Assert t);
        live := Some t
      end
      else if k mod 8 = 4 then retract_aimed ();
      let t = batch st k in
      add (Assert t);
      add (Retract t)
    done;
    retract_aimed ();
    Array.of_list (List.rev !out)

  (* Each read spans one whole read-only ladder, from its head or back
     from its tail, so every read does about the same work. *)
  let reader ~salt seed n =
    let st = rng seed salt in
    Array.init n (fun _ ->
        let g = written + Random.State.int st (groups - written) in
        if Random.State.bool st then
          Query (Printf.sprintf "g%da0[reach ->> {Y}]..next+[Z]" g)
        else Query (Printf.sprintf "X[reach ->> {g%db%d}]..next+[Y]" g (rail - 1)))
end
