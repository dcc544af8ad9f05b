module Ir = Semantics.Ir

type t = {
  strata : Rule.t list array;
  rule_stratum : (Rule.t * int) list;
}

module Rel_map = Map.Make (struct
  type t = Ir.rel

  let compare = Ir.compare_rel
end)

module Obj_set = Oodb.Obj_id.Set

(* Static class hierarchy: the constant-to-constant class edges asserted by
   rule heads and fact statements. Inserting a membership into class [c] also
   extends the membership of every class above [c], so a rule defining
   [R_isa_c c] defines the ancestors' relations too. Class edges created at
   runtime between objects bound by variables escape this approximation;
   see the mli. *)
let static_ancestors ?(facts = []) rules =
  let parents = Hashtbl.create 16 in
  let add (a, b) =
    let cur =
      Option.value ~default:Obj_set.empty (Hashtbl.find_opt parents a)
    in
    Hashtbl.replace parents a (Obj_set.add b cur)
  in
  List.iter (fun (f : Rule.fact) -> List.iter add f.f_class_edges) facts;
  List.iter (fun (r : Rule.t) -> List.iter add r.class_edges) rules;
  let memo = Hashtbl.create 16 in
  let rec anc c =
    match Hashtbl.find_opt memo c with
    | Some s -> s
    | None ->
      Hashtbl.add memo c Obj_set.empty;
      (* cycle guard *)
      let direct =
        Option.value ~default:Obj_set.empty (Hashtbl.find_opt parents c)
      in
      let s =
        Obj_set.fold
          (fun p acc -> Obj_set.union acc (Obj_set.add p (anc p)))
          direct Obj_set.empty
      in
      Hashtbl.replace memo c s;
      s
  in
  anc

(* Dependency graph over relation nodes. *)
type graph = {
  nodes : Ir.rel array;
  index : int Rel_map.t;
  mutable edges : (int * int * bool) list;  (* from, to, completion *)
  mutable expand_define : Ir.rel -> Ir.rel list;
}

let node_of g r = Rel_map.find r g.index

let build_graph ?facts (rules : Rule.t list) =
  let anc = static_ancestors ?facts rules in
  let with_ancestors r =
    match (r : Ir.rel) with
    | R_isa_c c ->
      r :: List.map (fun c' -> Ir.R_isa_c c') (Obj_set.elements (anc c))
    | R_isa | R_scalar _ | R_set _ | R_any -> [ r ]
  in
  let all_rels =
    List.concat_map
      (fun (r : Rule.t) ->
        List.concat_map with_ancestors
          (r.defines @ r.reads @ r.completion_reads))
      rules
    |> List.sort_uniq Ir.compare_rel
  in
  let nodes = Array.of_list all_rels in
  let index =
    Array.to_seq nodes |> Seq.mapi (fun i r -> (r, i)) |> Rel_map.of_seq
  in
  let g = { nodes; index; edges = []; expand_define = (fun r -> [ r ]) } in
  let isa_nodes =
    List.filter
      (function Ir.R_isa | Ir.R_isa_c _ -> true
        | Ir.R_scalar _ | Ir.R_set _ | Ir.R_any -> false)
      all_rels
  in
  let has_any = Rel_map.mem Ir.R_any index in
  (* what a relation can stand for when read *)
  let expand_read r =
    match (r : Ir.rel) with
    | R_any when has_any -> Array.to_list g.nodes
    | R_isa -> isa_nodes
    | R_isa_c _ | R_scalar _ | R_set _ | R_any -> [ r ]
  in
  (* what inserting into a relation can affect *)
  let expand_define r =
    match (r : Ir.rel) with
    | R_any when has_any -> Array.to_list g.nodes
    | R_isa -> isa_nodes
    | R_isa_c _ -> with_ancestors r
    | R_scalar _ | R_set _ | R_any -> [ r ]
  in
  List.iter
    (fun (rule : Rule.t) ->
      List.iter
        (fun r ->
          if Ir.equal_rel r Ir.R_any then
            Err.unstratifiable ~rule:rule.source
              "completion-dependency through a variable or computed method \
               position")
        rule.completion_reads;
      let defined = List.concat_map expand_define rule.defines in
      List.iter
        (fun d ->
          let di = node_of g d in
          List.iter
            (fun r ->
              List.iter
                (fun r' -> g.edges <- (di, node_of g r', false) :: g.edges)
                (expand_read r))
            rule.reads;
          List.iter
            (fun r ->
              List.iter
                (fun r' -> g.edges <- (di, node_of g r', true) :: g.edges)
                (expand_read r))
            rule.completion_reads)
        defined)
    rules;
  g.expand_define <- expand_define;
  g

(* Tarjan's strongly connected components. *)
let sccs g =
  let n = Array.length g.nodes in
  let succ = Array.make n [] in
  List.iter (fun (i, j, compl) -> succ.(i) <- (j, compl) :: succ.(i)) g.edges;
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comp_of = Array.make n (-1) in
  let comp_count = ref 0 in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (w, _) ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succ.(v);
    if lowlink.(v) = index.(v) then begin
      let c = !comp_count in
      incr comp_count;
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp_of.(w) <- c;
          if w <> v then pop ()
        | [] -> assert false
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (comp_of, !comp_count, succ)

let compute ?facts store (rules : Rule.t list) : t =
  match rules with
  | [] -> { strata = [| [] |]; rule_stratum = [] }
  | _ ->
    let g = build_graph ?facts rules in
    let expand_define = g.expand_define in
    let comp_of, ncomp, succ = sccs g in
    (* completion edge inside one component => not stratifiable *)
    Array.iteri
      (fun v edges ->
        List.iter
          (fun (w, compl) ->
            if compl && comp_of.(v) = comp_of.(w) then
              Err.unstratifiable
                "%a depends on the completion of %a, which depends back on \
                 it"
                (Ir.pp_rel (Oodb.Store.universe store))
                g.nodes.(v)
                (Ir.pp_rel (Oodb.Store.universe store))
                g.nodes.(w))
          edges)
      succ;
    (* stratum of a component: longest chain of completion edges below it *)
    let comp_succ = Array.make ncomp [] in
    Array.iteri
      (fun v edges ->
        List.iter
          (fun (w, compl) ->
            if comp_of.(v) <> comp_of.(w) then
              comp_succ.(comp_of.(v)) <-
                (comp_of.(w), compl) :: comp_succ.(comp_of.(v)))
          edges)
      succ;
    let memo = Array.make ncomp (-1) in
    let rec stratum c =
      if memo.(c) >= 0 then memo.(c)
      else begin
        memo.(c) <- 0;
        (* provisional; the condensation is acyclic *)
        let s =
          List.fold_left
            (fun acc (c', compl) ->
              max acc (stratum c' + if compl then 1 else 0))
            0 comp_succ.(c)
        in
        memo.(c) <- s;
        s
      end
    in
    let rel_stratum r = stratum comp_of.(Rel_map.find r g.index) in
    (* A rule must run no later than the stratum of any relation it may
       insert into (so completion readers of that relation see the full
       extension) and no earlier than the strata of its reads; the
       dependency edges guarantee min(defines) >= max(reads), so the
       earliest defined stratum is always a valid choice. *)
    let has_completion_edges =
      List.exists (fun (_, _, compl) -> compl) g.edges
    in
    let max_stratum = ref 0 in
    let rule_stratum =
      List.map
        (fun (rule : Rule.t) ->
          let s =
            match List.concat_map expand_define rule.defines with
            | [] -> 0
            | defines when List.mem Ir.R_any defines ->
              if has_completion_edges then
                Err.unstratifiable ~rule:rule.source
                  "the rule may define any relation (variable or computed \
                   method position in its head), which cannot be ordered \
                   against the program's set-inclusion or negation \
                   dependencies"
              else 0
            | d :: rest ->
              List.fold_left
                (fun acc d' -> min acc (rel_stratum d'))
                (rel_stratum d) rest
          in
          max_stratum := max !max_stratum s;
          (rule, s))
        rules
    in
    let strata = Array.make (!max_stratum + 1) [] in
    List.iter
      (fun (rule, s) -> strata.(s) <- rule :: strata.(s))
      (List.rev rule_stratum);
    { strata; rule_stratum }

(* ------------------------------------------------------------------ *)
(* Liveness: the rules transitively relevant to a set of goal relations.
   Classes are normalised (R_isa_c _ -> R_isa) so hierarchy propagation
   never splits a live class from a dead one. Sound for pruning because
   [reads] already includes the relations under negation and inclusion:
   a skipped rule cannot contribute a tuple to any relation the goals
   (or their support, positive or negated) consult.

   The rules come out in the order of a round-robin scan: each round
   walks the rules not yet taken in program order and takes every one
   that defines a relevant relation, its reads becoming relevant at once
   for the rules after it. That scan re-walks every remaining rule each
   round; this computes its order directly. A rule is taken at a time
   (round, position); a relation made relevant by the rule at (r, p) has
   its defining rules taken at (r, j) for a later position j and at
   (r + 1, j) for an earlier one.

   Only a rule that reads something can make a relation relevant. Those
   rules (few: most of a large program is facts) are taken in time order
   from a priority queue, through an index from relation to defining
   rules, which fixes the time each relation became relevant. Every
   other rule's time then follows from the relations it defines, in one
   pass, and the rules come out bucketed by round: O(n + k log k) for n
   rules of which k read. *)

(* A relation, class-normalised, as one int: the object in the high
   bits, the kind in the low two. *)
let rel_key (r : Ir.rel) =
  match Ir.norm_rel r with
  | R_isa | R_isa_c _ -> 0
  | R_any -> 1
  | R_scalar m -> (m lsl 2) lor 2
  | R_set m -> (m lsl 2) lor 3

let any_key = 1

module Tbl = Oodb.Obj_id.Tbl

(* The part of the scan that depends on the rules alone, built once per
   rule list: the rules that read, numbered densely with their
   positions, and the index from relation to the readers defining it. *)
type index = {
  rules : Rule.t list;
  n : int;
  readers : (int * Rule.t) array;
  defined_by : int list Tbl.t;
}

let index (rules : Rule.t list) =
  let readers =
    let acc = ref [] in
    List.iteri
      (fun i (r : Rule.t) ->
        if r.reads <> [] || r.completion_reads <> [] then
          acc := (i, r) :: !acc)
      rules;
    Array.of_list (List.rev !acc)
  in
  let defined_by = Tbl.create 16 in
  for id = Array.length readers - 1 downto 0 do
    List.iter
      (fun d ->
        let key = rel_key d in
        let ids = Option.value ~default:[] (Tbl.find_opt defined_by key) in
        match ids with
        | j :: _ when j = id -> ()
        | _ -> Tbl.replace defined_by key (id :: ids))
      (snd readers.(id)).defines
  done;
  { rules; n = List.length rules; readers; defined_by }

let live { rules; n; readers; defined_by } ~goals =
  if List.exists (fun g -> rel_key g = any_key) goals then rules
  else begin
    (* a time as one int; position -1 is before every rule *)
    let time r p = (r * (n + 1)) + p + 1 in
    let round_of t = t / (n + 1) and pos_of t = (t mod (n + 1)) - 1 in
    let k = Array.length readers in
    (* when each relation became relevant *)
    let relevant_at = Tbl.create 16 in
    (* queue items are [time * k + id]; a reader may be offered more
       than once, and only its earliest offer counts *)
    let at = Array.make k max_int in
    let queue = ref Obj_set.empty in
    let offer t id =
      if t < at.(id) then begin
        at.(id) <- t;
        queue := Obj_set.add ((t * k) + id) !queue
      end
    in
    let reach rel t =
      let key = rel_key rel in
      if not (Tbl.mem relevant_at key) then begin
        Tbl.add relevant_at key t;
        let r = round_of t and p = pos_of t in
        List.iter
          (fun id ->
            let j = fst readers.(id) in
            offer (if j > p then time r j else time (r + 1) j) id)
          (Option.value ~default:[] (Tbl.find_opt defined_by key))
      end
    in
    List.iter (fun g -> reach g (time 1 (-1))) goals;
    (* a rule that may define any relation is taken at first sight *)
    List.iter
      (fun id -> offer (time 1 (fst readers.(id))) id)
      (Option.value ~default:[] (Tbl.find_opt defined_by any_key));
    let taken = Array.make k false in
    while not (Obj_set.is_empty !queue) do
      let item = Obj_set.min_elt !queue in
      queue := Obj_set.remove item !queue;
      let t = item / k and id = item mod k in
      if (not taken.(id)) && at.(id) = t then begin
        taken.(id) <- true;
        let rule = snd readers.(id) in
        List.iter (fun rel -> reach rel t) rule.reads;
        List.iter (fun rel -> reach rel t) rule.completion_reads
      end
    done;
    (* every rule's round, then the rules bucketed by round *)
    let max_round =
      Tbl.fold (fun _ t acc -> max acc (round_of t)) relevant_at 1 + 1
    in
    let buckets = Array.make (max_round + 1) [] in
    let next_reader = ref 0 in
    (* consecutive rules mostly define the same relation: remember the
       last lookup *)
    let last_key = ref (-1) and last_at = ref None in
    let relevant key =
      if key <> !last_key then begin
        last_key := key;
        last_at := Tbl.find_opt relevant_at key
      end;
      !last_at
    in
    List.iteri
      (fun i (rule : Rule.t) ->
        let round =
          if !next_reader < k && fst readers.(!next_reader) = i then begin
            let id = !next_reader in
            incr next_reader;
            if taken.(id) then round_of at.(id) else 0
          end
          else
            List.fold_left
              (fun acc d ->
                let key = rel_key d in
                let r =
                  if key = any_key then 1
                  else
                    match relevant key with
                    | None -> 0
                    | Some t ->
                      if pos_of t < i then round_of t else round_of t + 1
                in
                if r > 0 && (acc = 0 || r < acc) then r else acc)
              0 rule.defines
        in
        if round > 0 then buckets.(round) <- rule :: buckets.(round))
      rules;
    Array.fold_right (fun bucket acc -> List.rev_append bucket acc) buckets []
  end

let live_rules rules ~goals = live (index rules) ~goals
