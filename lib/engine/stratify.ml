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
   rule heads (facts included). Inserting a membership into class [c] also
   extends the membership of every class above [c], so a rule defining
   [R_isa_c c] defines the ancestors' relations too. Class edges created at
   runtime between objects bound by variables escape this approximation;
   see the mli. *)
let static_ancestors rules =
  let parents = Hashtbl.create 16 in
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun (a, b) ->
          let cur =
            Option.value ~default:Obj_set.empty (Hashtbl.find_opt parents a)
          in
          Hashtbl.replace parents a (Obj_set.add b cur))
        r.class_edges)
    rules;
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

let build_graph (rules : Rule.t list) =
  let anc = static_ancestors rules in
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

let compute store (rules : Rule.t list) : t =
  match rules with
  | [] -> { strata = [| [] |]; rule_stratum = [] }
  | _ ->
    let g = build_graph rules in
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
   (or their support, positive or negated) consult. *)
let live_rules (rules : Rule.t list) ~goals =
  let norm = Ir.norm_rel in
  let seeds = List.sort_uniq Ir.compare_rel (List.map norm goals) in
  if List.mem Ir.R_any seeds then rules
  else begin
    let relevant = ref seeds in
    let selected = ref [] in
    let remaining = ref rules in
    let changed = ref true in
    while !changed do
      changed := false;
      let still_out = ref [] in
      List.iter
        (fun (rule : Rule.t) ->
          let defines = List.map norm rule.defines in
          let touches =
            List.mem Ir.R_any defines
            || List.exists (fun d -> List.mem d !relevant) defines
          in
          if touches then begin
            selected := rule :: !selected;
            changed := true;
            List.iter
              (fun r ->
                let r = norm r in
                if not (List.mem r !relevant) then relevant := r :: !relevant)
              (rule.reads @ rule.completion_reads)
          end
          else still_out := rule :: !still_out)
        !remaining;
      remaining := List.rev !still_out
    done;
    List.rev !selected
  end
