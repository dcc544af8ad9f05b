open Syntax.Ast
module Ir = Semantics.Ir
module Rule = Engine.Rule
module Stratify = Engine.Stratify
module Obj_set = Oodb.Obj_id.Set

module Rel_set = Set.Make (struct
  type t = Ir.rel

  let compare = Ir.compare_rel
end)

(* Diagnostics show the rule the user wrote: for transformed variants
   (demand guards, magic rules) that is the origin, not the synthesized
   form. *)
let rule_context (r : Rule.t) =
  Format.asprintf "%a" Syntax.Pretty.pp_rule
    (Option.value r.origin ~default:r.source)

(* ------------------------------------------------------------------ *)
(* PL030 — skolem-creation cycles.

   A scalar path [X.m] in a rule head creates a fresh virtual object
   whenever the method application is undefined. Skolemisation is
   functional — the same receiver, method and arguments always locate the
   same virtual object — so creation alone never diverges: the model
   grows without bound only when the fresh objects feed back into the
   domain the creating rule matches receivers against, as in
   [X.succ : nat <- X : nat].

   The analysis therefore starts not from everything the rule defines but
   from the relations the fresh object {e enters}: the class of an
   [o : c] head around a skolem path (the object becomes a member the
   body's [X : c] can match) and the method relations of [o\[k -> v\]]
   heads whose receiver is a skolem path (the object gains properties a
   body can match receivers through). A fresh object that only appears as
   the {e result} of its defining tuple, as a method, or as a class is
   not counted: under the default semantics (hilog_virtual=false)
   variable method and class positions do not enumerate virtual objects —
   this is exactly what makes the paper's generic [tc] rules and the
   [c.list] type constructor terminate, and counting those positions
   would flag them.

   From the entry relations we follow the program's read→define flow
   (growth in a read relation lets the reading rule grow what it
   defines; [R_any]/bare [R_isa] definitions are dropped for the same
   hilog reason, class definitions close upward); the rule is flagged
   when the flow reaches a relation its own body reads. *)

let rec strip_ref = function Paren r -> strip_ref r | r -> r

let is_skolem_path r =
  match strip_ref r with
  | Path { p_sep = Dot; p_meth = Name "self"; p_args = []; _ } -> false
  | Path { p_sep = Dot; _ } -> true
  | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _
  | Path { p_sep = Dotdot; _ }
  | Regex _ | Filter _ | Isa _ ->
    false

let const_obj store r =
  match strip_ref r with
  | Name n -> Some (Oodb.Store.name store n)
  | Int_lit n -> Some (Oodb.Store.int store n)
  | Str_lit s -> Some (Oodb.Store.str store s)
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> None

(* Relations a fresh virtual object created by this head enters in a
   position rule bodies can match it back out of. *)
let skolem_entries store anc head =
  let add_isa acc c =
    Obj_set.fold
      (fun a acc -> Rel_set.add (Ir.R_isa_c a) acc)
      (anc c)
      (Rel_set.add (Ir.R_isa_c c) acc)
  in
  let add acc = function
    | Isa { recv; cls } when is_skolem_path recv -> (
      match const_obj store cls with
      | Some c -> add_isa acc c
      | None -> acc)
    | Filter { f_recv; f_meth; f_rhs; _ } when is_skolem_path f_recv -> (
      match (const_obj store f_meth, f_rhs) with
      | Some m, Rscalar _ -> Rel_set.add (Ir.R_scalar m) acc
      | Some m, (Rset_ref _ | Rset_enum _) -> Rel_set.add (Ir.R_set m) acc
      | Some _, (Rsig_scalar _ | Rsig_set _) | None, _ -> acc)
    | Path { p_recv; p_sep = Dot; p_meth; _ } when is_skolem_path p_recv -> (
      match const_obj store p_meth with
      | Some m -> Rel_set.add (Ir.R_scalar m) acc
      | None -> acc)
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Path _ | Regex _
    | Filter _ | Isa _ ->
      acc
  in
  fold_reference add Rel_set.empty head

let flow_defines anc (r : Rule.t) =
  List.concat_map
    (fun d ->
      match (d : Ir.rel) with
      | R_any | R_isa -> []
      | R_isa_c c ->
        Ir.R_isa_c c
        :: List.map (fun a -> Ir.R_isa_c a) (Obj_set.elements (anc c))
      | R_scalar _ | R_set _ -> [ d ])
    r.defines

(* The creation-cycle core, shared between PL030 (warning, here) and the
   abstract interpreter's PL050/∞-cardinality verdicts ({!Absint}):
   non-fact rules whose fresh skolem objects can flow back into a
   relation their own body reads, paired with that back-edge relation. *)
let creation_cycles ~facts store rules =
  let anc = Stratify.static_ancestors ~facts rules in
  let nodes =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc d -> Rel_set.add d acc)
          acc (flow_defines anc r))
      Rel_set.empty rules
  in
  let isa_nodes =
    Rel_set.filter (function Ir.R_isa_c _ -> true | _ -> false) nodes
  in
  (* a variable method position ([R_any]) matches method relations, never
     class membership *)
  let meth_nodes =
    Rel_set.filter
      (function Ir.R_scalar _ | Ir.R_set _ -> true | _ -> false)
      nodes
  in
  let flow_reads (r : Rule.t) =
    List.concat_map
      (fun rd ->
        match (rd : Ir.rel) with
        | R_any -> Rel_set.elements meth_nodes
        | R_isa -> Rel_set.elements isa_nodes
        | R_isa_c _ | R_scalar _ | R_set _ -> [ rd ])
      (r.reads @ r.completion_reads)
    |> List.sort_uniq Ir.compare_rel
  in
  (* successor lists: read -> defines of every rule reading it *)
  let succ = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let ds = flow_defines anc r in
      List.iter
        (fun rd ->
          Hashtbl.replace succ rd
            (ds @ Option.value ~default:[] (Hashtbl.find_opt succ rd)))
        (flow_reads r))
    rules;
  let reachable_from starts =
    let seen = ref starts in
    let rec go = function
      | [] -> ()
      | n :: rest ->
        let next =
          List.filter
            (fun m -> not (Rel_set.mem m !seen))
            (Option.value ~default:[] (Hashtbl.find_opt succ n))
        in
        List.iter (fun m -> seen := Rel_set.add m !seen) next;
        go (next @ rest)
    in
    go (Rel_set.elements starts);
    !seen
  in
  List.filter_map
    (fun (r : Rule.t) ->
      if r.source.body = [] then None
      else
        let entries = skolem_entries store anc r.source.head in
        if Rel_set.is_empty entries then None
        else
          let reach = reachable_from entries in
          Option.map
            (fun back -> (r, back))
            (List.find_opt (fun rd -> Rel_set.mem rd reach) (flow_reads r)))
    rules

let skolem_cycles store rules ~cycles =
  let universe = Oodb.Store.universe store in
  List.concat_map
    (fun (r : Rule.t) ->
      if r.source.body = [] then []
      else begin
        let creates_any =
          List.mem Ir.R_any (Rule.skolem_defines store r.source.head)
        in
        (match List.find_opt (fun (r', _) -> r' == r) cycles with
        | Some (_, back) ->
          [
            Diagnostic.make ?span:r.span ~context:(rule_context r)
              ~code:"PL030" ~severity:Diagnostic.Warning
              "rule creates virtual objects that can re-trigger it through \
               %a; evaluation may not terminate"
              (Ir.pp_rel universe) back;
          ]
        | None -> [])
        @
        if creates_any then
          [
            Diagnostic.make ?span:r.span ~context:(rule_context r)
              ~code:"PL030" ~severity:Diagnostic.Hint
              "rule head creates virtual objects at a variable or computed \
               method position; cycle analysis does not apply (such objects \
               are only enumerated under hilog-virtual mode)";
          ]
        else []
      end)
    rules

(* ------------------------------------------------------------------ *)
(* PL031 / PL032 — dead rules.

   PL031: a rule can never fire when some top-level positive body atom
   reads a relation no rule or fact can ever populate. Computed as a
   producibility fixpoint: facts seed their head relations, a rule whose
   required reads are all producible contributes its defines (class
   definitions close upward through the static hierarchy; a variable
   class or method position in a head makes the corresponding family of
   relations unknown, i.e. producible). Negated and set-inclusion
   sub-queries are not required — an empty relation satisfies them.

   PL032: with embedded queries present, a rule outside the backward
   reachability closure of the query relations (see
   {!Stratify.live_rules}) cannot contribute to any answer. Reported as a
   hint: the rule is not wrong, just dead weight for these queries. *)

type required =
  | Req_isa_c of Oodb.Obj_id.t
  | Req_isa_any
  | Req_rel of Ir.rel

let required_reads (r : Rule.t) =
  List.filter_map
    (fun (a : Ir.atom) ->
      match a with
      | A_isa (_, Const c) -> Some (Req_isa_c c)
      | A_isa (_, V _) -> Some Req_isa_any
      | A_scalar { meth = Const m; _ } -> Some (Req_rel (Ir.R_scalar m))
      | A_member { meth = Const m; _ } -> Some (Req_rel (Ir.R_set m))
      | A_scalar { meth = V _; _ } | A_member { meth = V _; _ } -> None
      (* a regex atom may succeed with some label relations empty (a
         nullable or alternated automaton), so it imposes no conjunctive
         requirement here; unsatisfiable automata get their own warning
         (PL060, {!regex_dead}) *)
      | A_eq _ | A_subset _ | A_neg _ | A_regex _ -> None)
    r.body.atoms

(* The producibility fixpoint shared by PL031 and PL060: which relations
   can some chain of rule firings (seeded by facts) ever populate.

   A worklist: each rule waits on its distinct unmet requirements,
   indexed by requirement, and fires when the last is met. Producing a
   relation wakes the rules waiting on it once, so the cost is the
   rules, plus their requirements, plus the relations produced — not one
   sweep over every rule per step of the longest chain. *)
type producibility = {
  p_produced : Rel_set.t;
  p_any_isa : bool;
  p_unknown_isa : bool;
  p_unknown_meth : bool;
  p_fired : (int, unit) Hashtbl.t;
  p_visits : int;
}

let req_satisfied p = function
  | Req_isa_c c -> p.p_unknown_isa || Rel_set.mem (Ir.R_isa_c c) p.p_produced
  | Req_isa_any -> p.p_any_isa
  | Req_rel r -> p.p_unknown_meth || Rel_set.mem r p.p_produced

let producibility ~facts rules =
  let anc = Stratify.static_ancestors ~facts rules in
  let rules = Array.of_list rules in
  let produced = ref Rel_set.empty in
  let any_isa = ref false in
  let unknown_isa = ref false in
  let unknown_meth = ref false in
  let fired = Hashtbl.create 16 in
  let visits = ref 0 in
  (* the rules waiting on each unmet requirement *)
  let waiting : (required, int list) Hashtbl.t = Hashtbl.create 64 in
  let unmet =
    Array.mapi
      (fun i r ->
        let reqs = List.sort_uniq compare (required_reads r) in
        List.iter
          (fun q ->
            Hashtbl.replace waiting q
              (i :: Option.value ~default:[] (Hashtbl.find_opt waiting q)))
          reqs;
        List.length reqs)
      rules
  in
  let ready = Queue.create () in
  Array.iteri (fun i n -> if n = 0 then Queue.add i ready) unmet;
  let meet q =
    match Hashtbl.find_opt waiting q with
    | None -> ()
    | Some is ->
      Hashtbl.remove waiting q;
      List.iter
        (fun i ->
          incr visits;
          unmet.(i) <- unmet.(i) - 1;
          if unmet.(i) = 0 then Queue.add i ready)
        is
  in
  (* every waiting requirement [covered] holds *)
  let meet_all covered =
    Hashtbl.fold (fun q _ acc -> if covered q then q :: acc else acc) waiting []
    |> List.iter meet
  in
  let add_isa c =
    if not (Rel_set.mem (Ir.R_isa_c c) !produced) then begin
      produced := Rel_set.add (Ir.R_isa_c c) !produced;
      meet (Req_isa_c c)
    end
  in
  let produce d =
    match (d : Ir.rel) with
    | R_isa_c c ->
      if not !any_isa then begin
        any_isa := true;
        meet Req_isa_any
      end;
      add_isa c;
      Obj_set.iter add_isa (anc c)
    | R_isa ->
      if not !unknown_isa then begin
        any_isa := true;
        unknown_isa := true;
        meet_all (function Req_isa_c _ | Req_isa_any -> true | Req_rel _ -> false)
      end
    | R_any ->
      if not !unknown_meth then begin
        unknown_meth := true;
        meet_all (function Req_rel _ -> true | Req_isa_c _ | Req_isa_any -> false)
      end
    | R_scalar _ | R_set _ ->
      if not (Rel_set.mem d !produced) then begin
        produced := Rel_set.add d !produced;
        meet (Req_rel d)
      end
  in
  List.iter (fun (f : Rule.fact) -> List.iter produce f.f_defines) facts;
  while not (Queue.is_empty ready) do
    let r = rules.(Queue.take ready) in
    Hashtbl.replace fired r.Rule.uid ();
    List.iter produce r.defines
  done;
  {
    p_produced = !produced;
    p_any_isa = !any_isa;
    p_unknown_isa = !unknown_isa;
    p_unknown_meth = !unknown_meth;
    p_fired = fired;
    p_visits = !visits;
  }

let never_fires store rules p =
  let fired = p.p_fired in
  let satisfied = req_satisfied p in
  let universe = Oodb.Store.universe store in
  let pp_required ppf = function
    | Req_isa_c c ->
      Format.fprintf ppf "membership in class %s"
        (Oodb.Universe.to_string universe c)
    | Req_isa_any -> Format.fprintf ppf "any class membership"
    | Req_rel r -> Ir.pp_rel universe ppf r
  in
  List.filter_map
    (fun (r : Rule.t) ->
      if Hashtbl.mem fired r.uid then None
      else
        let missing =
          List.find_opt (fun q -> not (satisfied q)) (required_reads r)
        in
        Some
          (match missing with
          | Some q ->
            Diagnostic.make ?span:r.span ~context:(rule_context r)
              ~code:"PL031" ~severity:Diagnostic.Warning
              "rule can never fire: its body needs %a, which no rule or \
               fact produces"
              pp_required q
          | None ->
            Diagnostic.make ?span:r.span ~context:(rule_context r)
              ~code:"PL031" ~severity:Diagnostic.Warning
              "rule can never fire"))
    rules

let unreachable_rules store rules ~queries =
  match queries with
  | [] -> []
  | qs ->
    let goals =
      List.concat_map
        (fun lits ->
          Ir.query_rels (Semantics.Flatten.literals store lits).atoms)
        qs
    in
    let live = Stratify.live_rules rules ~goals in
    let live_uids = Hashtbl.create 16 in
    List.iter (fun (r : Rule.t) -> Hashtbl.add live_uids r.uid ()) live;
    List.filter_map
      (fun (r : Rule.t) ->
        if Hashtbl.mem live_uids r.uid || r.source.body = [] then None
        else
          Some
            (Diagnostic.make ?span:r.span ~context:(rule_context r)
               ~code:"PL032" ~severity:Diagnostic.Hint
               "rule is unreachable from the program's queries: nothing it \
                derives feeds a queried relation"))
      rules

let dead_rules store rules p ~queries =
  never_fires store rules p @ unreachable_rules store rules ~queries

(* ------------------------------------------------------------------ *)
(* PL060 — unsatisfiable regular path expressions.

   A regex atom matches when some word of the automaton's language is a
   chain of edges the model can contain. A transition whose label
   relation no rule or fact ever produces can never be taken, so we
   erase those transitions and ask whether an accepting state is still
   reachable from the start state. When it is not, the language over
   the producible vocabulary is empty and the expression cannot match
   any pair of objects — the atom silently kills its rule or query.
   Nullable automata ([boss*]) keep the empty word and degenerate to
   the identity instead, which still matches, so they are not flagged.

   Top-level positive atoms only, like PL031: a dead regex under
   negation makes the negation trivially true rather than the clause
   dead, which is a different (and much weaker) signal. *)

let automaton_satisfiable p (auto : Ir.automaton) =
  let reached = Array.make auto.Ir.a_nstates false in
  let rec go q =
    if not reached.(q) then begin
      reached.(q) <- true;
      Array.iter
        (fun ((l : Ir.label), q') ->
          if p.p_unknown_meth || Rel_set.mem (Ir.label_rel l) p.p_produced
          then go q')
        auto.Ir.a_trans.(q)
    end
  in
  go auto.Ir.a_start;
  let ok = ref false in
  Array.iteri
    (fun q acc -> if acc && reached.(q) then ok := true)
    auto.Ir.a_accept;
  !ok

let regex_dead store rules p ~queries =
  let universe = Oodb.Store.universe store in
  let check_atoms ?span ~context atoms =
    List.filter_map
      (fun (a : Ir.atom) ->
        match a with
        | Ir.A_regex x when not (automaton_satisfiable p x.x_auto) ->
          let dead =
            List.filter
              (fun rel -> not (Rel_set.mem rel p.p_produced))
              (Ir.automaton_rels x.x_auto)
          in
          Some
            (Diagnostic.make ?span ~context ~code:"PL060"
               ~severity:Diagnostic.Warning
               "regular path expression can never match: every path from \
                the start state to an accepting state needs %s, which no \
                rule or fact produces"
               (String.concat " or "
                  (List.map
                     (fun rel -> Format.asprintf "%a" (Ir.pp_rel universe) rel)
                     dead)))
        | _ -> None)
      atoms
  in
  List.concat_map
    (fun (r : Rule.t) ->
      check_atoms ?span:r.span ~context:(rule_context r) r.body.atoms)
    rules
  @ List.concat_map
      (fun lits ->
        let q = Semantics.Flatten.literals store lits in
        check_atoms
          ~context:(Syntax.Pretty.statement_to_string (Query lits))
          q.atoms)
      queries

(* ------------------------------------------------------------------ *)
(* PL040 / PL041 — scalar-functionality conflicts.

   Scalar methods interpret partial functions (section 3): two head
   assertions giving the same method application different results make
   the program inconsistent, which today surfaces only at runtime as
   {!Engine.Err.Functional_conflict}. Statically, two scalar head
   assignments with the same constant method and arity and ground,
   distinct results conflict when:

   - both are ground facts on the same receiver and arguments — the
     conflict is definite, PL040, error;
   - otherwise, if the receivers (and arguments) are not provably
     distinct ground objects, the rules may collide on some receiver at
     runtime — PL041, warning.

   Assignments whose result is a variable or path are skipped: their
   value is unknown statically and flagging them would drown real
   conflicts in noise. *)

type assignment = {
  a_meth : reference;
  a_recv : reference;
  a_args : reference list;
  a_res : reference;
  a_source : Syntax.Ast.rule;
  a_origin : Syntax.Ast.rule option;
  a_span : Syntax.Token.span option;
}

let rec strip = function Paren r -> strip r | r -> r

(* The object a molecule's assertions attach to: [e1 : employee[age ->
   30]\[city -> ny\]] nests the [city] filter around the [age] filter
   around the [Isa], so resolving the receiver means stripping those
   wrappers down to the underlying reference. *)
let rec recv_obj r =
  match r with
  | Paren r | Isa { recv = r; _ } | Filter { f_recv = r; _ } -> recv_obj r
  | Name _ | Int_lit _ | Str_lit _ | Var _ | Path _ | Regex _ -> r

let is_ground r =
  match strip r with
  | Name _ | Int_lit _ | Str_lit _ -> true
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> false

let assignments_of ?origin ?span (source : Syntax.Ast.rule) =
  let add acc = function
    | Filter { f_recv; f_meth; f_args; f_rhs = Rscalar res } ->
      let a_meth = strip f_meth in
      if is_ground a_meth then
        {
          a_meth;
          a_recv = recv_obj f_recv;
          a_args = List.map strip f_args;
          a_res = recv_obj res;
          a_source = source;
          a_origin = origin;
          a_span = span;
        }
        :: acc
      else acc
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Path _ | Regex _
    | Isa _ | Filter _ ->
      acc
  in
  List.rev (fold_reference add [] source.head)

let head_assignments (rule : Rule.t) =
  assignments_of ?origin:rule.origin ?span:rule.span rule.source

let fact_assignments (f : Rule.fact) = assignments_of ?span:f.f_span f.f_source

(* Every assignment of the facts and rules, in statement order: the two
   lists are each in statement order, so their assignments merge by
   source offset. *)
let assignments ~facts rules =
  let offset a =
    match a.a_span with
    | Some sp -> sp.Syntax.Token.s_start.offset
    | None -> max_int
  in
  List.merge
    (fun a b -> Int.compare (offset a) (offset b))
    (List.concat_map fact_assignments facts)
    (List.concat_map head_assignments rules)

(* Whether two assignments of one method and arity may give one
   application two results: distinct ground results on receivers and
   arguments not provably distinct. *)
let may_collide a b =
  a.a_res <> b.a_res
  && not (is_ground a.a_recv && is_ground b.a_recv && a.a_recv <> b.a_recv)
  && not
       (List.exists2
          (fun x y -> is_ground x && is_ground y && x <> y)
          a.a_args b.a_args)

(* Only assignments with the same method, arity and a ground result can
   conflict, so they are grouped by (method, arity). A keyed assignment
   — ground receiver and arguments — can collide with another keyed one
   only on an equal (receiver, arguments) key, so keyed assignments are
   compared only within their key's bucket. The open ones (a variable
   or path receiver or argument) are compared with their whole group.
   The cost is the assignments, plus the pairs within a key (the pairs
   found, unless one key repeats one result), plus open × group. *)
let conflict_pairs assignments =
  let asg = Array.of_list assignments in
  let keyed =
    Array.map (fun a -> is_ground a.a_recv && List.for_all is_ground a.a_args) asg
  in
  let groups = Hashtbl.create 16 and buckets = Hashtbl.create 16 in
  let push tbl k i =
    Hashtbl.replace tbl k
      (i :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  (* only a group holding an open assignment is compared as a whole: a
     program of facts makes none *)
  let open_groups = Hashtbl.create 16 in
  for i = Array.length asg - 1 downto 0 do
    let a = asg.(i) in
    if is_ground a.a_res then
      if keyed.(i) then push buckets (a.a_meth, a.a_recv, a.a_args) i
      else Hashtbl.replace open_groups (a.a_meth, List.length a.a_args) ()
  done;
  if Hashtbl.length open_groups > 0 then
    for i = Array.length asg - 1 downto 0 do
      let a = asg.(i) in
      let g = (a.a_meth, List.length a.a_args) in
      if is_ground a.a_res && Hashtbl.mem open_groups g then push groups g i
    done;
  let pairs = ref [] in
  let compare_with i js =
    List.iter
      (fun j ->
        if may_collide asg.(i) asg.(j) then
          pairs := (min i j, max i j) :: !pairs)
      js
  in
  Hashtbl.iter
    (fun _ is ->
      let rec go = function
        | [] -> ()
        | i :: rest ->
          compare_with i rest;
          go rest
      in
      go is)
    buckets;
  Hashtbl.iter
    (fun _ is ->
      List.iter
        (fun i ->
          if not keyed.(i) then
            compare_with i (List.filter (fun j -> keyed.(j) || i < j) is))
        is)
    groups;
  List.sort compare !pairs |> List.map (fun (i, j) -> (asg.(i), asg.(j)))

let assignment_context a =
  Format.asprintf "%a" Syntax.Pretty.pp_rule
    (Option.value a.a_origin ~default:a.a_source)

let conflict_diagnostic (a, b) =
  let definite =
    a.a_source.body = [] && b.a_source.body = []
    && is_ground a.a_recv && a.a_recv = b.a_recv
    && List.for_all2 (fun x y -> x = y) a.a_args b.a_args
  in
  let other =
    match a.a_span with
    | Some sp -> Format.asprintf " (first assigned at %a)" Syntax.Token.pp_span sp
    | None -> Format.asprintf " (also assigned by %s)" (assignment_context a)
  in
  if definite then
    Diagnostic.make ?span:b.a_span ~context:(assignment_context b)
      ~code:"PL040" ~severity:Diagnostic.Error
      "scalar method %a of %a is assigned both %a and %a%s"
      Syntax.Pretty.pp_reference a.a_meth Syntax.Pretty.pp_reference
      a.a_recv Syntax.Pretty.pp_reference a.a_res
      Syntax.Pretty.pp_reference b.a_res other
  else
    Diagnostic.make ?span:b.a_span ~context:(assignment_context b)
      ~code:"PL041" ~severity:Diagnostic.Warning
      "scalar method %a may be assigned conflicting results %a and \
       %a%s"
      Syntax.Pretty.pp_reference a.a_meth Syntax.Pretty.pp_reference
      a.a_res Syntax.Pretty.pp_reference b.a_res other

let scalar_conflicts ~facts rules =
  List.map conflict_diagnostic (conflict_pairs (assignments ~facts rules))
