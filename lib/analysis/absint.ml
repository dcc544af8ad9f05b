open Syntax.Ast
module Ir = Semantics.Ir
module Rule = Engine.Rule
module Stratify = Engine.Stratify
module Obj_set = Oodb.Obj_id.Set

module Rel_map = Map.Make (struct
  type t = Ir.rel

  let compare = Ir.compare_rel
end)

(* ------------------------------------------------------------------ *)
(* The abstract domain: an upper bound on a tuple count, parameterised by
   the universe cardinality [n]. [Exact] counts ground contributions,
   [Poly (c, k)] bounds a derived relation by c·n^k, and [Inf] marks
   relations fed by a skolem-creation cycle — their growth enlarges the
   universe itself, so no store-size-parameterised bound is sound. *)

type card = Exact of int | Poly of int * int | Inf

(* Saturating arithmetic: counts never overflow into negatives, they pin
   at [sat_cap] (still "finite but huge" for every comparison we make). *)
let sat_cap = max_int / 4

let sat v = if v < 0 || v > sat_cap then sat_cap else v

let sat_add a b = sat (a + b)

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > sat_cap / b then sat_cap else a * b

let eval_card ~n c =
  let n = max n 1 in
  match c with
  | Exact c -> c
  | Poly (c, k) ->
    let rec pow acc i = if i <= 0 then acc else pow (sat_mul acc n) (i - 1) in
    sat_mul c (pow 1 k)
  | Inf -> max_int

(* Least upper bound. [Exact c <= Poly (max c c', k)] because n >= 1. *)
let card_join a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Exact x, Exact y -> Exact (max x y)
  | Exact c, Poly (c', k) | Poly (c', k), Exact c -> Poly (max c c', k)
  | Poly (c1, k1), Poly (c2, k2) -> Poly (max c1 c2, max k1 k2)

let card_sum a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Exact x, Exact y -> Exact (sat_add x y)
  | Exact c, Poly (c', k) | Poly (c', k), Exact c -> Poly (sat_add c c', k)
  | Poly (c1, k1), Poly (c2, k2) -> Poly (sat_add c1 c2, max k1 k2)

let card_mul a b =
  match (a, b) with
  | Exact 0, _ | _, Exact 0 -> Exact 0
  | Inf, _ | _, Inf -> Inf
  | Exact x, Exact y -> Exact (sat_mul x y)
  | Exact c, Poly (c', k) | Poly (c', k), Exact c -> Poly (sat_mul c c', k)
  | Poly (c1, k1), Poly (c2, k2) -> Poly (sat_mul c1 c2, sat_add k1 k2)

(* Both arguments are sound upper bounds, so returning either is sound;
   prefer the lower degree, then the lower coefficient. *)
let pick_tighter a b =
  let deg = function Exact _ -> 0 | Poly (_, k) -> k | Inf -> max_int in
  let coeff = function Exact c | Poly (c, _) -> c | Inf -> max_int in
  if deg a < deg b then a
  else if deg b < deg a then b
  else if coeff a <= coeff b then a
  else b

(* Cut a finite bound by the structural cap. [Inf] is deliberately NOT
   cut: a creation cycle grows the universe, which invalidates any cap
   stated in terms of the initial [n]. *)
let apply_cap cap c = match c with Inf -> Inf | c -> pick_tighter cap c

let pp_card ppf = function
  | Exact c -> Format.fprintf ppf "%d" c
  | Poly (c, 0) -> Format.fprintf ppf "%d" c
  | Poly (1, 1) -> Format.fprintf ppf "O(n)"
  | Poly (c, 1) -> Format.fprintf ppf "O(%d·n)" c
  | Poly (1, k) -> Format.fprintf ppf "O(n^%d)" k
  | Poly (c, k) -> Format.fprintf ppf "O(%d·n^%d)" c k
  | Inf -> Format.pp_print_string ppf "∞"

let card_to_string c = Format.asprintf "%a" pp_card c

(* ------------------------------------------------------------------ *)
(* Structural caps: a relation over a universe of [n] objects holds at
   most n^width distinct tuples. Scalar methods are functional in
   (receiver, args) — {!Engine.Err.Functional_conflict} enforces it — so
   their width drops the result dimension. *)

let const_obj store : reference -> Oodb.Obj_id.t option = function
  | Name n -> Some (Oodb.Store.name store n)
  | Int_lit n -> Some (Oodb.Store.int store n)
  | Str_lit s -> Some (Oodb.Store.str store s)
  | Var _ | Paren _ | Path _ | Regex _ | Filter _ | Isa _ -> None

let meth_rel store ~set m : Ir.rel =
  match const_obj store m with
  | Some m -> if set then Ir.R_set m else Ir.R_scalar m
  | None -> Ir.R_any

let isa_rel store cls : Ir.rel =
  match const_obj store cls with Some c -> Ir.R_isa_c c | None -> Ir.R_isa

type widths = {
  arities : (Ir.rel, int) Hashtbl.t;  (** max args per method relation *)
  mutable any_exp : int;  (** cap exponent of [R_any] *)
}

let note_arity w rel a =
  match (rel : Ir.rel) with
  | R_scalar _ | R_set _ ->
    let cur = Option.value ~default:0 (Hashtbl.find_opt w.arities rel) in
    if a > cur then Hashtbl.replace w.arities rel a
  | R_isa | R_isa_c _ -> ()
  | R_any -> w.any_exp <- max w.any_exp (a + 2)

let rec note_atom w (a : Ir.atom) =
  match a with
  | A_isa _ | A_eq _ -> ()
  | A_scalar { meth; args; _ } ->
    let rel =
      match meth with Const m -> Ir.R_scalar m | Ir.V _ -> Ir.R_any
    in
    note_arity w rel (List.length args)
  | A_member { meth; args; _ } ->
    let rel = match meth with Const m -> Ir.R_set m | Ir.V _ -> Ir.R_any in
    note_arity w rel (List.length args)
  | A_subset s ->
    let rel =
      match s.s_meth with Const m -> Ir.R_set m | Ir.V _ -> Ir.R_any
    in
    note_arity w rel (List.length s.s_args);
    List.iter (note_atom w) s.sub_atoms
  | A_neg n -> List.iter (note_atom w) n.n_atoms
  | A_regex x ->
    Array.iter
      (fun out ->
        Array.iter
          (fun ((l : Ir.label), _) ->
            note_arity w (Ir.label_rel l) (List.length l.Ir.lbl_args))
          out)
      x.x_auto.Ir.a_trans

let note_head store w head =
  let add () = function
    | Path { p_sep = Dot; p_meth = Name "self"; p_args = []; _ } -> ()
    | Path { p_sep; p_meth; p_args; _ } ->
      note_arity w
        (meth_rel store ~set:(p_sep = Dotdot) p_meth)
        (List.length p_args)
    | Filter { f_meth; f_args; f_rhs; _ } -> (
      match f_rhs with
      | Rscalar _ ->
        note_arity w (meth_rel store ~set:false f_meth) (List.length f_args)
      | Rset_ref _ | Rset_enum _ ->
        note_arity w (meth_rel store ~set:true f_meth) (List.length f_args)
      | Rsig_scalar _ | Rsig_set _ -> ())
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Regex _ | Isa _ ->
      ()
  in
  fold_reference add () head

let collect_widths store (facts : Rule.fact list) (rules : Rule.t list) =
  let w = { arities = Hashtbl.create 32; any_exp = 2 } in
  List.iter (fun (f : Rule.fact) -> note_head store w f.f_source.head) facts;
  List.iter
    (fun (r : Rule.t) ->
      List.iter (note_atom w) r.body.atoms;
      note_head store w r.source.head)
    rules;
  let exp rel arity =
    match (rel : Ir.rel) with
    | R_scalar _ -> 1 + arity  (* functional in recv+args *)
    | R_set _ -> 2 + arity
    | R_isa_c _ -> 1
    | R_isa -> 2
    | R_any -> w.any_exp
  in
  Hashtbl.iter
    (fun rel a -> w.any_exp <- max w.any_exp (exp rel a))
    w.arities;
  fun rel ->
    let a = Option.value ~default:0 (Hashtbl.find_opt w.arities rel) in
    Poly (1, exp rel a)

(* ------------------------------------------------------------------ *)
(* Head define occurrences, with multiplicity (a head asserting the same
   relation twice contributes two tuples per firing, unlike
   {!Rule.t.defines} which dedups). *)

let head_occs store head : Ir.rel list =
  let add acc = function
    | Path { p_sep = Dot; p_meth = Name "self"; p_args = []; _ } -> acc
    | Path { p_sep = Dot; p_meth; _ } -> meth_rel store ~set:false p_meth :: acc
    | Path { p_sep = Dotdot; _ } -> acc
    | Isa { cls; _ } -> isa_rel store cls :: acc
    | Filter { f_meth; f_rhs; _ } -> (
      match f_rhs with
      | Rscalar _ -> meth_rel store ~set:false f_meth :: acc
      | Rset_ref _ | Rset_enum _ -> meth_rel store ~set:true f_meth :: acc
      | Rsig_scalar _ | Rsig_set _ -> acc)
    | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Regex _ -> acc
  in
  List.rev (fold_reference add [] head)

(* ------------------------------------------------------------------ *)
(* Rule-level dependency: inserting into [d] (already expanded through
   the class hierarchy) can grow a relation rule [j] reads when
   - [d] is a scalar or set relation that [j] reads, or [j] reads any
     method ([reads_any]);
   - [d] is [R_any] and [j] reads any method, or any scalar or set
     relation;
   - [d] is [R_isa_c c] and [j] reads it or bare [R_isa];
   - [d] is [R_isa] and [j] reads it or any [R_isa_c].
   Mirrors {!Stratify}'s expand_define/expand_read, restricted to what
   the worklist needs. Readers are indexed once by those keys, so
   [succ.(i)] — the rules an insertion by rule [i] can grow, descending —
   costs the readers it lists rather than a test against every rule. *)

let successors (rules : Rule.t array) (expanded_defs : Ir.rel list array) =
  let by_rel = Hashtbl.create 64 in
  let any = ref [] and meth = ref [] and isa_c = ref [] in
  Array.iteri
    (fun j (r : Rule.t) ->
      let reads_of p = List.exists p r.reads in
      if r.reads_any then any := j :: !any;
      if reads_of (function Ir.R_scalar _ | Ir.R_set _ -> true | _ -> false)
      then meth := j :: !meth;
      if reads_of (function Ir.R_isa_c _ -> true | _ -> false) then
        isa_c := j :: !isa_c;
      List.iter
        (fun rel ->
          Hashtbl.replace by_rel rel
            (j :: Option.value ~default:[] (Hashtbl.find_opt by_rel rel)))
        (List.sort_uniq Ir.compare_rel r.reads))
    rules;
  let readers rel = Option.value ~default:[] (Hashtbl.find_opt by_rel rel) in
  let reached (d : Ir.rel) =
    match d with
    | R_scalar _ | R_set _ -> !any @ readers d
    | R_any -> !any @ !meth
    | R_isa_c _ -> readers d @ readers Ir.R_isa
    | R_isa -> readers Ir.R_isa @ !isa_c
  in
  (* rules with equal defines (typically the facts of one relation)
     share one list *)
  let memo = Hashtbl.create 64 in
  Array.map
    (fun defs ->
      match Hashtbl.find_opt memo defs with
      | Some s -> s
      | None ->
        let s =
          List.sort_uniq (fun a b -> Int.compare b a)
            (List.concat_map reached defs)
        in
        Hashtbl.add memo defs s;
        s)
    expanded_defs

(* Tarjan over the rule-level graph; a rule is recursive when its SCC has
   more than one member or it reaches itself. *)
let recursion_flags (rules : Rule.t array) (expanded_defs : Ir.rel list array)
    =
  let n = Array.length rules in
  let succ = successors rules expanded_defs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp_of = Array.make n (-1) in
  let comp_size = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let ncomp = ref 0 in
  let rec strongconnect v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succ.(v);
    if lowlink.(v) = index.(v) then begin
      let c = !ncomp in
      incr ncomp;
      let size = ref 0 in
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp_of.(w) <- c;
          incr size;
          if w <> v then pop ()
        | [] -> assert false
      in
      pop ();
      Hashtbl.replace comp_size c !size
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  let recursive =
    Array.init n (fun i ->
        Hashtbl.find comp_size comp_of.(i) > 1 || List.mem i succ.(i))
  in
  (recursive, succ)

(* ------------------------------------------------------------------ *)
(* Per-rule firing bound: the product of the read cardinalities of the
   enumerating body atoms, times n for every slot no atom covers (the
   solver falls back to enumerating the universe for those). [A_eq]
   propagates boundness instead of enumerating; negation, set-inclusion
   and their locals never multiply solutions. *)

let slot_cover (q : Ir.query) =
  let covered = Array.make (max q.nvars 1) false in
  let cover t = match (t : Ir.term) with Ir.V v -> covered.(v) <- true | Const _ -> () in
  let rec locals_of acc (a : Ir.atom) =
    match a with
    | A_subset s ->
      let acc = List.rev_append s.s_locals acc in
      List.fold_left locals_of acc s.sub_atoms
    | A_neg n ->
      let acc = List.rev_append n.n_locals acc in
      List.fold_left locals_of acc n.n_atoms
    | A_isa _ | A_scalar _ | A_member _ | A_eq _ | A_regex _ -> acc
  in
  List.iter
    (fun (a : Ir.atom) ->
      match a with
      | A_isa (recv, cls) ->
        cover recv;
        cover cls
      | A_scalar { meth; recv; args; res } | A_member { meth; recv; args; res }
        ->
        cover meth;
        cover recv;
        List.iter cover args;
        cover res
      | A_regex { x_recv; x_res; _ } ->
        cover x_recv;
        cover x_res
      | A_eq _ | A_subset _ | A_neg _ -> ())
    q.atoms;
  (* unification propagates boundness; iterate to a (tiny) fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a : Ir.atom) ->
        match a with
        | A_eq (t1, t2) ->
          let bound = function
            | Ir.Const _ -> true
            | Ir.V v -> covered.(v)
          in
          if bound t1 && not (bound t2) then begin
            cover t2;
            changed := true
          end
          else if bound t2 && not (bound t1) then begin
            cover t1;
            changed := true
          end
        | A_isa _ | A_scalar _ | A_member _ | A_subset _ | A_neg _
        | A_regex _ ->
          ())
      q.atoms
  done;
  let locals = List.fold_left locals_of [] q.atoms in
  List.iter (fun v -> covered.(v) <- true) locals;
  let uncovered = ref 0 in
  for v = 0 to q.nvars - 1 do
    if not covered.(v) then incr uncovered
  done;
  !uncovered

let atom_read_rel (a : Ir.atom) : Ir.rel option =
  match a with
  | A_isa (_, Const c) -> Some (Ir.R_isa_c c)
  | A_isa (_, V _) -> Some Ir.R_isa
  | A_scalar { meth = Const m; _ } -> Some (Ir.R_scalar m)
  | A_member { meth = Const m; _ } -> Some (Ir.R_set m)
  | A_scalar { meth = V _; _ } | A_member { meth = V _; _ } -> Some Ir.R_any
  | A_eq _ | A_subset _ | A_neg _ | A_regex _ -> None

let firings_of read_card ~uncovered (r : Rule.t) =
  let f =
    List.fold_left
      (fun acc (a : Ir.atom) ->
        match (a : Ir.atom) with
        (* the product BFS expands at most |states|·n pairs per receiver
           seed; that is the atom's enumeration bound *)
        | A_regex x when Ir.atom_vars a <> [] ->
          card_mul acc (Poly (x.x_auto.Ir.a_nstates, 1))
        | _ -> (
          match atom_read_rel a with
          | Some rel when Ir.atom_vars a <> [] ->
            card_mul acc (read_card rel)
          | Some _ | None -> acc))
      (Exact 1) r.body.atoms
  in
  if uncovered > 0 then card_mul f (Poly (1, uncovered)) else f

(* ------------------------------------------------------------------ *)
(* Analysis result. *)

type verdict = Finite | Bounded_by_budget | Potentially_infinite

let verdict_to_string = function
  | Finite -> "finite"
  | Bounded_by_budget -> "bounded-by-budget"
  | Potentially_infinite -> "potentially-infinite"

type rule_card = {
  rc_rule : Rule.t;
  rc_firings : card;  (** bound on body solutions across the whole run *)
  rc_recursive : bool;
  rc_creation_cycle : Ir.rel option;
      (** the back-edge relation when the rule sits on a skolem-creation
          cycle ({!Analyses.creation_cycles}) *)
}

type t = {
  cards : card Rel_map.t;
  rules : rule_card list;
  n_facts : int;
  verdicts : (int * verdict) list;
  uid_lo : int;
  uid_span : int;  (* the uids of [rules] lie in [uid_lo, uid_lo + uid_span) *)
  relevance : Stratify.index;  (* [rules]' part of [Stratify.live_rules] *)
}


let rel_cards t = Rel_map.bindings t.cards

let rule_cards t = t.rules

let verdicts t = t.verdicts

(* ------------------------------------------------------------------ *)
(* The worklist fixpoint.

   State: per (rule, expanded define target) contribution. A relation's
   cardinality is min(structural cap, sum of the contributions that can
   reach it). Non-recursive rules contribute firings × head occurrences;
   recursive rules are widened straight to the target's cap (their
   contribution would otherwise ascend forever), and rules on a
   creation cycle contribute [Inf]. Contributions only ascend
   (join with the previous value), so the pass bound below is a safety
   net, not a correctness requirement. *)

let analyze ?strat ?(facts = []) store (rule_list : Rule.t list) : t =
  let rules = Array.of_list rule_list in
  let n = Array.length rules in
  let cap = collect_widths store facts rule_list in
  let anc = Stratify.static_ancestors ~facts rule_list in
  let expand d =
    match (d : Ir.rel) with
    | R_isa_c c ->
      d :: List.map (fun a -> Ir.R_isa_c a) (Obj_set.elements (anc c))
    | R_isa | R_scalar _ | R_set _ | R_any -> [ d ]
  in
  let expanded_defs =
    Array.map
      (fun (r : Rule.t) ->
        List.sort_uniq Ir.compare_rel (List.concat_map expand r.defines))
      rules
  in
  (* expanded head occurrences with multiplicity, counted into [tbl] *)
  let count_occs tbl head =
    List.iter
      (fun d ->
        List.iter
          (fun t ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt tbl t) in
            Hashtbl.replace tbl t (cur + 1))
          (expand d))
      (head_occs store head)
  in
  let recursive, succ = recursion_flags rules expanded_defs in
  let cyclic =
    let cycles = Analyses.creation_cycles ~facts store rule_list in
    Array.map
      (fun (r : Rule.t) ->
        Option.map snd (List.find_opt (fun (r', _) -> r' == r) cycles))
      rules
  in
  (* expanded head occurrences, grouped: (target, multiplicity) list *)
  let occs =
    Array.map
      (fun (r : Rule.t) ->
        let tbl = Hashtbl.create 8 in
        count_occs tbl r.source.head;
        Hashtbl.fold (fun t c acc -> (t, c) :: acc) tbl [])
      rules
  in
  (* a fact fires once, so its relations' seeds are exact counts *)
  let seeds = Hashtbl.create 64 in
  List.iter (fun (f : Rule.fact) -> count_occs seeds f.f_source.head) facts;
  let uncovered = Array.map (fun (r : Rule.t) -> slot_cover r.body) rules in
  (* Contributions indexed by target, each target's sum cached until
     one of its contributions changes, and the two sums over many
     targets ([R_isa] reads every class, [R_any] every relation) cached
     likewise. [card_sum] is associative and commutative with identity
     [Exact 0], so summing per target and then across targets gives the
     sum over every matching (rule, target) contribution. *)
  let contrib : (Ir.rel, (int, card) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let target_sums : (Ir.rel, card) Hashtbl.t = Hashtbl.create 64 in
  let isa_sum = ref None and all_sum = ref None in
  (* the facts' seeds are the contributions of rule -1 *)
  Hashtbl.iter
    (fun target c ->
      let by_rule = Hashtbl.create 8 in
      Hashtbl.add by_rule (-1) (Exact c);
      Hashtbl.add contrib target by_rule)
    seeds;
  let get_contrib i target =
    match Hashtbl.find_opt contrib target with
    | Some by_rule -> Hashtbl.find_opt by_rule i
    | None -> None
  in
  let set_contrib i target c =
    (match Hashtbl.find_opt contrib target with
    | Some by_rule -> Hashtbl.replace by_rule i c
    | None ->
      let by_rule = Hashtbl.create 8 in
      Hashtbl.add by_rule i c;
      Hashtbl.add contrib target by_rule);
    Hashtbl.remove target_sums target;
    all_sum := None;
    match (target : Ir.rel) with
    | R_isa | R_isa_c _ -> isa_sum := None
    | R_scalar _ | R_set _ | R_any -> ()
  in
  let target_sum t =
    match Hashtbl.find_opt target_sums t with
    | Some c -> c
    | None ->
      let c =
        match Hashtbl.find_opt contrib t with
        | Some by_rule ->
          Hashtbl.fold (fun _ c acc -> card_sum acc c) by_rule (Exact 0)
        | None -> Exact 0
      in
      Hashtbl.replace target_sums t c;
      c
  in
  let sum_targets cache pred =
    match !cache with
    | Some c -> c
    | None ->
      let c =
        Hashtbl.fold
          (fun t _ acc -> if pred t then card_sum acc (target_sum t) else acc)
          contrib (Exact 0)
      in
      cache := Some c;
      c
  in
  let read_card rel =
    let base =
      match (rel : Ir.rel) with
      | R_scalar _ | R_set _ -> card_sum (target_sum rel) (target_sum Ir.R_any)
      | R_isa_c _ -> card_sum (target_sum rel) (target_sum Ir.R_isa)
      | R_isa ->
        sum_targets isa_sum (function
          | Ir.R_isa | Ir.R_isa_c _ -> true
          | Ir.R_scalar _ | Ir.R_set _ | Ir.R_any -> false)
      | R_any -> sum_targets all_sum (fun _ -> true)
    in
    apply_cap (cap rel) base
  in
  let queue = Queue.create () in
  let in_queue = Array.make (max n 1) false in
  for i = 0 to n - 1 do
    Queue.add i queue;
    in_queue.(i) <- true
  done;
  let passes = ref 0 in
  let pass_limit = 64 * (n + 1) in
  while (not (Queue.is_empty queue)) && !passes <= pass_limit do
    incr passes;
    let i = Queue.take queue in
    in_queue.(i) <- false;
    let r = rules.(i) in
    let firings = firings_of read_card ~uncovered:uncovered.(i) r in
    let changed = ref false in
    List.iter
      (fun (target, mult) ->
        let c =
          if cyclic.(i) <> None then Inf
          else if recursive.(i) then
            if firings = Inf then Inf else cap target
          else
            apply_cap (cap target) (card_mul firings (Exact mult))
        in
        let old = Option.value ~default:(Exact 0) (get_contrib i target) in
        let nw = card_join old c in
        if nw <> old then begin
          set_contrib i target nw;
          changed := true
        end)
      occs.(i);
    if !changed then
      List.iter
        (fun j ->
          if not in_queue.(j) then begin
            Queue.add j queue;
            in_queue.(j) <- true
          end)
        succ.(i)
  done;
  (* Safety net: if the ascent did not settle within the pass budget,
     widen every remaining contribution to its cap (or Inf on a
     creation cycle) — trivially stable and still an upper bound. *)
  if not (Queue.is_empty queue) then
    Array.iteri
      (fun i (r : Rule.t) ->
        ignore r;
        List.iter
          (fun (target, _) ->
            let c = if cyclic.(i) <> None then Inf else cap target in
            set_contrib i target c)
          occs.(i))
      rules;
  (* final per-relation cards, over everything the program defines or
     reads *)
  let cards =
    let add m rel =
      if Rel_map.mem rel m then m else Rel_map.add rel (read_card rel) m
    in
    let m = Hashtbl.fold (fun rel _ m -> add m rel) seeds Rel_map.empty in
    let m = Array.fold_left (List.fold_left add) m expanded_defs in
    Array.fold_left (fun m (r : Rule.t) -> List.fold_left add m r.reads) m rules
  in
  let rule_cards =
    Array.to_list
      (Array.mapi
         (fun i (r : Rule.t) ->
           {
             rc_rule = r;
             rc_firings =
               (if cyclic.(i) <> None then Inf
                else firings_of read_card ~uncovered:uncovered.(i) r);
             rc_recursive = recursive.(i);
             rc_creation_cycle = cyclic.(i);
           })
         rules)
  in
  (* termination verdict per stratum *)
  let strat =
    match strat with
    | Some s -> Some s
    | None -> (
      try Some (Stratify.compute ~facts store rule_list)
      with Engine.Err.Unstratifiable _ -> None)
  in
  let verdicts =
    match strat with
    | None -> []
    | Some s ->
      let index = Hashtbl.create n in
      for i = n - 1 downto 0 do
        Hashtbl.replace index rules.(i).Rule.uid i
      done;
      let idx_of (r : Rule.t) = Hashtbl.find index r.uid in
      Array.to_list
        (Array.mapi
           (fun si members ->
             let v =
               if
                 List.exists
                   (fun r -> cyclic.(idx_of r) <> None)
                   members
               then Potentially_infinite
               else if
                 List.exists
                   (fun (r : Rule.t) ->
                     recursive.(idx_of r)
                     && r.body.atoms <> []
                     && Rule.skolem_defines store r.source.head <> [])
                   members
               then Bounded_by_budget
               else Finite
             in
             (si, v))
           s.Stratify.strata)
  in
  let uid_lo, uid_hi =
    List.fold_left
      (fun (lo, hi) (r : Rule.t) -> (min lo r.uid, max hi r.uid))
      (max_int, min_int) rule_list
  in
  {
    cards;
    rules = rule_cards;
    n_facts = List.length facts;
    verdicts;
    uid_lo;
    uid_span = (if rule_list = [] then 0 else uid_hi - uid_lo + 1);
    relevance = Stratify.index rule_list;
  }

(* ------------------------------------------------------------------ *)
(* Diagnostics: PL050/PL051/PL052. *)

let universe_size store = max 1 (Oodb.Universe.cardinality (Oodb.Store.universe store))

(* the fixpoint's size: every rule's firings, and one per fact *)
let total_firings ~n t =
  List.fold_left
    (fun acc rc ->
      match rc.rc_firings with
      | Inf -> acc
      | c -> sat_add acc (eval_card ~n c))
    t.n_facts t.rules

(* PL052: the body's enumerating atoms split into >1 variable-connected
   components — the join is a cross product no planner order or demand
   adornment can prune. *)
let cross_product (r : Rule.t) =
  let q = r.body in
  if q.nvars = 0 then false
  else begin
    let parent = Array.init q.nvars Fun.id in
    let rec find v = if parent.(v) = v then v else find parent.(v) in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then parent.(ra) <- rb
    in
    List.iter
      (fun a ->
        match Ir.atom_vars a with
        | [] -> ()
        | v :: rest -> List.iter (union v) rest)
      q.atoms;
    let enumerating =
      List.filter_map
        (fun a ->
          match (atom_read_rel a, Ir.atom_vars a) with
          | Some _, v :: _ -> Some (find v)
          | _, _ -> None)
        q.atoms
    in
    List.length (List.sort_uniq compare enumerating) > 1
  end

let default_threshold = 1_000_000

(* Membership of [t]'s rules in [Stratify.live_rules]'s answer, marked
   in one byte per uid: a test is O(1), so a pass over the rules stays
   linear in them. *)
let is_live t (live : Rule.t list) =
  let marked = Bytes.make t.uid_span '\000' in
  List.iter
    (fun (r : Rule.t) ->
      let i = r.uid - t.uid_lo in
      if i >= 0 && i < t.uid_span then Bytes.set marked i '\001')
    live;
  fun (r : Rule.t) -> Bytes.get marked (r.uid - t.uid_lo) = '\001'

let check ?(threshold = default_threshold) t store
    ~(queries : Syntax.Ast.literal list list) : Diagnostic.t list =
  let universe = Oodb.Store.universe store in
  let context (r : Rule.t) =
    Format.asprintf "%a" Syntax.Pretty.pp_rule
      (Option.value r.origin ~default:r.source)
  in
  (* PL050: unbounded creation reachable from a query *)
  let pl050 =
    if queries = [] then []
    else begin
      let goals =
        List.concat_map
          (fun lits ->
            match Semantics.Flatten.literals store lits with
            | q -> Ir.query_rels q.atoms
            | exception _ -> [])
          queries
      in
      let live = is_live t (Stratify.live t.relevance ~goals) in
      List.filter_map
        (fun rc ->
          match rc.rc_creation_cycle with
          | Some back when live rc.rc_rule ->
            let r = rc.rc_rule in
            Some
              (Diagnostic.make ?span:r.span ~context:(context r)
                 ~code:"PL050" ~severity:Diagnostic.Error
                 "provably unbounded object creation reachable from a \
                  query: each firing creates a fresh object that re-enters \
                  %a, so the fixpoint cannot terminate without a budget"
                 (Ir.pp_rel universe) back)
          | Some _ | None -> None)
        t.rules
    end
  in
  (* PL051: finite but too big. Skipped when some rule is already ∞ —
     PL050/PL030 cover that case. *)
  let pl051 =
    let any_inf = List.exists (fun rc -> rc.rc_firings = Inf) t.rules in
    let n = universe_size store in
    let total = total_firings ~n t in
    if any_inf || total <= threshold then []
    else begin
      let worst =
        List.fold_left
          (fun acc rc ->
            let v = match rc.rc_firings with Inf -> 0 | c -> eval_card ~n c in
            match acc with
            | Some (_, best) when best >= v -> acc
            | _ -> Some (rc, v))
          None t.rules
      in
      match worst with
      | None -> []
      | Some (rc, v) ->
        let r = rc.rc_rule in
        [
          Diagnostic.make ?span:r.span ~context:(context r) ~code:"PL051"
            ~severity:Diagnostic.Warning
            "worst-case fixpoint size ~%d derivations exceeds the \
             threshold (%d); this rule dominates with ~%d (bound %s at \
             n=%d)"
            total threshold v
            (card_to_string rc.rc_firings)
            n;
        ]
    end
  in
  (* PL052: cross-product join *)
  let pl052 =
    List.filter_map
      (fun rc ->
        let r = rc.rc_rule in
        if r.body.atoms <> [] && cross_product r then
          Some
            (Diagnostic.make ?span:r.span ~context:(context r) ~code:"PL052"
               ~severity:Diagnostic.Hint
               "cross-product join: the body splits into literals sharing \
                no variables, so no join order or demand adornment can \
                prune the enumeration")
        else None)
      t.rules
  in
  pl050 @ pl051 @ pl052

(* ------------------------------------------------------------------ *)
(* Bridges: explain's annotations and admission control. *)

let predicted t store rel =
  match Rel_map.find_opt rel t.cards with
  | None | Some Inf -> None
  | Some c -> Some (eval_card ~n:(universe_size store) c)

let query_cost t store _rules (lits : Syntax.Ast.literal list) :
    [ `Bound of int | `Infinite ] =
  let goals =
    match Semantics.Flatten.literals store lits with
    | q -> Ir.query_rels q.atoms
    | exception _ -> []
  in
  let live = is_live t (Stratify.live t.relevance ~goals) in
  let n = universe_size store in
  let rec go acc = function
    | [] -> `Bound acc
    | rc :: rest ->
      if live rc.rc_rule then
        match rc.rc_firings with
        | Inf -> `Infinite
        | c -> go (sat_add acc (eval_card ~n c)) rest
      else go acc rest
  in
  go 0 t.rules

(* ------------------------------------------------------------------ *)
(* Human-readable report for [pathlog check --estimates]. *)

let describe store t : string list =
  let universe = Oodb.Store.universe store in
  let n = universe_size store in
  let pp_rel = Ir.pp_rel universe in
  let rels =
    List.map
      (fun (rel, c) ->
        match c with
        | Inf -> Format.asprintf "  %a: ∞" pp_rel rel
        | c ->
          Format.asprintf "  %a: %a (~%d at n=%d)" pp_rel rel pp_card c
            (eval_card ~n c) n)
      (rel_cards t)
  in
  let line_of (r : Rule.t) =
    match r.span with
    | Some sp -> Printf.sprintf "line %d" sp.Syntax.Token.s_start.line
    | None -> "<no span>"
  in
  let rules =
    List.map
      (fun rc ->
        let r = rc.rc_rule in
        Format.asprintf "  %s: ~%a firings%s%s" (line_of r) pp_card
          rc.rc_firings
          (if rc.rc_recursive then " [recursive]" else "")
          (match rc.rc_creation_cycle with
          | Some back -> Format.asprintf " [creation cycle via %a]" pp_rel back
          | None -> ""))
      t.rules
  in
  let verdict_lines =
    List.map
      (fun (si, v) ->
        Printf.sprintf "  stratum %d: %s" si (verdict_to_string v))
      t.verdicts
  in
  ("relation cardinality bounds:" :: rels)
  @ ("rule firing bounds:" :: rules)
  @ ("termination verdicts:" :: verdict_lines)
