module Ast = Syntax.Ast
module Ir = Semantics.Ir
module Store = Oodb.Store
module S = Set.Make (String)

type fallback = Negation | Inclusion | Hilog | Unsafe

let fallback_to_string = function
  | Negation -> "negation"
  | Inclusion -> "set-inclusion"
  | Hilog -> "variable-method (hilog)"
  | Unsafe -> "untransformable rule"

(* ------------------------------------------------------------------ *)
(* Naming. The [$] character cannot appear in a lexed identifier, so the
   demand object and magic method names ({!Fact.magic_prefix}) can never
   collide with user vocabulary; the same goes for the [#] in generated
   variables. *)

let demand_obj = Ast.Name "$demand"

let magic_name store rel =
  let u = Store.universe store in
  match (rel : Ir.rel) with
  | Ir.R_scalar m -> Fact.magic_prefix ^ "sc$" ^ Oodb.Universe.to_string u m
  | Ir.R_set m -> Fact.magic_prefix ^ "set$" ^ Oodb.Universe.to_string u m
  | Ir.R_isa | Ir.R_isa_c _ | Ir.R_any -> invalid_arg "Demand.magic_name"

(* ------------------------------------------------------------------ *)
(* Reference analysis *)

let rec ground_simple store (r : Ast.reference) =
  match r with
  | Ast.Name n -> Some (Store.name store n)
  | Ast.Int_lit n -> Some (Store.int store n)
  | Ast.Str_lit s -> Some (Store.str store s)
  | Ast.Paren r -> ground_simple store r
  | Ast.Var _ | Ast.Path _ | Ast.Regex _ | Ast.Filter _ | Ast.Isa _ -> None

(* [ground_simple] without interning: a constant, possibly in
   parentheses. *)
let rec is_const (r : Ast.reference) =
  match r with
  | Ast.Name _ | Ast.Int_lit _ | Ast.Str_lit _ -> true
  | Ast.Paren r -> is_const r
  | Ast.Var _ | Ast.Path _ | Ast.Regex _ | Ast.Filter _ | Ast.Isa _ -> false

let is_self meth args =
  match (meth : Ast.reference) with
  | Ast.Name "self" -> args = []
  | _ -> false

(* The relation a method application touches; [None] for the built-in
   [self]. A non-ground method position is [R_any] (the gate rejects the
   program before any transform sees it). *)
let app_rel store ~set meth args =
  if is_self meth args then None
  else
    match ground_simple store meth with
    | Some m -> Some (if set then Ir.R_set m else Ir.R_scalar m)
    | None -> Some Ir.R_any

(* Every method application in a reference, pre-order, with its receiver
   sub-reference; isa atoms reported separately. *)
let rec walk store ~f (r : Ast.reference) =
  match r with
  | Ast.Name _ | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Var _ -> ()
  | Ast.Paren r -> walk store ~f r
  | Ast.Isa { recv; cls } ->
    f `Isa;
    walk store ~f recv;
    walk store ~f cls
  | Ast.Path { p_recv; p_sep; p_meth; p_args } ->
    (match app_rel store ~set:(p_sep = Ast.Dotdot) p_meth p_args with
    | Some rel -> f (`App (rel, p_recv))
    | None -> ());
    walk store ~f p_recv;
    List.iter (walk store ~f) p_args
  | Ast.Regex { x_recv; x_re } ->
    (* The automaton walks intermediate objects no syntactic receiver
       names, so each label relation is reported with an unboundable
       receiver: the demand analysis assigns it level F and the demanded
       submodel materialises the whole relation — sound over-demand, and
       the product BFS then runs correctly over the demanded store. *)
    let rec labels (re : Ast.regex) =
      match re with
      | Ast.Rlit { l_sep; l_meth; l_args } -> (
        match app_rel store ~set:(l_sep = Ast.Dotdot) l_meth l_args with
        | Some rel -> f (`App (rel, Ast.Var "_"))
        | None -> ())
      | Ast.Rseq rs | Ast.Ralt rs -> List.iter labels rs
      | Ast.Rstar r | Ast.Rplus r | Ast.Ropt r -> labels r
    in
    labels x_re;
    walk store ~f x_recv
  | Ast.Filter { f_recv; f_meth; f_args; f_rhs } ->
    (match f_rhs with
    | Ast.Rsig_scalar _ | Ast.Rsig_set _ -> ()
    | Ast.Rscalar _ | Ast.Rset_ref _ | Ast.Rset_enum _ ->
      let set =
        match f_rhs with Ast.Rscalar _ -> false | _ -> true
      in
      (match app_rel store ~set f_meth f_args with
      | Some rel -> f (`App (rel, f_recv))
      | None -> ());
      walk store ~f f_recv;
      List.iter (walk store ~f) f_args;
      (match f_rhs with
      | Ast.Rscalar rhs | Ast.Rset_ref rhs -> walk store ~f rhs
      | Ast.Rset_enum ms -> List.iter (walk store ~f) ms
      | Ast.Rsig_scalar _ | Ast.Rsig_set _ -> ()))

let has_anon r =
  Ast.fold_reference (fun acc s -> acc || s = Ast.Var "_") false r

(* Can this receiver be evaluated to a known set of objects once [bound]
   is bound? Anonymous variables are fresh existentials — never bound. *)
let boundable bound recv =
  (not (has_anon recv))
  && S.subset (S.of_list (Ast.vars_of_reference recv)) bound

(* ------------------------------------------------------------------ *)
(* Fallback gate *)

let ref_has_inclusion r =
  Ast.fold_reference
    (fun acc sub ->
      acc
      ||
      match sub with
      | Ast.Filter { f_rhs = Ast.Rset_ref _; _ } -> true
      | _ -> false)
    false r

let body_fallback lits =
  List.fold_left
    (fun acc lit ->
      match acc with
      | Some _ -> acc
      | None -> (
        match (lit : Ast.literal) with
        | Ast.Neg _ -> Some Negation
        | Ast.Pos r -> if ref_has_inclusion r then Some Inclusion else None))
    None lits

let is_any r = Ir.equal_rel (Ir.norm_rel r) Ir.R_any

let gate query_lits goals relevant =
  match body_fallback query_lits with
  | Some fb -> Some fb
  | None ->
    if List.exists is_any goals then Some Hilog
    else
      List.fold_left
        (fun acc (r : Rule.t) ->
          match acc with
          | Some _ -> acc
          | None -> (
            match body_fallback r.source.body with
            | Some fb -> Some fb
            | None ->
              if r.reads_any || List.exists is_any r.defines then Some Hilog
              else None))
        None relevant

(* ------------------------------------------------------------------ *)
(* Guardability: a rule we can restrict with a magic guard. It must
   define exactly one relation, through a flat filter head — simple
   receiver, ground method, simple args and simple right-hand-side terms —
   so that prefixing the guard cannot change what the head writes and the
   guard variable is exactly the head receiver. *)

let guard_info store (r : Rule.t) =
  match (r.defines, r.source.head) with
  | [ d ], Ast.Filter { f_recv; f_meth; f_args; f_rhs }
    when Ast.is_simple f_recv
         && (not (has_anon f_recv))
         && List.for_all Ast.is_simple f_args
         && not (is_self f_meth f_args) ->
    let check ~set rhs_ok =
      if not rhs_ok then None
      else
        match app_rel store ~set f_meth f_args with
        | Some rel when (not (is_any rel)) && Ir.equal_rel rel d ->
          Some (rel, f_recv)
        | _ -> None
    in
    (match f_rhs with
    | Ast.Rscalar rhs -> check ~set:false (Ast.is_simple rhs)
    | Ast.Rset_enum ms -> check ~set:true (List.for_all Ast.is_simple ms)
    | Ast.Rset_ref _ | Ast.Rsig_scalar _ | Ast.Rsig_set _ -> None)
  | _ -> None

let guard_lit store rel recv =
  Ast.Pos
    (Ast.Filter
       {
         f_recv = demand_obj;
         f_meth = Ast.Name (magic_name store rel);
         f_args = [];
         f_rhs = Ast.Rset_enum [ recv ];
       })

(* ------------------------------------------------------------------ *)
(* Demand analysis. Levels form the lattice none < B < F per normalised
   relation: B (bound receiver) means every occurrence demand reaches has
   an evaluable receiver; one free occurrence anywhere upgrades to F.
   Class membership is conservatively F — isa feeds the hierarchy closure
   and is cheap to materialise in full. *)

type level = B | F

let lub a b = match (a, b) with F, _ | _, F -> F | B, B -> B

let compute_levels store proper query_lits =
  let levels : (Ir.rel, level) Hashtbl.t = Hashtbl.create 32 in
  let definers : (Ir.rel, Rule.t list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun d ->
          let d = Ir.norm_rel d in
          let cur = Option.value ~default:[] (Hashtbl.find_opt definers d) in
          if not (List.memq r cur) then Hashtbl.replace definers d (r :: cur))
        r.defines)
    proper;
  let queue = Queue.create () in
  let demand rel lvl =
    let rel = Ir.norm_rel rel in
    match rel with
    | Ir.R_any -> ()
    | _ ->
      let lvl = match rel with Ir.R_isa -> F | _ -> lvl in
      let cur = Hashtbl.find_opt levels rel in
      let nu = match cur with None -> lvl | Some c -> lub c lvl in
      if cur <> Some nu then begin
        Hashtbl.replace levels rel nu;
        Queue.push (rel, nu) queue
      end
  in
  let demand_ref bound r =
    walk store r ~f:(function
      | `Isa -> demand Ir.R_isa F
      | `App (rel, recv) -> demand rel (if boundable bound recv then B else F))
  in
  let demand_body init_bound lits =
    ignore
      (List.fold_left
         (fun bound lit ->
           (match (lit : Ast.literal) with
           | Ast.Pos r -> demand_ref bound r
           | Ast.Neg r ->
             (* unreachable behind the gate; conservative if it ever runs *)
             demand_ref S.empty r);
           S.union bound (S.of_list (Ast.vars_of_literal lit)))
         init_bound lits)
  in
  (* Head components below the outermost application are reads (path
     prefixes resolve before skolemising, set-valued right-hand sides
     evaluate): demand them fully. The outermost application itself is the
     define — not demanded by occurring in its own head. *)
  let rec demand_head (r : Ast.reference) =
    match r with
    | Ast.Name _ | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Var _ -> ()
    | Ast.Paren r -> demand_head r
    | Ast.Isa { recv; cls } ->
      demand_ref S.empty recv;
      demand_ref S.empty cls
    | Ast.Path { p_recv; p_args; _ } ->
      demand_ref S.empty p_recv;
      List.iter (demand_ref S.empty) p_args
    (* regex heads are rejected by Wellformed (PL019); conservative if
       ever reached *)
    | Ast.Regex _ -> demand_ref S.empty r
    | Ast.Filter { f_recv; f_args; f_rhs; _ } ->
      demand_ref S.empty f_recv;
      List.iter (demand_ref S.empty) f_args;
      (match f_rhs with
      | Ast.Rscalar rhs | Ast.Rset_ref rhs -> demand_ref S.empty rhs
      | Ast.Rset_enum ms -> List.iter (demand_ref S.empty) ms
      | Ast.Rsig_scalar _ | Ast.Rsig_set _ -> ())
  in
  (* the query seeds the analysis as a pseudo-body with nothing bound *)
  demand_body S.empty query_lits;
  let processed : (int * bool, unit) Hashtbl.t = Hashtbl.create 32 in
  let process (r : Rule.t) lvl =
    let guard = if lvl = B then guard_info store r else None in
    let guarded = guard <> None in
    let key = (r.uid, guarded) in
    if not (Hashtbl.mem processed key) then begin
      Hashtbl.add processed key ();
      let init =
        match guard with
        | Some (_, recv) -> S.of_list (Ast.vars_of_reference recv)
        | None -> S.empty
      in
      demand_body init r.source.body;
      demand_head r.source.head
    end
  in
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some (rel, lvl) ->
      List.iter
        (fun r -> process r lvl)
        (Option.value ~default:[] (Hashtbl.find_opt definers rel));
      drain ()
  in
  drain ();
  levels

(* ------------------------------------------------------------------ *)
(* Emission. Forms first (guarded / unguarded / dropped), then one pass
   over the query and every emitted body producing magic rules: a
   bound-receiver application of a B-level relation that some guarded
   rule is keyed on yields

     $demand[magic_m ->> {recv}]  <-  <body prefix binding recv>.

   (plus the guard, for guarded contexts). A receiver that is itself a
   path gets a fresh variable extracted with the built-in [self], which
   evaluates without skolemising. An empty prefix with a constant
   receiver degenerates to a magic seed fact. *)

let emit store proper query_lits levels =
  let level rel = Hashtbl.find_opt levels (Ir.norm_rel rel) in
  let forms =
    List.map
      (fun (r : Rule.t) ->
        if not (List.exists (fun d -> level d <> None) r.defines) then
          (r, `Dropped)
        else
          match guard_info store r with
          | Some (d, recv) when level d = Some B -> (r, `Guarded (d, recv))
          | Some _ | None -> (r, `Unguarded))
      proper
  in
  let guarded_rels =
    List.filter_map
      (function
        | _, `Guarded (d, _) -> Some (Ir.norm_rel d)
        | _ -> None)
      forms
  in
  let needs_magic rel =
    List.exists (Ir.equal_rel (Ir.norm_rel rel)) guarded_rels
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let seeds = ref [] in
  let magic = ref [] in
  let fresh = ref 0 in
  (* [origin]: the user-written rule whose body demanded this magic rule
     (None when the query itself did); diagnostics on the synthesized rule
     anchor to it. *)
  let text_buf = Buffer.create 128 in
  let add_magic origin (rule : Ast.rule) =
    Buffer.clear text_buf;
    Syntax.Pretty.add_rule text_buf rule;
    let text = Buffer.contents text_buf in
    if not (Hashtbl.mem seen text) then begin
      Hashtbl.add seen text ();
      if rule.body = [] then seeds := rule :: !seeds
      else magic := (rule, origin, text) :: !magic
    end
  in
  let emit_for_app origin context rel recv =
    let member, binding =
      match recv with
      | Ast.Var _ -> (recv, [])
      | r when is_const r -> (recv, [])
      | _ ->
        incr fresh;
        let v = Printf.sprintf "Seed#%d" !fresh in
        ( Ast.Var v,
          [
            Ast.Pos
              (Ast.Filter
                 {
                   f_recv = recv;
                   f_meth = Ast.Name "self";
                   f_args = [];
                   f_rhs = Ast.Rscalar (Ast.Var v);
                 });
          ] )
    in
    let head =
      Ast.Filter
        {
          f_recv = demand_obj;
          f_meth = Ast.Name (magic_name store rel);
          f_args = [];
          f_rhs = Ast.Rset_enum [ member ];
        }
    in
    add_magic origin { Ast.head; body = context @ binding }
  in
  let emit_body origin context_init bound_init lits =
    ignore
      (List.fold_left
         (fun (ctx, bound) lit ->
           (match (lit : Ast.literal) with
           | Ast.Pos r ->
             walk store r ~f:(function
               | `Isa -> ()
               | `App (rel, recv) ->
                 if
                   level rel = Some B && boundable bound recv
                   && needs_magic rel
                 then emit_for_app origin (List.rev ctx) rel recv)
           | Ast.Neg _ -> ());
           (lit :: ctx, S.union bound (S.of_list (Ast.vars_of_literal lit))))
         (context_init, bound_init) lits)
  in
  (* the query's own bound applications seed the demand sets *)
  emit_body None [] S.empty query_lits;
  let guarded_asts = ref [] in
  let unguarded = ref [] in
  let n_dropped = ref 0 in
  List.iter
    (fun ((r : Rule.t), form) ->
      match form with
      | `Dropped -> incr n_dropped
      | `Guarded (d, recv) ->
        let guard = guard_lit store d recv in
        guarded_asts :=
          ( { Ast.head = r.source.head; body = guard :: r.source.body },
            recv,
            r )
          :: !guarded_asts;
        emit_body (Some r) [ guard ]
          (S.of_list (Ast.vars_of_reference recv))
          r.source.body
      | `Unguarded ->
        unguarded := r :: !unguarded;
        emit_body (Some r) [] S.empty r.source.body)
    forms;
  let seeds = List.rev !seeds in
  let magic = List.rev !magic in
  let guarded = List.rev !guarded_asts in
  let unguarded = List.rev !unguarded in
  (seeds, magic, guarded, unguarded, !n_dropped)

(* ------------------------------------------------------------------ *)

let magic_fact_total store =
  let u = Store.universe store in
  List.fold_left
    (fun acc m ->
      match Oodb.Universe.descriptor u m with
      | Oodb.Universe.Name s when Fact.is_magic_name s ->
        acc + Store.set_live_count store m
      | _ -> acc)
    0 (Store.set_meths store)

(* ------------------------------------------------------------------ *)
(* Query skeletons. A query's skeleton is its literals with every
   constant outside a method position replaced by a numbered placeholder,
   the reserved name [$q<k>] (a lexed name never starts with [$]). The
   transform treats a placeholder as the ground constant it stands for,
   and its output is the same function of the placeholders as it is of
   the constants, so a skeleton's transform, with the placeholders put
   back, is the transform of each query the skeleton stands for. Method
   positions keep their constants: they pick the relations. *)

let placeholder_prefix = "$q"

let placeholder_name k = placeholder_prefix ^ string_of_int k

let placeholder k = Ast.Name (placeholder_name k)

let placeholder_index (r : Ast.reference) =
  match r with
  | Ast.Name n when String.starts_with ~prefix:placeholder_prefix n ->
    int_of_string_opt
      (String.sub n
         (String.length placeholder_prefix)
         (String.length n - String.length placeholder_prefix))
  | _ -> None

(* Rebuild a reference with every constant leaf mapped through [f];
   [~meth] tells [f] whether the leaf is a method position. *)
let map_consts f (r : Ast.reference) =
  let rec go ~meth (r : Ast.reference) : Ast.reference =
    match r with
    | Ast.Name _ | Ast.Int_lit _ | Ast.Str_lit _ -> f ~meth r
    | Ast.Var _ -> r
    | Ast.Paren r -> Ast.Paren (go ~meth r)
    | Ast.Path p ->
      Ast.Path
        {
          p with
          p_recv = obj p.p_recv;
          p_meth = go ~meth:true p.p_meth;
          p_args = List.map obj p.p_args;
        }
    | Ast.Regex { x_recv; x_re } ->
      Ast.Regex { x_recv = obj x_recv; x_re = regex x_re }
    | Ast.Isa { recv; cls } -> Ast.Isa { recv = obj recv; cls = obj cls }
    | Ast.Filter fl ->
      Ast.Filter
        {
          f_recv = obj fl.f_recv;
          f_meth = go ~meth:true fl.f_meth;
          f_args = List.map obj fl.f_args;
          f_rhs =
            (match fl.f_rhs with
            | Ast.Rscalar r -> Ast.Rscalar (obj r)
            | Ast.Rset_ref r -> Ast.Rset_ref (obj r)
            | Ast.Rset_enum rs -> Ast.Rset_enum (List.map obj rs)
            | (Ast.Rsig_scalar _ | Ast.Rsig_set _) as rhs -> rhs);
        }
  and obj r = go ~meth:false r
  and regex (re : Ast.regex) : Ast.regex =
    match re with
    | Ast.Rlit l ->
      Ast.Rlit
        { l with l_meth = go ~meth:true l.l_meth; l_args = List.map obj l.l_args }
    | Ast.Rseq rs -> Ast.Rseq (List.map regex rs)
    | Ast.Ralt rs -> Ast.Ralt (List.map regex rs)
    | Ast.Rstar r -> Ast.Rstar (regex r)
    | Ast.Rplus r -> Ast.Rplus (regex r)
    | Ast.Ropt r -> Ast.Ropt (regex r)
  in
  obj r

let map_literal f (lit : Ast.literal) : Ast.literal =
  match lit with
  | Ast.Pos r -> Ast.Pos (map_consts f r)
  | Ast.Neg r -> Ast.Neg (map_consts f r)

(* Put [sub k] back for every placeholder [k]. *)
let fill sub (rule : Ast.rule) =
  let f ~meth:_ r =
    match placeholder_index r with Some k -> sub k | None -> r
  in
  { Ast.head = map_consts f rule.head; body = List.map (map_literal f) rule.body }

type skeleton = {
  sk_key : string;
  sk_lits : Ast.literal list;
  sk_consts : Ast.reference array;
}

let skeleton lits =
  let consts = ref [] and n = ref 0 in
  let f ~meth r =
    if meth then r
    else
      match List.assoc_opt r !consts with
      | Some k -> placeholder k
      | None ->
        let k = !n in
        incr n;
        consts := (r, k) :: !consts;
        placeholder k
  in
  let sk_lits = List.map (map_literal f) lits in
  let sk_consts = Array.of_list (List.rev_map fst !consts) in
  let b = Buffer.create 64 in
  List.iter
    (fun lit ->
      Syntax.Pretty.add_literal b lit;
      Buffer.add_char b '\n')
    sk_lits;
  (* a constant keeps its kind: [5] and ["5"] are different skeletons *)
  Array.iter
    (fun (c : Ast.reference) ->
      Buffer.add_char b
        (match c with Ast.Int_lit _ -> 'i' | Ast.Str_lit _ -> 's' | _ -> 'n'))
    sk_consts;
  { sk_key = Buffer.contents b; sk_lits; sk_consts }

(* ------------------------------------------------------------------ *)
(* The transform result: the query's seed facts plus its shape — the
   non-seed rules, kept uncompiled until a caller with no compiled copy of
   this shape asks for one. *)

type pending = {
  levels : (Ir.rel, level) Hashtbl.t;
  magic : (Ast.rule * Rule.t option * string) list;
  guarded : (Ast.rule * Ast.reference * Rule.t) list;
  unguarded : Rule.t list;
}

type t = {
  key : string;
  seeds : Ast.rule list;
  carried : int list;
  n_seeds : int;
  n_magic : int;
  n_guarded : int;
  n_unguarded : int;
  n_dropped : int;
  pending : pending;
}

type shape = {
  strat : Stratify.t;
  generated : int list;
}

(* Synthesized rules inherit the span and origin of the user rule they
   were derived from, so diagnostics report the source text. *)
let compile_from store (orig : Rule.t option) ast =
  match orig with
  | Some r ->
    Rule.compile ?span:r.span
      ~origin:(Option.value r.origin ~default:r.source)
      store ast
  | None -> Rule.compile store ast

let compile_guarded store d =
  List.map
    (fun (ast, recv, r) -> (compile_from store (Some r) ast, recv))
    d.pending.guarded

let compile store d =
  let magic =
    List.map
      (fun (ast, orig, _) -> compile_from store orig ast)
      d.pending.magic
  in
  let guarded = List.map fst (compile_guarded store d) in
  {
    strat = Stratify.compute store (magic @ guarded @ d.pending.unguarded);
    generated = List.map (fun (r : Rule.t) -> r.uid) (magic @ guarded);
  }

let listing store d =
  let u = Store.universe store in
  let pp_rule = Syntax.Pretty.rule_to_string in
  let adorned =
    Hashtbl.fold
      (fun rel lvl acc ->
        Format.asprintf "%%   %a : %s" (Ir.pp_rel u) rel
          (match lvl with B -> "bound-receiver" | F -> "free")
        :: acc)
      d.pending.levels []
    |> List.sort compare
  in
  let section title rules =
    Printf.sprintf "%%%% %s (%d)" title (List.length rules)
    :: List.map pp_rule rules
  in
  (* the adorned plan each guarded body follows once its receiver slot is
     seeded from the magic set *)
  let plans =
    List.concat_map
      (fun ((r : Rule.t), recv) ->
        let bindings =
          match (recv : Ast.reference) with
          | Ast.Var v -> (
            match List.assoc_opt v r.body.named with
            | Some slot -> [ (slot, Store.name store "$demand") ]
            | None -> [])
          | _ -> []
        in
        (pp_rule r.source :: List.map (fun l -> "%   " ^ l)
          (Semantics.Solve.explain ~bindings
             store r.body)))
      (compile_guarded store d)
  in
  (Printf.sprintf "%%%% adorned relations (%d)" (List.length adorned)
   :: adorned)
  @ section "magic seeds" d.seeds
  @ section "magic rules" (List.map (fun (ast, _, _) -> ast) d.pending.magic)
  @ section "guarded rules"
      (List.map (fun (ast, _, _) -> ast) d.pending.guarded)
  @ section "unguarded rules"
      (List.map (fun (r : Rule.t) -> r.source) d.pending.unguarded)
  @ [ Printf.sprintf "%%%% dropped rules: %d" d.n_dropped ]
  @ (match plans with
    | [] -> []
    | _ -> "%% guarded plans (receiver bound)" :: plans)

(* The magic rules are the only part that depends on more than the
   originating rules: their text identifies them. Guarded and unguarded
   rules are fixed by the user rule they come from. *)
let shape_key magic guarded unguarded =
  String.concat "\n"
    (List.map (fun (_, _, text) -> text) magic
    @ List.map
        (fun (_, _, (r : Rule.t)) -> Printf.sprintf "guarded %d" r.uid)
        guarded
    @ List.map (fun (r : Rule.t) -> Printf.sprintf "unguarded %d" r.uid) unguarded)

(* The placeholders a rule mentions. *)
let placeholders (rule : Ast.rule) =
  let add acc r =
    match placeholder_index r with
    | Some k when not (List.mem k acc) -> k :: acc
    | Some _ | None -> acc
  in
  List.fold_left
    (fun acc (lit : Ast.literal) ->
      match lit with
      | Ast.Pos r | Ast.Neg r -> Ast.fold_reference add acc r)
    (Ast.fold_reference add [] rule.head)
    rule.body

let transform store (rules : Rule.t list) query_lits =
  (* only the relations of the query's atoms matter here, and a variable
     in a placeholder's place reads the same ones (a class position's
     [R_isa_c] and [R_isa] normalise alike), so placeholders never enter
     the universe *)
  let q =
    Semantics.Flatten.literals store
      (List.map
         (map_literal (fun ~meth:_ r ->
              match placeholder_index r with
              | Some k -> Ast.Var (placeholder_name k)
              | None -> r))
         query_lits)
  in
  let goals = Ir.query_rels q.atoms in
  let relevant = Stratify.live_rules rules ~goals in
  match gate query_lits goals relevant with
  | Some fb -> Error fb
  | None ->
    let proper =
      List.filter
        (fun (r : Rule.t) -> r.source.body <> [] || r.reads <> [])
        relevant
    in
    let levels = compute_levels store proper query_lits in
    let seeds, magic, guarded, unguarded, n_dropped =
      emit store proper query_lits levels
    in
    if
      List.exists
        (fun ru -> Syntax.Wellformed.check_rule ru <> Ok ())
        (seeds
        @ List.map (fun (ast, _, _) -> ast) magic
        @ List.map (fun (ast, _, _) -> ast) guarded)
    then Error Unsafe
    else
      Ok
        {
          key = shape_key magic guarded unguarded;
          seeds;
          carried =
            List.sort_uniq Int.compare
              (List.concat_map (fun (ast, _, _) -> placeholders ast) magic);
          n_seeds = List.length seeds;
          n_magic = List.length magic;
          n_guarded = List.length guarded;
          n_unguarded = List.length unguarded;
          n_dropped;
          pending = { levels; magic; guarded; unguarded };
        }

(* ------------------------------------------------------------------ *)
(* Instantiating a skeleton's transform *)

let specialise d consts =
  let sub k = consts.(k) in
  let b = Buffer.create 128 and seen = Hashtbl.create 16 in
  (* filling the placeholders in can make two magic rules one, as the
     transform of the query itself would have found them *)
  let magic =
    List.filter_map
      (fun (ast, origin, _) ->
        let ast = fill sub ast in
        Buffer.clear b;
        Syntax.Pretty.add_rule b ast;
        let text = Buffer.contents b in
        if Hashtbl.mem seen text then None
        else begin
          Hashtbl.add seen text ();
          Some (ast, origin, text)
        end)
      d.pending.magic
  in
  let pending = { d.pending with magic } in
  {
    d with
    key = shape_key magic pending.guarded pending.unguarded;
    carried = [];
    n_magic = List.length magic;
    pending;
  }

let carried_key d consts =
  let b = Buffer.create 32 in
  List.iter
    (fun k ->
      Buffer.add_char b '\n';
      Syntax.Pretty.add_reference b consts.(k))
    d.carried;
  Buffer.contents b

(* A seed's placeholder [k] becomes a variable of the same name, read
   from binding slot [k]. *)
let seed_template d ~slots =
  let named = List.init slots (fun k -> (placeholder_name k, k)) in
  List.map
    (fun (seed : Ast.rule) ->
      let head = (fill (fun k -> Ast.Var (placeholder_name k)) seed).head in
      (seed, Head.compile ~named head))
    d.seeds

let seed_count d consts =
  match d.seeds with
  | [] | [ _ ] -> List.length d.seeds
  | seeds ->
    (* seeds distinct as placeholders may coincide as constants *)
    List.length
      (List.sort_uniq compare (List.map (fill (fun k -> consts.(k))) seeds))
