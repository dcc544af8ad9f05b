type action =
  | Assert of Syntax.Ast.reference
  | Message of string

type prule = {
  p_name : string;
  condition : Syntax.Ast.literal list;
  actions : action list;
  priority : int;
}

type event = {
  e_rule : string;
  e_bindings : (string * Oodb.Obj_id.t) list;
  e_message : string option;
}

type compiled_action = Run of Head.t | Say of string

type compiled = {
  rule : prule;
  order : int;  (* declaration order, for conflict resolution *)
  body : Semantics.Ir.query;
  actions : compiled_action list;  (* heads compiled against [body] *)
  as_ast : Syntax.Ast.rule;  (* for head execution error context *)
}

type t = {
  store : Oodb.Store.t;
  rules : compiled list;
  fired : (string * Oodb.Obj_id.t list, unit) Hashtbl.t;  (* refractoriness *)
  mutable events : event list;  (* reversed *)
}

let check_rule_syntax (r : prule) =
  let heads =
    List.filter_map
      (function Assert h -> Some h | Message _ -> None)
      r.actions
  in
  let as_deductive_head head =
    { Syntax.Ast.head; body = r.condition }
  in
  List.iter
    (fun head ->
      match Syntax.Wellformed.check_rule (as_deductive_head head) with
      | Ok () -> ()
      | Error e ->
        invalid_arg
          (Format.asprintf "production rule %s: %a" r.p_name
             Syntax.Wellformed.pp_error e))
    heads;
  match Syntax.Wellformed.check_query r.condition with
  | Ok () -> ()
  | Error e ->
    invalid_arg
      (Format.asprintf "production rule %s: %a" r.p_name
         Syntax.Wellformed.pp_error e)

let create store rules =
  let compiled =
    List.mapi
      (fun order rule ->
        check_rule_syntax rule;
        let body = Semantics.Flatten.literals store rule.condition in
        {
          rule;
          order;
          body;
          actions =
            List.map
              (function
                | Assert h -> Run (Head.compile ~named:body.named h)
                | Message m -> Say m)
              rule.actions;
          as_ast =
            {
              Syntax.Ast.head =
                (match rule.actions with
                | Assert h :: _ -> h
                | _ -> Syntax.Ast.Name rule.p_name);
              body = rule.condition;
            };
        })
      rules
  in
  { store; rules = compiled; fired = Hashtbl.create 64; events = [] }

let store t = t.store

(* The conflict-set key of an instantiation: rule name + bindings of the
   condition's named variables. *)
let instantiation_key (c : compiled) binding =
  (c.rule.p_name, List.map (fun (_, slot) -> binding.(slot)) c.body.named)

(* Find the first unfired instantiation of [c], if any. *)
let find_instantiation t (c : compiled) =
  let found = ref None in
  (try
     Semantics.Solve.iter t.store c.body ~f:(fun binding ->
         let key = instantiation_key c binding in
         if not (Hashtbl.mem t.fired key) then begin
           found := Some (Array.copy binding, key);
           raise Semantics.Solve.Stopped
         end)
   with Semantics.Solve.Stopped -> ());
  !found

let fire t (c : compiled) binding key =
  Hashtbl.add t.fired key ();
  let bindings =
    List.map (fun (name, slot) -> (name, binding.(slot))) c.body.named
  in
  List.iter
    (function
      | Run head ->
        let changes = ref 0 in
        ignore (Head.execute t.store ~binding ~rule:c.as_ast ~changes head)
      | Say m ->
        t.events <-
          { e_rule = c.rule.p_name; e_bindings = bindings; e_message = Some m }
          :: t.events)
    c.actions;
  t.events <-
    { e_rule = c.rule.p_name; e_bindings = bindings; e_message = None }
    :: t.events

let step t =
  (* rules sorted by priority desc, then declaration order *)
  let ordered =
    List.sort
      (fun a b ->
        match compare b.rule.priority a.rule.priority with
        | 0 -> compare a.order b.order
        | c -> c)
      t.rules
  in
  let rec try_rules = function
    | [] -> false
    | c :: rest -> (
      match find_instantiation t c with
      | Some (binding, key) ->
        fire t c binding key;
        true
      | None -> try_rules rest)
  in
  try_rules ordered

let run ?(max_steps = 1_000_000) t =
  let rec go n =
    if n >= max_steps then n
    else if step t then go (n + 1)
    else n
  in
  go 0

let log t =
  List.rev t.events
