type t =
  | F_isa of Oodb.Obj_id.t * Oodb.Obj_id.t
  | F_scalar of app
  | F_set of app

and app = {
  meth : Oodb.Obj_id.t;
  recv : Oodb.Obj_id.t;
  args : Oodb.Obj_id.t list;
  res : Oodb.Obj_id.t;
}

let equal_app a b =
  Int.equal a.meth b.meth && Int.equal a.recv b.recv && Int.equal a.res b.res
  && List.equal Int.equal a.args b.args

let equal a b =
  match (a, b) with
  | F_isa (o, c), F_isa (o', c') -> Int.equal o o' && Int.equal c c'
  | F_scalar a, F_scalar b | F_set a, F_set b -> equal_app a b
  | (F_isa _ | F_scalar _ | F_set _), _ -> false

let mix h x = (h * 0x2F0B3A49) + x

let hash f =
  let app tag { meth; recv; args; res } =
    List.fold_left mix (mix (mix (mix tag meth) recv) res) args
  in
  (match f with
  | F_isa (o, c) -> mix (mix 1 o) c
  | F_scalar a -> app 2 a
  | F_set a -> app 3 a)
  |> fun h -> (h lxor (h lsr 29)) land max_int

(* The one fact printer, straight into a buffer. Virtual objects in
   method and class position are parenthesised, so every line parses back
   to the fact it prints. *)
let add u b fact =
  let obj = Oodb.Universe.add_obj u b and paren = Oodb.Universe.add_paren u b in
  let app ~arrow { meth; recv; args; res } ~close =
    obj recv;
    Buffer.add_char b '[';
    paren meth;
    (match args with
    | [] -> ()
    | a :: rest ->
      Buffer.add_string b "@(";
      obj a;
      List.iter
        (fun a ->
          Buffer.add_string b ", ";
          obj a)
        rest;
      Buffer.add_char b ')');
    Buffer.add_string b arrow;
    obj res;
    Buffer.add_string b close
  in
  match fact with
  | F_isa (o, c) ->
    obj o;
    Buffer.add_string b " : ";
    paren c
  | F_scalar a -> app ~arrow:" -> " a ~close:"]"
  | F_set a -> app ~arrow:" ->> {" a ~close:"}]"

let pp u ppf fact =
  let b = Buffer.create 64 in
  add u b fact;
  Format.pp_print_string ppf (Buffer.contents b)

let magic_prefix = "magic$"

let is_magic_name s =
  String.length s > String.length magic_prefix
  && String.starts_with ~prefix:magic_prefix s

let is_magic u = function
  | F_set { meth; _ } -> (
    match Oodb.Universe.descriptor u meth with
    | Oodb.Universe.Name s -> is_magic_name s
    | Int _ | Str _ | Skolem _ -> false)
  | F_isa _ | F_scalar _ -> false

let iter_live store f =
  let module Store = Oodb.Store in
  Store.iter_live_isa store (fun sub cls -> f (F_isa (sub, cls)));
  Store.iter_live_scalar store (fun m (e : Store.mentry) ->
      f (F_scalar { meth = m; recv = e.recv; args = e.args; res = e.res }));
  Store.iter_live_set store (fun m (e : Store.mentry) ->
      f (F_set { meth = m; recv = e.recv; args = e.args; res = e.res }))

let lines ?(stop = "") u iter =
  let acc = ref [] and b = Buffer.create 64 in
  iter (fun f ->
      if not (is_magic u f) then begin
        Buffer.clear b;
        add u b f;
        Buffer.add_string b stop;
        acc := Buffer.contents b :: !acc
      end);
  List.sort compare !acc

let model store =
  lines ~stop:"." (Oodb.Store.universe store) (iter_live store)

(* Resolve a ground reference to the object it denotes against the current
   store, without creating anything: names/literals directly, paths by
   lookup (including existing skolems). *)
let rec resolve store (r : Syntax.Ast.reference) : Oodb.Obj_id.t option =
  match r with
  | Name n -> Some (Oodb.Store.name store n)
  | Int_lit n -> Some (Oodb.Store.int store n)
  | Str_lit s -> Some (Oodb.Store.str store s)
  | Paren r' -> resolve store r'
  | Path { p_recv; p_sep = Dot; p_meth; p_args } -> (
    match (resolve store p_recv, resolve store p_meth) with
    | Some recv, Some meth -> (
      match
        List.fold_left
          (fun acc a ->
            match (acc, resolve store a) with
            | Some acc, Some o -> Some (o :: acc)
            | _, _ -> None)
          (Some []) p_args
      with
      | Some rev_args ->
        Oodb.Store.scalar_lookup store ~meth ~recv ~args:(List.rev rev_args)
      | None -> None)
    | _, _ -> None)
  | Var _ | Path { p_sep = Dotdot; _ } | Regex _ | Filter _ | Isa _ -> None

let of_reference store (r : Syntax.Ast.reference) : t option =
  match r with
  | Isa { recv; cls } -> (
    match (resolve store recv, resolve store cls) with
    | Some o, Some c -> Some (F_isa (o, c))
    | _, _ -> None)
  | Filter { f_recv; f_meth; f_args; f_rhs } -> (
    let positions rhs =
      match (resolve store f_recv, resolve store f_meth, rhs) with
      | Some recv, Some meth, Some res -> (
        match
          List.fold_left
            (fun acc a ->
              match (acc, resolve store a) with
              | Some acc, Some o -> Some (o :: acc)
              | _, _ -> None)
            (Some []) f_args
        with
        | Some rev_args ->
          Some (meth, recv, List.rev rev_args, res)
        | None -> None)
      | _, _, _ -> None
    in
    match f_rhs with
    | Rscalar rhs -> (
      match positions (resolve store rhs) with
      | Some (meth, recv, args, res) ->
        Some (F_scalar { meth; recv; args; res })
      | None -> None)
    | Rset_enum [ rhs ] -> (
      match positions (resolve store rhs) with
      | Some (meth, recv, args, res) -> Some (F_set { meth; recv; args; res })
      | None -> None)
    | Rset_enum _ | Rset_ref _ | Rsig_scalar _ | Rsig_set _ -> None)
  | Name _ | Int_lit _ | Str_lit _ | Var _ | Paren _ | Path _ | Regex _ ->
    None
