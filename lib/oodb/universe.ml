type descriptor =
  | Name of string
  | Int of int
  | Str of string
  | Skolem of skolem

and skolem = {
  meth : Obj_id.t;
  recv : Obj_id.t;
  args : Obj_id.t list;
  ordinal : int;
}

type key =
  | Kname of string
  | Kint of int
  | Kstr of string
  | Kskolem of Obj_id.t * Obj_id.t * Obj_id.t list

type t = {
  (* [lock] guards interning: concurrent readers (server query workers,
     parallel fixpoint domains) may intern constants first seen in query
     text, and the key table must not be mutated racily. Descriptor
     lookups of already-published ids stay lock-free: the backing vectors
     are append-only, so an id handed out through any synchronised
     channel denotes a slot that never changes. *)
  lock : Mutex.t;
  by_key : (key, Obj_id.t) Hashtbl.t;
  descriptors : descriptor Vec.t;
  skolem_ids : Obj_id.t Vec.t;
}

let create () =
  {
    lock = Mutex.create ();
    by_key = Hashtbl.create 256;
    descriptors = Vec.create ();
    skolem_ids = Vec.create ();
  }

let cardinality u = Vec.length u.descriptors

let with_lock u f =
  Mutex.lock u.lock;
  match f () with
  | v ->
    Mutex.unlock u.lock;
    v
  | exception e ->
    Mutex.unlock u.lock;
    raise e

let intern_unlocked u key desc =
  match Hashtbl.find_opt u.by_key key with
  | Some id -> id
  | None ->
    let id = Vec.length u.descriptors in
    Vec.push u.descriptors desc;
    Hashtbl.add u.by_key key id;
    id

let intern u key desc = with_lock u (fun () -> intern_unlocked u key desc)

let name u s = intern u (Kname s) (Name s)
let int u n = intern u (Kint n) (Int n)
let str u s = intern u (Kstr s) (Str s)
let find_name u s = with_lock u (fun () -> Hashtbl.find_opt u.by_key (Kname s))

let skolem u ~meth ~recv ~args =
  let key = Kskolem (meth, recv, args) in
  with_lock u (fun () ->
      match Hashtbl.find_opt u.by_key key with
      | Some id -> id
      | None ->
        let ordinal = Vec.length u.skolem_ids in
        let id = intern_unlocked u key (Skolem { meth; recv; args; ordinal }) in
        Vec.push u.skolem_ids id;
        id)

let find_skolem u ~meth ~recv ~args =
  with_lock u (fun () -> Hashtbl.find_opt u.by_key (Kskolem (meth, recv, args)))

let skolems u = Vec.to_list u.skolem_ids
let descriptor u id = Vec.get u.descriptors id

let is_skolem u id =
  match descriptor u id with Skolem _ -> true | Name _ | Int _ | Str _ -> false

let rec pp_obj u ppf id =
  match descriptor u id with
  | Name s -> Format.pp_print_string ppf s
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Skolem { meth; recv; args; _ } ->
    (* a virtual method prints in parentheses: [a.(kids.tc)], since
       [a.kids.tc] reads back as [(a.kids).tc] *)
    Format.fprintf ppf "%a.%a" (pp_obj u) recv (pp_paren u) meth;
    (match args with
    | [] -> ()
    | _ ->
      Format.fprintf ppf "@(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (pp_obj u))
        args)

(* [id] where the parser would otherwise read a path: method and class
   positions *)
and pp_paren u ppf id =
  if is_skolem u id then Format.fprintf ppf "(%a)" (pp_obj u) id
  else pp_obj u ppf id

let to_string u id = Format.asprintf "%a" (pp_obj u) id

let iter u f =
  for id = 0 to cardinality u - 1 do
    f id (descriptor u id)
  done
