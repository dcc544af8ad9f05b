(* The producibility sweep the worklist in [Analyses.producibility]
   replaced, kept as its oracle: re-sweep every rule until none fires.
   Facts are body-less rules here, and fire in the first sweep. *)

open Pathlog
module Rel_set = Analyses.Rel_set
module Obj_set = Obj_id.Set

type required = Req_isa_c of Obj_id.t | Req_isa_any | Req_rel of Ir.rel

let required_reads (r : Rule.t) =
  List.filter_map
    (fun (a : Ir.atom) ->
      match a with
      | A_isa (_, Const c) -> Some (Req_isa_c c)
      | A_isa (_, V _) -> Some Req_isa_any
      | A_scalar { meth = Const m; _ } -> Some (Req_rel (Ir.R_scalar m))
      | A_member { meth = Const m; _ } -> Some (Req_rel (Ir.R_set m))
      | A_scalar { meth = V _; _ } | A_member { meth = V _; _ } -> None
      | A_eq _ | A_subset _ | A_neg _ | A_regex _ -> None)
    r.body.atoms

let producibility rules : Analyses.producibility =
  let anc = Stratify.static_ancestors rules in
  let produced = ref Rel_set.empty in
  let any_isa = ref false in
  let unknown_isa = ref false in
  let unknown_meth = ref false in
  let produce d =
    match (d : Ir.rel) with
    | R_isa_c c ->
      any_isa := true;
      produced := Rel_set.add d !produced;
      Obj_set.iter
        (fun a -> produced := Rel_set.add (Ir.R_isa_c a) !produced)
        (anc c)
    | R_isa ->
      any_isa := true;
      unknown_isa := true
    | R_any -> unknown_meth := true
    | R_scalar _ | R_set _ -> produced := Rel_set.add d !produced
  in
  let satisfied = function
    | Req_isa_c c -> !unknown_isa || Rel_set.mem (Ir.R_isa_c c) !produced
    | Req_isa_any -> !any_isa
    | Req_rel r -> !unknown_meth || Rel_set.mem r !produced
  in
  let fired = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Rule.t) ->
        if
          (not (Hashtbl.mem fired r.uid))
          && List.for_all satisfied (required_reads r)
        then begin
          Hashtbl.add fired r.uid ();
          List.iter produce r.defines;
          changed := true
        end)
      rules
  done;
  {
    p_produced = !produced;
    p_any_isa = !any_isa;
    p_unknown_isa = !unknown_isa;
    p_unknown_meth = !unknown_meth;
    p_fired = fired;
    p_visits = 0;
  }
