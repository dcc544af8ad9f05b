type reason = Timeout | Cancelled | Derivations | Objects

exception Exhausted of reason

type t = {
  deadline : float;  (* absolute; infinity = no deadline *)
  cancel_flag : bool Atomic.t;
  max_derivations : int;
  max_objects : int;
}

let create ?deadline_at ?deadline_in ?cancel ?(max_derivations = max_int)
    ?(max_objects = max_int) () =
  let deadline =
    match (deadline_at, deadline_in) with
    | Some at, _ -> at
    | None, Some d -> Unix.gettimeofday () +. d
    | None, None -> infinity
  in
  {
    deadline;
    cancel_flag = (match cancel with Some c -> c | None -> Atomic.make false);
    max_derivations;
    max_objects;
  }

let cancel t = Atomic.set t.cancel_flag true

let cancelled t = Atomic.get t.cancel_flag

let token t = t.cancel_flag

let check t =
  if Atomic.get t.cancel_flag then raise (Exhausted Cancelled);
  if t.deadline < infinity && Unix.gettimeofday () > t.deadline then
    raise (Exhausted Timeout)

let check_caps t ~derivations ~objects =
  check t;
  if derivations > t.max_derivations then raise (Exhausted Derivations);
  if objects > t.max_objects then raise (Exhausted Objects)

let reason_label = function
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"
  | Derivations -> "derivations"
  | Objects -> "objects"

let pp_reason ppf r = Format.pp_print_string ppf (reason_label r)
