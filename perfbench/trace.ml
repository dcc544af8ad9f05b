(* Spans recorded around calls into each layer's public functions. Spans
   live in memory (name, start, end, parent, operation id) and are
   written out once, after the run. A disabled recorder calls straight
   through, so the untraced replay pays one branch per boundary. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  op : int;
  parent : int;  (* index of the enclosing span, -1 for an operation root *)
  start : float;
  mutable stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int;  (* innermost open span, -1 when none *)
  mutable op : int;
}

let create ~enabled =
  { enabled; spans = [||]; len = 0; open_ = -1; op = -1 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let span t name f =
  if not t.enabled then f ()
  else begin
    let i =
      push t { name; op = t.op; parent = t.open_; start = now (); stop = 0. }
    in
    let parent = t.open_ in
    t.open_ <- i;
    Fun.protect
      ~finally:(fun () ->
        t.spans.(i).stop <- now ();
        t.open_ <- parent)
      f
  end

(* The root span of operation [id]; every span opened inside it carries
   the same id. *)
let operation t id name f =
  t.op <- id;
  span t name f

let spans t = Array.sub t.spans 0 t.len

(* Self time of every span: its duration minus the part its direct
   children cover (children nest strictly inside their parent). *)
let self_times spans =
  let self = Array.map (fun s -> s.stop -. s.start) spans in
  Array.iter
    (fun (s : span) -> if s.parent >= 0 then
        self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
    spans;
  self

(* How well the layer spans account for the operations. An operation's
   root span covers its whole in-process run; whatever time no layer
   span inside it covers is the root's own self time, so that is the
   operation's unaccounted time. Returns the number of operations
   (root spans) whose unaccounted time exceeds [tolerance] of their
   duration, with a [floor] in seconds for clock reads and span
   bookkeeping; the summed unaccounted time as a share of the summed
   root durations; the number of operations; and the number of spans
   whose children overrun them (negative self time). *)
let accounting ~tolerance ~floor spans self =
  let bad = ref 0 and unaccounted = ref 0. and total = ref 0. and ops = ref 0 in
  Array.iteri
    (fun i (s : span) ->
      if s.parent < 0 then begin
        let d = s.stop -. s.start in
        incr ops;
        unaccounted := !unaccounted +. self.(i);
        total := !total +. d;
        if self.(i) > Float.max floor (tolerance *. d) then incr bad
      end)
    spans;
  let overrun =
    Array.fold_left (fun n x -> if x < -1e-9 then n + 1 else n) 0 self
  in
  (!bad, (if !total > 0. then !unaccounted /. !total else 0.), !ops, overrun)

let write_tsv path spans self =
  let oc = open_out path in
  output_string oc "op\tname\tparent\tstart_s\tend_s\tself_s\n";
  Array.iteri
    (fun i (s : span) ->
      Printf.fprintf oc "%d\t%s\t%d\t%.9f\t%.9f\t%.9f\n" s.op s.name s.parent
        s.start s.stop self.(i))
    spans;
  close_out oc
