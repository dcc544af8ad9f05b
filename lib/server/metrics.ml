type outcome = Ok | Degraded | Error | Busy | Timeout | Cancelled

let outcome_to_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Error -> "error"
  | Busy -> "busy"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"

type entry =
  | Counter of int Atomic.t
  | Readout of (unit -> (string * string) list)

type t = {
  lock : Mutex.t;  (* guards [table], [latency] and [entries] *)
  started_at : float;
  table : (string * string, int ref) Hashtbl.t;  (* (verb, outcome) *)
  latency : Histogram.t;
  mutable entries : (string * entry) list;  (* newest first *)
}

let create () =
  {
    lock = Mutex.create ();
    started_at = Unix.gettimeofday ();
    table = Hashtbl.create 16;
    latency = Histogram.create ();
    entries = [];
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t name entry =
  with_lock t (fun () ->
      if List.mem_assoc name t.entries then
        invalid_arg ("Metrics: " ^ name ^ " is already registered");
      t.entries <- (name, entry) :: t.entries)

let counter t key a = register t key (Counter a)

let readout t name f = register t name (Readout f)

let record t ~verb ~outcome ~latency_s =
  with_lock t (fun () ->
      let key = (verb, outcome_to_string outcome) in
      (match Hashtbl.find_opt t.table key with
      | Some r -> incr r
      | None -> Hashtbl.add t.table key (ref 1));
      Histogram.observe t.latency latency_s)

let uptime t () =
  [ ("uptime_s", Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started_at)) ]

let request_totals t () =
  let count o r n = if o = n then !r else 0 in
  let total, cancelled, degraded =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun (_, o) r (n, c, d) ->
            ( n + !r,
              c + count o r (outcome_to_string Cancelled),
              d + count o r (outcome_to_string Degraded) ))
          t.table (0, 0, 0))
  in
  [
    ("requests_total", string_of_int total);
    ("cancelled_total", string_of_int cancelled);
    ("degraded_total", string_of_int degraded);
  ]

let us s = string_of_int (int_of_float (ceil (s *. 1e6)))

let request_table t () =
  with_lock t (fun () ->
      let h = t.latency in
      (Hashtbl.fold (fun (v, o) r acc -> (v, o, !r) :: acc) t.table []
      |> List.sort compare
      |> List.map (fun (v, o, n) ->
             (Printf.sprintf "requests %s %s" v o, string_of_int n)))
      @ [
          ("latency_count", string_of_int (Histogram.count h));
          ("latency_min_us", us (Histogram.min_s h));
          ("latency_mean_us", us (Histogram.mean_s h));
          ("latency_max_us", us (Histogram.max_s h));
          ("latency_p50_us", us (Histogram.percentile h 0.5));
          ("latency_p99_us", us (Histogram.percentile h 0.99));
        ]
      @ List.map
          (fun (bound, n) ->
            ( (if bound = max_int then "latency_le inf"
               else Printf.sprintf "latency_le %dus" bound),
              string_of_int n ))
          (Histogram.buckets h))

let render t =
  List.concat_map
    (fun (name, entry) ->
      match entry with
      | Counter a -> [ Printf.sprintf "%s %d" name (Atomic.get a) ]
      | Readout f -> List.map (fun (k, v) -> k ^ " " ^ v) (f ()))
    (List.rev (with_lock t (fun () -> t.entries)))
