type 'a t = { mutable data : 'a array; mutable len : int; mutable sealed : bool }

let create ?(capacity = 8) () = { data = [||]; len = 0; sealed = false } |> fun v ->
  ignore capacity;
  v

let seal v =
  v.sealed <- true;
  v

let length v = v.len

(* Concurrent readers (the server's optimistic query path) may observe
   [len] and [data] from different moments of a racing [push]: clamping
   every access to the array actually loaded turns that window into a
   stale read instead of an out-of-bounds crash. Elements below a length
   read earlier are immutable once written, so reads there are exact. *)
let get v i =
  let data = v.data in
  if i < 0 || i >= v.len || i >= Array.length data then invalid_arg "Vec.get";
  data.(i)

let ensure v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap' = max n (max 8 (2 * cap)) in
    (* The dummy slots beyond [len] hold copies of an existing element (or
       the pushed one); they are never observed. *)
    let data' = Array.make cap' v.data.(0) in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end

let push v x =
  if v.sealed then invalid_arg "Vec.push: sealed vector";
  if Array.length v.data = 0 then begin
    v.data <- Array.make 8 x
  end else ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let iter f v =
  let data = v.data in
  let n = min v.len (Array.length data) in
  for i = 0 to n - 1 do
    f data.(i)
  done

let iter_from f v start =
  let data = v.data in
  let n = min v.len (Array.length data) in
  for i = max 0 start to n - 1 do
    f data.(i)
  done

let fold f acc v =
  let data = v.data in
  let n = min v.len (Array.length data) in
  let acc = ref acc in
  for i = 0 to n - 1 do
    acc := f !acc data.(i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let truncate v n =
  if v.sealed then invalid_arg "Vec.truncate: sealed vector";
  if n < v.len then v.len <- max n 0

let clear v =
  if v.sealed then invalid_arg "Vec.clear: sealed vector";
  v.len <- 0
