(* Order statistics over samples, linear interpolation between ranks. *)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0. xs

let ms xs = Array.map (fun s -> s *. 1000.) xs

(* Ratio with a zero base reported as 0. *)
let ratio a b = if b = 0. then 0. else a /. b
