type t = int

let equal = Int.equal
let compare = Int.compare

(* Ids, and pairs of them packed into one int, whose low bits alone would
   put every method of one receiver in one bucket: a multiplicative
   mixing hash, in OCaml, where the generic table calls its C hash. *)
let hash x =
  let h = x * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land max_int

let pp = Format.pp_print_int

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
