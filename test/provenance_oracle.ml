(* Provenance as a table keyed by boxed facts, the way the engine kept it
   before each fact's source moved into its store record: the oracle of
   [Provenance]. A fact's entry outlives the fact, so the driver forgets
   a fact when it removes it. *)

open Pathlog

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

type t = Provenance.source Fact_tbl.t

let create () = Fact_tbl.create 256

let record t fact source =
  if not (Fact_tbl.mem t fact) then Fact_tbl.add t fact source

let lookup t fact = Fact_tbl.find_opt t fact

let forget t fact = Fact_tbl.remove t fact

let repoint t fact source =
  forget t fact;
  record t fact source

let size t = Fact_tbl.length t
