(** PathLog — access to objects by path expressions and rules.

    One-stop facade: parse a program, evaluate it bottom-up to its minimal
    model, and query it. Reproduces Frohn, Lausen & Uphoff, "Access to
    Objects by Path Expressions and Rules" (VLDB 1994).

    {[
      let p = Pathlog.load {|
        automobile :: vehicle.
        e1 : employee[age -> 30; city -> newYork].
        e1[vehicles ->> {a1}].
        a1 : automobile[cylinders -> 4; color -> red].
      |} in
      Pathlog.answers p "X : employee..vehicles : automobile.color[Z]"
    ]} *)

module Ast = Syntax.Ast
module Parser = Syntax.Parser
module Token = Syntax.Token
module Pretty = Syntax.Pretty
module Scalarity = Syntax.Scalarity
module Wellformed = Syntax.Wellformed
module Normalize = Syntax.Normalize
module Universe = Oodb.Universe
module Obj_id = Oodb.Obj_id
module Vec = Oodb.Vec
module Store = Oodb.Store
module Signature = Oodb.Signature
module Ir = Semantics.Ir
module Flatten = Semantics.Flatten
module Valuation = Semantics.Valuation
module Entail = Semantics.Entail
module Solve = Semantics.Solve
module Err = Engine.Err
module Rule = Engine.Rule
module Stratify = Engine.Stratify
module Fixpoint = Engine.Fixpoint
module Budget = Engine.Budget
module Fault = Fault
module Program = Engine.Program
module Production = Engine.Production
module Fact = Engine.Fact
module Provenance = Engine.Provenance
module Demand = Engine.Demand
module Live = Incremental.Live
module Durable = Durable
module Typecheck = Engine.Typecheck
module Diagnostic = Pathlog_analysis.Diagnostic
module Analyses = Pathlog_analysis.Analyses
module Absint = Pathlog_analysis.Absint
module Check = Pathlog_analysis.Check
module Build = Syntax.Build
module Conjunctive = Baseline.Conjunctive
module O2sql = Baseline.O2sql
module Xsql = Baseline.Xsql
module Translate = Baseline.Translate
module Calculus = Baseline.Calculus
module Protocol = Plserver.Protocol
module Histogram = Plserver.Histogram
module Metrics = Plserver.Metrics
module Pool = Plserver.Pool
module Qcache = Plserver.Qcache
module Client = Plserver.Client
module Company = Workload.Company
module Genealogy = Workload.Genealogy
module Parts = Workload.Parts
module Randprog = Workload.Randprog
module Graph = Workload.Graph
module Server = Plserver.Server

type program = Program.t

(** Parse and evaluate a program to its minimal model. *)
let load ?config text =
  let p = Program.of_string ?config text in
  ignore (Program.run p);
  p

(** Parse a program without evaluating it. *)
let parse ?config text = Program.of_string ?config text

(** Answer a query, rows rendered as strings. Accepts ["?- q."] or just
    ["q"]. *)
let answers program text =
  let a = Program.query_string program text in
  List.map
    (fun row ->
      List.map (Universe.to_string (Program.universe program)) row)
    a.rows

(** Is a ground (or existentially read) query entailed? *)
let holds program text =
  (Program.query_string program text).rows <> []
