(* The paper's worked queries and the workloads built around them, defined
   once for both the experiment tables (main.ml) and the perf suites
   (perf.ml), so a table and the suite that times it run the same thing. *)

module Program = Pathlog.Program

(* A generated company database (employees, vehicles, companies) with
   its model computed. *)
let company n =
  let p =
    Program.create (Pathlog.Company.statements (Pathlog.Company.scaled n))
  in
  ignore (Program.run p);
  p

(* Query (1.1): the colors of employees' automobiles, in O2SQL. *)
let q11_o2sql =
  {
    Pathlog.O2sql.select = [ "Z" ];
    ranges =
      [
        In_class ("X", "employee");
        In_path ("Y", { root = "X"; steps = [ "vehicles" ] });
      ];
    conds =
      [
        Member ("Y", "automobile");
        Eq ({ root = "Y"; steps = [ "color" ] }, Pvar "Z");
      ];
  }

(* Query (1.4): the colors of employees' 4-cylinder automobiles, in XSQL
   — two one-dimensional paths joined on Y. *)
let q14_xsql =
  {
    Pathlog.Xsql.select = [ "Z" ];
    ranges = [ ("employee", "X"); ("automobile", "Y") ];
    paths =
      [
        {
          root = Rvar "X";
          steps =
            [
              { meth = "vehicles"; selector = Some (Svar "Y") };
              { meth = "color"; selector = Some (Svar "Z") };
            ];
        };
        {
          root = Rvar "Y";
          steps = [ { meth = "cylinders"; selector = Some (Sint 4) } ];
        };
      ];
  }

(* The PathLog formulations: (1.1) as one reference, (2.1) the same
   question as (1.4), the manager query of section 2, and (2.3)'s nested
   path inside a filter. *)
let pl_colors = "X : employee..vehicles : automobile.color[Z]"

let pl_colors4 =
  "X : employee..vehicles : automobile[cylinders -> 4].color[Z]"

let pl_manager =
  "X : manager..vehicles[color -> red].producedBy[city -> city1; president \
   -> X]"

let pl_boss_city = "X : employee[city -> X.boss.city]"

(* The manager query in O2SQL: several clauses and explicit flattening. *)
let o2_manager =
  {
    Pathlog.O2sql.select = [ "X" ];
    ranges =
      [
        In_class ("X", "manager");
        In_path ("Y", { root = "X"; steps = [ "vehicles" ] });
      ];
    conds =
      [
        Eq ({ root = "Y"; steps = [ "color" ] }, Const "red");
        Eq ({ root = "Y"; steps = [ "producedBy"; "city" ] }, Const "city1");
        Eq ({ root = "Y"; steps = [ "producedBy"; "president" ] }, Pvar "X");
      ];
  }

let flat_query p src =
  Pathlog.Flatten.literals (Program.store p) (Pathlog.Parser.literals src)

(* The source-order ablation: the atoms as written, run as an explicit
   identity plan. *)
let source_order_solutions store (q : Pathlog.Ir.query) =
  let plan =
    {
      Pathlog.Solve.plan_seed = -1;
      plan_perm = Array.init (List.length q.atoms) Fun.id;
      plan_size = Pathlog.Store.size store;
    }
  in
  let rows = ref [] in
  Pathlog.Solve.iter ~plan store q ~f:(fun b ->
      rows := List.map (fun (_, i) -> b.(i)) q.named :: !rows);
  List.sort_uniq compare !rows

(* Rule (2.4): a virtual address object per employee. *)
let address_program n =
  Pathlog.Company.statements (Pathlog.Company.scaled n)
  @ Pathlog.Parser.program
      "X.address[street -> X.street; city -> X.city] <- X : employee."

(* Program (6.4): [desc] as the transitive closure of [kids]. *)
let desc_program shape =
  Pathlog.Genealogy.statements shape @ Pathlog.Genealogy.desc_rules

(* E11's point query: the suffix of a [desc] chain below one person. *)
let desc_point_query = "p95[desc ->> {X}]"

let tc_shapes =
  [
    ("chain(64)", Pathlog.Genealogy.Chain 64);
    ("binary_tree(6)", Pathlog.Genealogy.Binary_tree 6);
    ( "forest(128)",
      Pathlog.Genealogy.Random_forest
        { people = 128; max_kids = 3; seed = 11 } );
  ]

(* Bill of materials: the [contains] closure over [parts] parts. *)
let parts_config parts = { Pathlog.Parts.default with parts }

let parts_program cfg =
  Pathlog.Parts.statements cfg @ Pathlog.Parts.contains_rules
