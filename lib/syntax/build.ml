open Ast

let obj n = Name n
let var v = Var v
let int n = Int_lit n
let str s = Str_lit s
let paren t = Paren t

let ( @: ) t c = Isa { recv = t; cls = Name c }

let ( |-> ) t (m, r) =
  Filter { f_recv = t; f_meth = Name m; f_args = []; f_rhs = Rscalar r }

let ( |->> ) t (m, rs) =
  Filter { f_recv = t; f_meth = Name m; f_args = []; f_rhs = Rset_enum rs }

let ( |->>+ ) t (m, s) =
  Filter { f_recv = t; f_meth = Name m; f_args = []; f_rhs = Rset_ref s }

let dot ?(args = []) t m =
  Path { p_recv = t; p_sep = Dot; p_meth = Name m; p_args = args }

let dotdot ?(args = []) t m =
  Path { p_recv = t; p_sep = Dotdot; p_meth = Name m; p_args = args }

let dotdot_ref ?(args = []) t m =
  Path { p_recv = t; p_sep = Dotdot; p_meth = m; p_args = args }

let fact head = Rule { head; body = [] }
let rule head body = Rule { head; body }
let query lits = Query lits
let pos t = Pos t

let signature rhs ?(args = []) cls meth =
  Rule
    {
      head =
        Filter
          {
            f_recv = Name cls;
            f_meth = Name meth;
            f_args = List.map (fun a -> Name a) args;
            f_rhs = rhs;
          };
      body = [];
    }

let scalar_sig ?args cls meth result =
  signature (Rsig_scalar (Name result)) ?args cls meth

let set_sig ?args cls meth result =
  signature (Rsig_set (Name result)) ?args cls meth
