open Ast

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_sep b sep add l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      add b x)
    l

let sep_string = function Dot -> "." | Dotdot -> ".."

let rec add_reference b = function
  | Name s -> Buffer.add_string b s
  | Int_lit n -> Buffer.add_string b (string_of_int n)
  | Str_lit s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape_string s);
    Buffer.add_char b '"'
  | Var v -> Buffer.add_string b v
  | Paren t ->
    Buffer.add_char b '(';
    add_reference b t;
    Buffer.add_char b ')'
  | Path { p_recv; p_sep; p_meth; p_args } ->
    add_reference b p_recv;
    Buffer.add_string b (sep_string p_sep);
    add_simple b p_meth;
    add_args b p_args
  | Regex { x_recv; x_re } ->
    add_reference b x_recv;
    Buffer.add_string b (sep_string (regex_lead_sep x_re));
    add_regex 2 b x_re
  | Filter { f_recv; f_meth; f_args; f_rhs } ->
    add_reference b f_recv;
    Buffer.add_char b '[';
    add_simple b f_meth;
    add_args b f_args;
    add_rhs b f_rhs;
    Buffer.add_char b ']'
  | Isa { recv; cls } ->
    add_reference b recv;
    Buffer.add_string b " : ";
    add_simple b cls

(* method/class positions must be simple; parenthesise defensively *)
and add_simple b t =
  if is_simple t then add_reference b t
  else begin
    Buffer.add_char b '(';
    add_reference b t;
    Buffer.add_char b ')'
  end

(* Minimal parentheses via precedence levels: 0 admits alternation,
   1 admits concatenation, 2 only star-like steps. Leading separators of
   alternation branches and of the leftmost literal are implied by
   position and not printed; every other literal prints its own. *)
and add_regex level b (re : Ast.regex) =
  match re with
  | Rlit { l_meth; l_args; _ } ->
    add_simple b l_meth;
    add_args b l_args
  | Rstar r ->
    add_regex 2 b r;
    Buffer.add_char b '*'
  | Rplus r ->
    add_regex 2 b r;
    Buffer.add_char b '+'
  | Ropt r ->
    add_regex 2 b r;
    Buffer.add_char b '?'
  | Rseq rs ->
    let items () =
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_string b (sep_string (regex_lead_sep r));
          add_regex 2 b r)
        rs
    in
    if level > 1 then begin
      Buffer.add_char b '(';
      items ();
      Buffer.add_char b ')'
    end
    else items ()
  | Ralt rs ->
    (* alternation is only valid inside parentheses *)
    Buffer.add_char b '(';
    add_sep b "|" (add_regex 1) rs;
    Buffer.add_char b ')'

and add_args b = function
  | [] -> ()
  | args ->
    Buffer.add_string b "@(";
    add_sep b ", " add_reference args;
    Buffer.add_char b ')'

and add_rhs b = function
  | Rscalar t ->
    Buffer.add_string b " -> ";
    add_reference b t
  | Rset_ref t ->
    Buffer.add_string b " ->> ";
    add_reference b t
  | Rset_enum ts ->
    Buffer.add_string b " ->> {";
    add_sep b ", " add_reference ts;
    Buffer.add_char b '}'
  | Rsig_scalar t ->
    Buffer.add_string b " => ";
    add_simple b t
  | Rsig_set t ->
    Buffer.add_string b " =>> ";
    add_simple b t

let add_literal b = function
  | Pos t -> add_reference b t
  | Neg t ->
    Buffer.add_string b "not ";
    add_reference b t

let add_literals b lits = add_sep b ", " add_literal lits

let add_rule b { head; body } =
  add_reference b head;
  (match body with
  | [] -> ()
  | _ ->
    Buffer.add_string b " <- ";
    add_literals b body);
  Buffer.add_char b '.'

let add_statement b = function
  | Rule r -> add_rule b r
  | Query lits ->
    Buffer.add_string b "?- ";
    add_literals b lits;
    Buffer.add_char b '.'

let render add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let reference_to_string = render add_reference
let rule_to_string = render add_rule
let statement_to_string = render add_statement

let pp_reference ppf t = Format.pp_print_string ppf (reference_to_string t)
let pp_literal ppf l = Format.pp_print_string ppf (render add_literal l)
let pp_rule ppf r = Format.pp_print_string ppf (rule_to_string r)

let pp_program ppf prog =
  List.iter
    (fun s -> Format.fprintf ppf "%s@." (statement_to_string s))
    prog

let program_to_string p = Format.asprintf "%a" pp_program p
