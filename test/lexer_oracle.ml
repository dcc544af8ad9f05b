(* The character-at-a-time lexer the sentinel lexer in [lib/syntax]
   replaced, kept as its oracle: [test syntax] checks that both give the
   same tokens, positions and errors. *)

module Token = Syntax.Token

exception Error of Token.pos * string

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let current_pos st : Token.pos =
  { line = st.line; col = st.pos - st.bol + 1; offset = st.pos }

let error st msg = raise (Error (current_pos st, msg))

let peek st k =
  let i = st.pos + k in
  if i < String.length st.src then Some st.src.[i] else None

let advance st n =
  for _ = 1 to n do
    (match peek st 0 with
    | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    | Some _ | None -> ());
    st.pos <- st.pos + 1
  done

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_lower c || is_upper c || is_digit c

let rec skip_trivia st =
  match peek st 0 with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st 1;
    skip_trivia st
  | Some '%' ->
    let rec to_eol () =
      match peek st 0 with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st 1;
        to_eol ()
    in
    to_eol ();
    skip_trivia st
  | Some _ | None -> ()

let lex_ident st =
  let start = st.pos in
  while (match peek st 0 with Some c -> is_ident c | None -> false) do
    advance st 1
  done;
  String.sub st.src start (st.pos - start)

let lex_int st =
  let start = st.pos in
  if peek st 0 = Some '-' then advance st 1;
  while (match peek st 0 with Some c -> is_digit c | None -> false) do
    advance st 1
  done;
  int_of_string (String.sub st.src start (st.pos - start))

let lex_string st =
  advance st 1;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st 0 with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st 1
    | Some '\\' ->
      (match peek st 1 with
      | Some ('"' as c) | Some ('\\' as c) ->
        Buffer.add_char buf c;
        advance st 2
      | Some 'n' ->
        Buffer.add_char buf '\n';
        advance st 2
      | Some c -> error st (Printf.sprintf "bad escape '\\%c'" c)
      | None -> error st "unterminated string literal");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st 1;
      go ()
  in
  go ();
  Buffer.contents buf

(* A '.' continues a path iff what follows can start a simple reference. *)
let dot_is_separator st =
  match peek st 1 with
  | Some c -> is_ident c || c = '(' || c = '"'
  | None -> false

let next_token st : Token.t =
  match peek st 0 with
  | None -> EOF
  | Some c -> (
    match c with
    | '[' -> advance st 1; LBRACKET
    | ']' -> advance st 1; RBRACKET
    | '{' -> advance st 1; LBRACE
    | '}' -> advance st 1; RBRACE
    | '(' -> advance st 1; LPAREN
    | ')' -> advance st 1; RPAREN
    | ',' -> advance st 1; COMMA
    | ';' -> advance st 1; SEMI
    | '@' -> advance st 1; AT
    | '"' -> STRING (lex_string st)
    | ':' ->
      if peek st 1 = Some ':' then (advance st 2; COLONCOLON)
      else (advance st 1; COLON)
    | '.' ->
      if peek st 1 = Some '.' then (advance st 2; DOTDOT)
      else if dot_is_separator st then (advance st 1; DOT)
      else (advance st 1; END)
    | '-' ->
      if peek st 1 = Some '>' then
        if peek st 2 = Some '>' then (advance st 3; DARROW)
        else (advance st 2; ARROW)
      else if (match peek st 1 with Some c -> is_digit c | None -> false)
      then INT (lex_int st)
      else error st "expected '->' or a negative integer after '-'"
    | '=' ->
      if peek st 1 = Some '>' then
        if peek st 2 = Some '>' then (advance st 3; SIG_DARROW)
        else (advance st 2; SIG_ARROW)
      else error st "expected '=>' after '='"
    | '<' ->
      if peek st 1 = Some '-' then (advance st 2; IMPLIED)
      else error st "expected '<-' after '<'"
    | '*' -> advance st 1; STAR
    | '+' -> advance st 1; PLUS
    | '|' -> advance st 1; PIPE
    | '?' ->
      if peek st 1 = Some '-' then (advance st 2; QUERY)
      else (advance st 1; QMARK)
    | c when is_digit c -> INT (lex_int st)
    | c when is_lower c ->
      let id = lex_ident st in
      if id = "not" then NOT else NAME id
    | c when is_upper c -> VAR (lex_ident st)
    | c -> error st (Printf.sprintf "unexpected character %C" c))

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    skip_trivia st;
    let pos = current_pos st in
    let tok = next_token st in
    let acc = (tok, pos) :: acc in
    match tok with Token.EOF -> List.rev acc | _ -> go acc
  in
  go []
