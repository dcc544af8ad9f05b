exception Error of Token.pos * string

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let current_pos st : Token.pos =
  { line = st.line; col = st.pos - st.bol + 1; offset = st.pos }

let error st msg = raise (Error (current_pos st, msg))

(* The character [k] past the current one, or a NUL sentinel past the
   end: no token starts with NUL, so reading allocates nothing and most
   tests need no bounds check. Where a NUL byte in the text must not
   pass for the end, [at_end] decides. *)
let char st k =
  let i = st.pos + k in
  if i < st.len then String.unsafe_get st.src i else '\000'

let at_end st k = st.pos + k >= st.len

(* Step over a '\n'. Every other advance is over characters known not
   to be newlines. *)
let newline st =
  st.pos <- st.pos + 1;
  st.line <- st.line + 1;
  st.bol <- st.pos

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_lower c || is_upper c || is_digit c

let skip_trivia st =
  let trivia = ref true in
  while !trivia do
    match char st 0 with
    | ' ' | '\t' | '\r' -> st.pos <- st.pos + 1
    | '\n' -> newline st
    | '%' ->
      while (not (at_end st 0)) && char st 0 <> '\n' do
        st.pos <- st.pos + 1
      done
    | _ -> trivia := false
  done

let lex_ident st =
  let start = st.pos in
  while is_ident (char st 0) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

let lex_int st =
  let start = st.pos in
  if char st 0 = '-' then st.pos <- st.pos + 1;
  while is_digit (char st 0) do
    st.pos <- st.pos + 1
  done;
  int_of_string (String.sub st.src start (st.pos - start))

let lex_string st =
  st.pos <- st.pos + 1;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st 0 then error st "unterminated string literal";
    match char st 0 with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
      if at_end st 1 then error st "unterminated string literal";
      (match char st 1 with
      | ('"' | '\\') as c -> Buffer.add_char buf c
      | 'n' -> Buffer.add_char buf '\n'
      | c -> error st (Printf.sprintf "bad escape '\\%c'" c));
      st.pos <- st.pos + 2;
      go ()
    | '\n' ->
      Buffer.add_char buf '\n';
      newline st;
      go ()
    | c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

(* A '.' continues a path iff what follows can start a simple reference. *)
let dot_is_separator st =
  let c = char st 1 in
  is_ident c || c = '(' || c = '"'

(* Step over an [n]-character token. *)
let tok st n (t : Token.t) =
  st.pos <- st.pos + n;
  t

let next_token st : Token.t =
  if at_end st 0 then EOF
  else
    match char st 0 with
    | '[' -> tok st 1 LBRACKET
    | ']' -> tok st 1 RBRACKET
    | '{' -> tok st 1 LBRACE
    | '}' -> tok st 1 RBRACE
    | '(' -> tok st 1 LPAREN
    | ')' -> tok st 1 RPAREN
    | ',' -> tok st 1 COMMA
    | ';' -> tok st 1 SEMI
    | '@' -> tok st 1 AT
    | '"' -> STRING (lex_string st)
    | ':' -> if char st 1 = ':' then tok st 2 COLONCOLON else tok st 1 COLON
    | '.' ->
      if char st 1 = '.' then tok st 2 DOTDOT
      else if dot_is_separator st then tok st 1 DOT
      else tok st 1 END
    | '-' ->
      if char st 1 = '>' then
        if char st 2 = '>' then tok st 3 DARROW else tok st 2 ARROW
      else if is_digit (char st 1) then INT (lex_int st)
      else error st "expected '->' or a negative integer after '-'"
    | '=' ->
      if char st 1 = '>' then
        if char st 2 = '>' then tok st 3 SIG_DARROW else tok st 2 SIG_ARROW
      else error st "expected '=>' after '='"
    | '<' ->
      if char st 1 = '-' then tok st 2 IMPLIED
      else error st "expected '<-' after '<'"
    | '*' -> tok st 1 STAR
    | '+' -> tok st 1 PLUS
    | '|' -> tok st 1 PIPE
    | '?' -> if char st 1 = '-' then tok st 2 QUERY else tok st 1 QMARK
    | c when is_digit c -> INT (lex_int st)
    | c when is_lower c ->
      let id = lex_ident st in
      if id = "not" then NOT else NAME id
    | c when is_upper c -> VAR (lex_ident st)
    | c -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize src =
  let st = { src; len = String.length src; pos = 0; line = 1; bol = 0 } in
  (* in order, with no reversed copy *)
  let[@tail_mod_cons] rec go () =
    skip_trivia st;
    let pos = current_pos st in
    let tok = next_token st in
    match tok with Token.EOF -> [ (tok, pos) ] | _ -> (tok, pos) :: go ()
  in
  go ()
