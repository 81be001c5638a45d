type token =
  | LPAREN
  | RPAREN
  | STAR
  | AND
  | OR
  | NOT
  | WORD of string
  | PHRASE of string list
  | APPROX of string * int
  | ATTR of string * string
  | REGEX of string
  | DIRREF of string
  | EOF

exception Syntax_error of string * int

let fail msg at = raise (Syntax_error (msg, at))

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* Attribute values may be path-ish: also allow . - / *)
let is_value_char c = is_ident_char c || c = '.' || c = '-' || c = '/' || c = '*'

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let tokens input =
  let n = String.length input in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let take_while start pred =
    let rec go i = if i < n && pred input.[i] then go (i + 1) else i in
    let stop = go start in
    (String.sub input start (stop - start), stop)
  in
  let rec go i =
    if i >= n then ()
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '(' ->
          emit LPAREN;
          go (i + 1)
      | ')' ->
          emit RPAREN;
          go (i + 1)
      | '*' ->
          emit STAR;
          go (i + 1)
      | '"' ->
          let rec find_close j =
            if j >= n then fail "unterminated phrase" i
            else if input.[j] = '"' then j
            else find_close (j + 1)
          in
          let close = find_close (i + 1) in
          let body = String.sub input (i + 1) (close - i - 1) in
          let words = List.map String.lowercase_ascii (split_ws body) in
          if words = [] then fail "empty phrase" i;
          emit (PHRASE words);
          go (close + 1)
      | '{' ->
          let rec find_close j =
            if j >= n then fail "unterminated directory reference" i
            else if input.[j] = '}' then j
            else find_close (j + 1)
          in
          let close = find_close (i + 1) in
          let body = String.trim (String.sub input (i + 1) (close - i - 1)) in
          if body = "" then fail "empty directory reference" i;
          emit (DIRREF body);
          go (close + 1)
      | '/' ->
          (* Regex literal: up to the next unescaped '/'. *)
          let rec find_close j =
            if j >= n then fail "unterminated regex" i
            else if input.[j] = '\\' && j + 1 < n then find_close (j + 2)
            else if input.[j] = '/' then j
            else find_close (j + 1)
          in
          let close = find_close (i + 1) in
          let body = String.sub input (i + 1) (close - i - 1) in
          if body = "" then fail "empty regex" i;
          emit (REGEX body);
          go (close + 1)
      | '~' ->
          let digits, after_digits = take_while (i + 1) (fun c -> c >= '0' && c <= '9') in
          let errors, word_start =
            if digits <> "" && after_digits < n && input.[after_digits] = '~' then
              match int_of_string_opt digits with
              | Some k -> (k, after_digits + 1)
              | None -> fail "edit distance out of range" (i + 1)
            else (1, i + 1)
          in
          let w, stop = take_while word_start is_ident_char in
          if w = "" then fail "~ must be followed by a word" i;
          emit (APPROX (String.lowercase_ascii w, errors));
          go stop
      | c when is_ident_char c ->
          let w, stop = take_while i is_ident_char in
          if stop < n && input.[stop] = ':' then begin
            let v, vstop = take_while (stop + 1) is_value_char in
            if v = "" then fail "attribute needs a value" stop;
            emit (ATTR (String.lowercase_ascii w, v));
            go vstop
          end
          else begin
            (match String.uppercase_ascii w with
            | "AND" -> emit AND
            | "OR" -> emit OR
            | "NOT" -> emit NOT
            | _ -> emit (WORD (String.lowercase_ascii w)));
            go stop
          end
      | c -> fail (Printf.sprintf "unexpected character %C" c) i
  in
  go 0;
  List.rev (EOF :: !toks)

let pp_token ppf = function
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | STAR -> Format.pp_print_string ppf "*"
  | AND -> Format.pp_print_string ppf "AND"
  | OR -> Format.pp_print_string ppf "OR"
  | NOT -> Format.pp_print_string ppf "NOT"
  | WORD w -> Format.fprintf ppf "WORD(%s)" w
  | PHRASE ws -> Format.fprintf ppf "PHRASE(%s)" (String.concat " " ws)
  | APPROX (w, k) -> Format.fprintf ppf "APPROX(%s,%d)" w k
  | ATTR (a, v) -> Format.fprintf ppf "ATTR(%s,%s)" a v
  | REGEX r -> Format.fprintf ppf "REGEX(%s)" r
  | DIRREF p -> Format.fprintf ppf "DIRREF(%s)" p
  | EOF -> Format.pp_print_string ppf "EOF"
