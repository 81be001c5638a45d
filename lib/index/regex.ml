exception Parse_error of string

let fail msg = raise (Parse_error msg)

(* -- syntax ----------------------------------------------------------------- *)

type ast =
  | Char of char
  | Any
  | Class of bool * (char * char) list (* negated?, inclusive ranges *)
  | Seq of ast list
  | Alt of ast * ast
  | Star of ast
  | Plus of ast
  | Opt of ast

(* Anchors are recognised only at the very ends of the whole pattern;
   elsewhere '^' and '$' are literals (the common, forgiving convention). *)
let split_anchors pattern =
  let n = String.length pattern in
  let anchored_start = n > 0 && pattern.[0] = '^' in
  let body_start = if anchored_start then 1 else 0 in
  let escaped_last =
    (* Is a final '$' escaped?  Count the backslashes before it. *)
    let rec count i acc = if i >= body_start && pattern.[i] = '\\' then count (i - 1) (acc + 1) else acc in
    n >= 2 && count (n - 2) 0 mod 2 = 1
  in
  let anchored_end = n > body_start && pattern.[n - 1] = '$' && not escaped_last in
  let body_end = if anchored_end then n - 1 else n in
  (anchored_start, anchored_end, String.sub pattern body_start (body_end - body_start))

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let parse_class c =
  (* c.pos is just after '['. *)
  let negated = peek c = Some '^' in
  if negated then advance c;
  let ranges = ref [] in
  let rec go first =
    match peek c with
    | None -> fail "unterminated character class"
    | Some ']' when not first -> advance c
    | Some ch ->
        advance c;
        let ch = if ch = '\\' then (match peek c with
          | Some e -> advance c; (match e with 'n' -> '\n' | 't' -> '\t' | _ -> e)
          | None -> fail "trailing backslash in class")
          else ch
        in
        (match (peek c, c.pos + 1 < String.length c.src) with
        | Some '-', true when c.src.[c.pos + 1] <> ']' ->
            advance c;
            (match peek c with
            | Some hi ->
                advance c;
                if hi < ch then fail "inverted range in character class";
                ranges := (ch, hi) :: !ranges
            | None -> fail "unterminated character class")
        | _ -> ranges := (ch, ch) :: !ranges);
        go false
  in
  go true;
  Class (negated, List.rev !ranges)

let rec parse_alt c =
  let left = parse_seq c in
  match peek c with
  | Some '|' ->
      advance c;
      Alt (left, parse_alt c)
  | _ -> left

and parse_seq c =
  let items = ref [] in
  let rec go () =
    match peek c with
    | None | Some ')' | Some '|' -> ()
    | Some _ ->
        items := parse_postfix c :: !items;
        go ()
  in
  go ();
  match List.rev !items with [ one ] -> one | items -> Seq items

and parse_postfix c =
  let atom = parse_atom c in
  let rec wrap a =
    match peek c with
    | Some '*' ->
        advance c;
        wrap (Star a)
    | Some '+' ->
        advance c;
        wrap (Plus a)
    | Some '?' ->
        advance c;
        wrap (Opt a)
    | _ -> a
  in
  wrap atom

and parse_atom c =
  match peek c with
  | None -> fail "expected an atom"
  | Some '(' ->
      advance c;
      let inner = parse_alt c in
      (match peek c with
      | Some ')' -> advance c
      | _ -> fail "unclosed group");
      inner
  | Some '[' ->
      advance c;
      parse_class c
  | Some '.' ->
      advance c;
      Any
  | Some '\\' ->
      advance c;
      (match peek c with
      | None -> fail "trailing backslash"
      | Some e ->
          advance c;
          Char (match e with 'n' -> '\n' | 't' -> '\t' | _ -> e))
  | Some (('*' | '+' | '?') as ch) -> fail (Printf.sprintf "dangling %c" ch)
  | Some ')' -> fail "unmatched )"
  | Some ch ->
      advance c;
      Char ch

let parse body =
  let c = { src = body; pos = 0 } in
  let ast = parse_alt c in
  if c.pos < String.length body then fail "trailing input";
  ast

(* -- Thompson NFA ------------------------------------------------------------- *)

(* An atom's test is a 256-entry table: one byte load per input byte,
   whatever the class's shape. *)
type trans = Eps of int | Test of Bytes.t * int

type nfa = {
  states : trans list array; (* out-transitions per state *)
  start : int;
  final : int;
}

type builder = { mutable out : trans list array; mutable used : int }

let new_state b =
  if b.used >= Array.length b.out then begin
    let bigger = Array.make (2 * Array.length b.out) [] in
    Array.blit b.out 0 bigger 0 b.used;
    b.out <- bigger
  end;
  let id = b.used in
  b.used <- b.used + 1;
  id

let add b s t = b.out.(s) <- t :: b.out.(s)

let test_of atom =
  let set table lo hi v = Bytes.fill table (Char.code lo) (Char.code hi - Char.code lo + 1) v in
  match atom with
  | Char ch ->
      let table = Bytes.make 256 '\000' in
      set table ch ch '\001';
      table
  | Any ->
      let table = Bytes.make 256 '\001' in
      set table '\n' '\n' '\000';
      table
  | Class (negated, ranges) ->
      let inside, outside = if negated then ('\000', '\001') else ('\001', '\000') in
      let table = Bytes.make 256 outside in
      List.iter (fun (lo, hi) -> set table lo hi inside) ranges;
      table
  | Seq _ | Alt _ | Star _ | Plus _ | Opt _ -> assert false

(* Returns (start, final) of a fragment with a single final state. *)
let rec build b = function
  | (Char _ | Any | Class _) as atom ->
      let s = new_state b and e = new_state b in
      add b s (Test (test_of atom, e));
      (s, e)
  | Seq items ->
      let s = new_state b in
      let last =
        List.fold_left
          (fun prev item ->
            let fs, fe = build b item in
            add b prev (Eps fs);
            fe)
          s items
      in
      (s, last)
  | Alt (x, y) ->
      let s = new_state b and e = new_state b in
      let xs, xe = build b x and ys, ye = build b y in
      add b s (Eps xs);
      add b s (Eps ys);
      add b xe (Eps e);
      add b ye (Eps e);
      (s, e)
  | Star x ->
      let s = new_state b and e = new_state b in
      let xs, xe = build b x in
      add b s (Eps xs);
      add b s (Eps e);
      add b xe (Eps xs);
      add b xe (Eps e);
      (s, e)
  | Plus x ->
      let xs, xe = build b x in
      let e = new_state b in
      add b xe (Eps xs);
      add b xe (Eps e);
      (xs, e)
  | Opt x ->
      let s = new_state b and e = new_state b in
      let xs, xe = build b x in
      add b s (Eps xs);
      add b s (Eps e);
      add b xe (Eps e);
      (s, e)

(* -- literal extraction -------------------------------------------------------------- *)

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Word-character runs every match must contain.  Only certain-to-appear
   parts count: sequence members and Plus bodies; anything optional,
   repeated-from-zero or alternated is skipped.  Runs never extend across a
   sub-fragment boundary (repetitions may interleave other text). *)
let required_of_ast ast =
  let runs = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf >= 2 then runs := Buffer.contents buf :: !runs;
    Buffer.clear buf
  in
  let rec walk = function
    | Char c when is_word_char c -> Buffer.add_char buf (Char.lowercase_ascii c)
    | Char _ | Any | Class _ -> flush ()
    | Seq items -> List.iter walk items
    | Plus x ->
        flush ();
        walk x;
        flush ()
    | Alt _ | Star _ | Opt _ -> flush ()
  in
  walk ast;
  flush ();
  match List.sort (fun a b -> compare (String.length b) (String.length a)) !runs with
  | longest :: _ -> Some longest
  | [] -> None

type t = {
  source : string;
  nfa : nfa;
  anchored_start : bool;
  anchored_end : bool;
  required : string option;
  prefilter : Agrep.exact option;
}

let compile pattern =
  let anchored_start, anchored_end, body = split_anchors pattern in
  let ast = parse body in
  let b = { out = Array.make 16 []; used = 0 } in
  let start, final = build b ast in
  let required = required_of_ast ast in
  {
    source = pattern;
    nfa = { states = Array.sub b.out 0 b.used; start; final };
    anchored_start;
    anchored_end;
    required;
    prefilter = Option.map Agrep.exact_ci required;
  }

let compile_result pattern =
  match compile pattern with
  | t -> Ok t
  | exception Parse_error msg -> Error msg

let source t = t.source

let required_word t = t.required

(* -- simulation ------------------------------------------------------------------ *)

(* Add [state] and everything epsilon-reachable from it to [set]. *)
let rec close nfa set state =
  if not set.(state) then begin
    set.(state) <- true;
    List.iter
      (function Eps target -> close nfa set target | Test _ -> ())
      nfa.states.(state)
  end

(* The states [current] reaches on [ch], written over [next]: a scan swaps
   two arrays instead of allocating one per byte. *)
let step nfa current next ch =
  Array.fill next 0 (Array.length next) false;
  let code = Char.code ch in
  for s = 0 to Array.length current - 1 do
    if current.(s) then
      List.iter
        (function
          | Test (table, target) ->
              if Bytes.unsafe_get table code <> '\000' then close nfa next target
          | Eps _ -> ())
        nfa.states.(s)
  done

let swap current next =
  let c = !current in
  current := !next;
  next := c

(* A match contains the required word in some case: the word was read off
   certain-to-match [Char] atoms and lowercased.  The bit-parallel scan
   rejects most texts before the simulation starts. *)
let matches t text =
  match t.prefilter with
  | Some p when not (Agrep.occurs p text) -> false
  | Some _ | None ->
      let nfa = t.nfa in
      let n = String.length text in
      let current = ref (Array.make (Array.length nfa.states) false) in
      let next = ref (Array.make (Array.length nfa.states) false) in
      close nfa !current nfa.start;
      let accepted_at i = !current.(nfa.final) && ((not t.anchored_end) || i = n) in
      if accepted_at 0 && not t.anchored_end then true
      else begin
        let result = ref (accepted_at 0 && n = 0) in
        let i = ref 0 in
        while (not !result) && !i < n do
          step nfa !current !next text.[!i];
          if not t.anchored_start then close nfa !next nfa.start;
          swap current next;
          incr i;
          if accepted_at !i then result := true
        done;
        !result
      end

let find t text =
  let nfa = t.nfa in
  let n = String.length text in
  let current = ref (Array.make (Array.length nfa.states) false) in
  let next = ref (Array.make (Array.length nfa.states) false) in
  let try_from start =
    Array.fill !current 0 (Array.length !current) false;
    close nfa !current nfa.start;
    if !current.(nfa.final) && ((not t.anchored_end) || start = n) then Some start
    else begin
      let found = ref None in
      let i = ref start in
      while !found = None && !i < n do
        step nfa !current !next text.[!i];
        swap current next;
        incr i;
        if !current.(nfa.final) && ((not t.anchored_end) || !i = n) then found := Some !i
      done;
      !found
    end
  in
  let starts = if t.anchored_start then [ 0 ] else List.init (n + 1) (fun i -> i) in
  List.fold_left
    (fun acc start ->
      match acc with
      | Some _ -> acc
      | None -> Option.map (fun stop -> (start, stop)) (try_from start))
    None starts
