(* Tests for the query language: lexer, parser, printer round trips, and
   evaluator algebra. *)

module Ast = Hac_query.Ast
module Lexer = Hac_query.Lexer
module Parser = Hac_query.Parser
module Eval = Hac_query.Eval
module Fileset = Hac_bitset.Fileset

let ast =
  Alcotest.testable (fun ppf q -> Format.pp_print_string ppf (Ast.to_string q)) Ast.equal

let check_ast = Alcotest.check ast

let parse = Parser.parse

let w s = Ast.Term (Ast.Word s)

(* -- lexer ----------------------------------------------------------------------- *)

let test_lexer_tokens () =
  Alcotest.(check int) "token count" 6 (List.length (Lexer.tokens "a AND (b)"));
  (match Lexer.tokens "foo" with
  | [ Lexer.WORD "foo"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "expected WORD foo");
  match Lexer.tokens "NAME:x" with
  | [ Lexer.ATTR ("name", "x"); Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "expected lowercased ATTR"

let test_lexer_case () =
  (match Lexer.tokens "FooBar and OR Not" with
  | [ Lexer.WORD "foobar"; Lexer.AND; Lexer.OR; Lexer.NOT; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keywords case-insensitive, words lowercased")

let test_lexer_errors () =
  let expect_err input =
    match Lexer.tokens input with
    | _ -> Alcotest.failf "expected lex error on %S" input
    | exception Lexer.Syntax_error _ -> ()
  in
  expect_err "\"unterminated";
  expect_err "{unterminated";
  expect_err "\"\"" (* empty phrase *);
  expect_err "{}" (* empty dirref *);
  expect_err "~" (* bare approx *);
  expect_err "name:" (* missing value *);
  expect_err "~99999999999999999999~word" (* edit distance past the int range *);
  expect_err "&"

(* -- parser ---------------------------------------------------------------------- *)

let test_parse_atoms () =
  check_ast "word" (w "fish") (parse "fish");
  check_ast "star" Ast.All (parse "*");
  check_ast "phrase" (Ast.Term (Ast.Phrase [ "big"; "fish" ])) (parse "\"Big Fish\"");
  check_ast "approx default" (Ast.Term (Ast.Approx ("fish", 1))) (parse "~fish");
  check_ast "approx k" (Ast.Term (Ast.Approx ("fish", 2))) (parse "~2~fish");
  check_ast "attr" (Ast.Term (Ast.Attr ("ext", "ml"))) (parse "ext:ml");
  check_ast "attr path value" (Ast.Term (Ast.Attr ("path", "/a/b"))) (parse "path:/a/b");
  check_ast "dirref" (Ast.Term (Ast.Dirref (Ast.Ref_path "/mail/bob"))) (parse "{/mail/bob}");
  check_ast "dirref trimmed" (Ast.Term (Ast.Dirref (Ast.Ref_path "/x"))) (parse "{ /x }")

let test_parse_operators () =
  check_ast "and" (Ast.And (w "a1", w "b1")) (parse "a1 AND b1");
  check_ast "implicit and" (Ast.And (w "a1", w "b1")) (parse "a1 b1");
  check_ast "or" (Ast.Or (w "a1", w "b1")) (parse "a1 OR b1");
  check_ast "not" (Ast.Not (w "a1")) (parse "NOT a1");
  check_ast "double not" (Ast.Not (Ast.Not (w "a1"))) (parse "NOT NOT a1")

let test_parse_precedence () =
  (* AND binds tighter than OR; NOT tighter than AND. *)
  check_ast "a OR b AND c" (Ast.Or (w "aa", Ast.And (w "bb", w "cc"))) (parse "aa OR bb AND cc");
  check_ast "NOT under AND" (Ast.And (Ast.Not (w "aa"), w "bb")) (parse "NOT aa AND bb");
  check_ast "parens override"
    (Ast.And (Ast.Or (w "aa", w "bb"), w "cc"))
    (parse "(aa OR bb) AND cc")

let test_parse_associativity () =
  check_ast "and left assoc" (Ast.And (Ast.And (w "x1", w "x2"), w "x3")) (parse "x1 x2 x3");
  check_ast "or left assoc" (Ast.Or (Ast.Or (w "x1", w "x2"), w "x3")) (parse "x1 OR x2 OR x3")

let test_parse_paper_query () =
  (* The query from the paper: "fingerprint AND NOT murder". *)
  check_ast "paper example"
    (Ast.And (w "fingerprint", Ast.Not (w "murder")))
    (parse "fingerprint AND NOT murder")

let test_parse_errors () =
  let expect_err input =
    match Parser.parse_result input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error on %S" input
  in
  expect_err "";
  expect_err "AND a";
  expect_err "a AND";
  expect_err "(a";
  expect_err "a)";
  expect_err "a OR";
  expect_err "NOT"

(* -- AST helpers -------------------------------------------------------------------- *)

let test_words_collection () =
  Alcotest.(check (list string))
    "words from all term kinds" [ "aa"; "bb"; "cc"; "dd" ]
    (Ast.words (parse "aa AND \"bb cc\" OR ~dd AND ext:ml {/d}"))

let test_dirref_mapping () =
  let q = parse "{/a} AND ({/b} OR xx)" in
  let installed =
    Ast.map_dirrefs
      (function Ast.Ref_path "/a" -> Ast.Ref_uid 10 | Ast.Ref_path _ -> Ast.Ref_uid 20 | r -> r)
      q
  in
  Alcotest.(check (list int)) "uids" [ 10; 20 ] (Ast.dir_uids installed);
  Alcotest.(check int) "size preserved" (Ast.size q) (Ast.size installed)

let test_to_string_uid_resolution () =
  let q = Ast.Term (Ast.Dirref (Ast.Ref_uid 7)) in
  Alcotest.(check string) "unresolved" "{#7}" (Ast.to_string q);
  Alcotest.(check string)
    "resolved" "{/mail/bob}"
    (Ast.to_string ~path_of_uid:(fun _ -> Some "/mail/bob") q)

(* -- printer/parser round trip -------------------------------------------------------- *)

let gen_word =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 2 6) (char_range 'a' 'z')))

let gen_safe_word =
  (* Avoid the keywords. *)
  QCheck.Gen.map
    (fun w -> match w with "and" | "or" | "not" -> w ^ "x" | _ -> w)
    gen_word

let gen_term =
  QCheck.Gen.(
    oneof
      [
        map (fun w -> Ast.Word w) gen_safe_word;
        map (fun ws -> Ast.Phrase ws) (list_size (int_range 1 3) gen_safe_word);
        map2 (fun w k -> Ast.Approx (w, 1 + k)) gen_safe_word (int_bound 2);
        map2 (fun a v -> Ast.Attr (a, v)) gen_safe_word gen_safe_word;
        map (fun p -> Ast.Dirref (Ast.Ref_path ("/" ^ p))) gen_safe_word;
      ])

let gen_ast =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then oneof [ map (fun t -> Ast.Term t) gen_term; return Ast.All ]
            else
              frequency
                [
                  (2, map (fun t -> Ast.Term t) gen_term);
                  (2, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
                  (2, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map (fun a -> Ast.Not a) (self (n - 1)));
                ])
          (min n 12)))

let arb_ast = QCheck.make gen_ast ~print:Ast.to_string

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string q) = q" ~count:500 arb_ast (fun q ->
      Ast.equal (parse (Ast.to_string q)) q)

let prop_print_parse_print_stable =
  QCheck.Test.make ~name:"printing is stable" ~count:500 arb_ast (fun q ->
      let s = Ast.to_string q in
      Ast.to_string (parse s) = s)

(* -- total decoding of raw bytes ------------------------------------------------

   The parser reads user input and stored [sd-N.query] files: on any bytes
   it returns a query or a [Parse_error], and the lexer a token list or a
   [Syntax_error] — never another exception.  Raw strings are drawn from
   arbitrary bytes and from fragments of the concrete syntax, so the
   generator reaches deep nesting, long digit runs and every delimiter. *)

let fragments =
  [|
    "("; ")"; "\""; "{"; "}"; "/"; "\\"; ":"; "~"; "*"; " "; "\t"; "\n"; "AND"; "OR";
    "NOT"; "and"; "word"; "x"; "9"; "99999999999999999999"; "~2~"; "a:b"; "((((((((";
    "NOT NOT NOT NOT "; "/a\\/b/"; "{/p}"; "\"a b\""; "\000"; "\255";
  |]

let gen_raw =
  QCheck.Gen.(
    frequency
      [
        (1, string_size ~gen:char (int_bound 40));
        ( 3,
          map (String.concat "")
            (list_size (int_bound 30) (oneofa fragments)) );
        ( 1,
          map2
            (fun k f -> String.concat "" (List.init k (fun _ -> f)))
            (int_range 1 20_000) (oneofl [ "("; "NOT "; "~"; "{" ]) );
        (* Numeric fields at and past the integer range. *)
        (1, map (fun k -> "~" ^ String.make k '9' ^ "~word") (int_range 1 30));
      ])

let arb_raw =
  QCheck.make gen_raw ~print:(fun s ->
      Printf.sprintf "%S" (if String.length s > 200 then String.sub s 0 200 ^ "..." else s))

let prop_parse_total =
  QCheck.Test.make ~name:"parsing raw bytes returns a query or an error" ~count:1000 arb_raw
    (fun s ->
      (match Lexer.tokens s with
      | _ -> ()
      | exception Lexer.Syntax_error _ -> ());
      match Parser.parse_result s with Ok _ | Error _ -> true)

(* -- evaluator -------------------------------------------------------------------------- *)

let env_of_table universe table =
  {
    Eval.universe = (fun () -> Fileset.of_list universe);
    word =
      (fun ?within:_ w -> Fileset.of_list (Option.value (List.assoc_opt w table) ~default:[]));
    phrase = (fun ?within:_ _ -> Fileset.empty);
    approx =
      (fun ?within:_ w _ ->
        Fileset.of_list (Option.value (List.assoc_opt w table) ~default:[]));
    attr = (fun ?within:_ _ _ -> Fileset.empty);
    regex = (fun ?within:_ _ -> Fileset.empty);
    dirref = (fun ?within:_ _ -> Fileset.empty);
  }

let test_eval_boolean () =
  let env = env_of_table [ 1; 2; 3; 4 ] [ ("aa", [ 1; 2 ]); ("bb", [ 2; 3 ]) ] in
  let run q = Fileset.elements (Eval.eval env (parse q)) in
  Alcotest.(check (list int)) "and" [ 2 ] (run "aa AND bb");
  Alcotest.(check (list int)) "or" [ 1; 2; 3 ] (run "aa OR bb");
  Alcotest.(check (list int)) "not" [ 3; 4 ] (run "NOT aa");
  Alcotest.(check (list int)) "star" [ 1; 2; 3; 4 ] (run "*");
  Alcotest.(check (list int)) "and not" [ 1 ] (run "aa AND NOT bb");
  Alcotest.(check (list int)) "de morgan check" (run "NOT (aa OR bb)") (run "NOT aa AND NOT bb")

let test_eval_missing_word () =
  let env = env_of_table [ 1 ] [] in
  Alcotest.(check (list int)) "unknown empty" [] (Fileset.elements (Eval.eval env (parse "zz")));
  Alcotest.(check (list int))
    "not unknown is universe" [ 1 ]
    (Fileset.elements (Eval.eval env (parse "NOT zz")))

(* Evaluating under a scope by intersecting afterwards must equal replacing
   the universe — the identity the scope algorithm relies on. *)
let prop_scope_restriction_commutes =
  QCheck.Test.make ~name:"(eval q) ∩ S = eval with universe S for positive scopes" ~count:200
    (QCheck.pair arb_ast (QCheck.small_list (QCheck.int_bound 30)))
    (fun (q, scope_l) ->
      let universe = List.init 31 (fun i -> i) in
      let table = [ ("aa", [ 1; 2; 3 ]); ("bb", [ 2; 4 ]) ] in
      let scope = Fileset.of_list scope_l in
      let env_full = env_of_table universe table in
      let restricted =
        {
          env_full with
          Eval.universe = (fun () -> scope);
          word = (fun ?within w -> Fileset.inter scope (env_full.Eval.word ?within w));
          approx =
            (fun ?within w k -> Fileset.inter scope (env_full.Eval.approx ?within w k));
        }
      in
      Fileset.equal
        (Fileset.inter scope (Eval.eval env_full q))
        (Eval.eval restricted q))

(* -- planner ------------------------------------------------------------------------------ *)

module Planner = Hac_query.Planner

let table_cost table t =
  match t with
  | Ast.Word w -> List.length (Option.value (List.assoc_opt w table) ~default:[])
  | _ -> 1000

let test_planner_reorders () =
  let cost = table_cost [ ("common", List.init 90 Fun.id); ("rare", [ 1 ]) ] in
  check_ast "rare first"
    (Ast.And (w "rare", w "common"))
    (Planner.optimize ~cost (parse "common AND rare"));
  check_ast "three-way chain"
    (Ast.And (Ast.And (w "rare", w "common"), Ast.Not (w "rare")))
    (Planner.optimize ~cost (parse "NOT rare AND common AND rare"));
  (* OR operands keep their order; recursion still fixes inner ANDs. *)
  check_ast "or preserved"
    (Ast.Or (w "common", Ast.And (w "rare", w "common")))
    (Planner.optimize ~cost (parse "common OR (common AND rare)"))

let test_planner_subtree_cost () =
  let cost = table_cost [ ("aa", [ 1; 2 ]); ("bb", List.init 10 Fun.id) ] in
  Alcotest.(check int) "term" 2 (Planner.subtree_cost ~cost (parse "aa"));
  Alcotest.(check int) "and takes min" 2 (Planner.subtree_cost ~cost (parse "aa AND bb"));
  Alcotest.(check int) "or sums" 12 (Planner.subtree_cost ~cost (parse "aa OR bb"));
  Alcotest.(check bool) "not is big" true (Planner.subtree_cost ~cost (parse "NOT aa") > 1000)

let test_planner_cost_saturates () =
  let big = max_int / 2 in
  let huge _ = max_int in
  (* Or of two Nots used to compute max_int/2 + max_int/2 and rely on a
     wrap-to-negative check that the operands evade. *)
  Alcotest.(check int)
    "or of two nots clamps" big
    (Planner.subtree_cost ~cost:huge (parse "NOT aa OR NOT bb"));
  Alcotest.(check int)
    "nested ors stay clamped" big
    (Planner.subtree_cost ~cost:huge (parse "(NOT aa OR NOT bb) OR (NOT cc OR NOT dd)"));
  Alcotest.(check int)
    "huge term costs clamp too" big
    (Planner.subtree_cost ~cost:huge (parse "aa OR bb"));
  Alcotest.(check bool)
    "negative estimates treated as zero" true
    (Planner.subtree_cost ~cost:(fun _ -> -5) (parse "aa OR bb") = 0)

let test_planner_verify_weights () =
  (* Weights order by per-candidate verification work: set lookup < token
     probe < stream scan < full regex match < edit-distance sweep. *)
  let wt q = Planner.verify_weight (match parse q with Ast.Term t -> t | _ -> assert false) in
  Alcotest.(check int) "dirref" 1 (wt "{/a}");
  Alcotest.(check int) "word" 2 (wt "aa");
  Alcotest.(check int) "attr" 2 (wt "type:mail");
  Alcotest.(check int) "phrase" 3 (wt "\"aa bb\"");
  Alcotest.(check int) "regex" 8 (wt "/ab+c/");
  Alcotest.(check bool) "approx heaviest" true (wt "~fuzzy" > wt "/ab+c/")

let test_planner_calibrated () =
  let big = max_int / 2 in
  let term q = match parse q with Ast.Term t -> t | _ -> assert false in
  let measured _ = 10 in
  (* Calibration multiplies a measured candidate count by the kind weight,
     so a 10-candidate regex outranks (costs more than) a 30-candidate
     word: 10*8 > 30*2. *)
  Alcotest.(check int) "word x2" 20 (Planner.calibrated ~measured (term "aa"));
  Alcotest.(check int) "regex x8" 80 (Planner.calibrated ~measured (term "/ab+c/"));
  Alcotest.(check bool)
    "ranking can flip on kind" true
    (Planner.calibrated ~measured (term "/ab+c/")
    > Planner.calibrated ~measured:(fun _ -> 30) (term "aa"));
  (* Saturation: a universe-sized measurement times the heaviest weight
     must clamp, not wrap. *)
  Alcotest.(check int)
    "saturates at big" big
    (Planner.calibrated ~measured:(fun _ -> max_int) (term "~fuzzy"));
  Alcotest.(check int)
    "negative measurements clamp to zero" 0
    (Planner.calibrated ~measured:(fun _ -> -3) (term "aa"))

let prop_planner_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves evaluation" ~count:500
    (QCheck.pair arb_ast (QCheck.small_list (QCheck.int_bound 30)))
    (fun (q, scope) ->
      let env =
        env_of_table
          (List.init 31 Fun.id)
          [ ("aa", [ 1; 2; 3 ]); ("bb", [ 2; 4 ]); ("cc", scope) ]
      in
      (* A deliberately arbitrary cost function: correctness must not depend
         on estimate quality. *)
      let cost t = Hashtbl.hash t mod 100 in
      Fileset.equal (Eval.eval env q) (Eval.eval env (Hac_query.Planner.optimize ~cost q)))

let () =
  Alcotest.run "query"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "case handling" `Quick test_lexer_case;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "atoms" `Quick test_parse_atoms;
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "associativity" `Quick test_parse_associativity;
          Alcotest.test_case "paper query" `Quick test_parse_paper_query;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "ast",
        [
          Alcotest.test_case "words" `Quick test_words_collection;
          Alcotest.test_case "dirref mapping" `Quick test_dirref_mapping;
          Alcotest.test_case "uid resolution in printing" `Quick test_to_string_uid_resolution;
        ] );
      ( "eval",
        [
          Alcotest.test_case "boolean algebra" `Quick test_eval_boolean;
          Alcotest.test_case "missing words" `Quick test_eval_missing_word;
        ] );
      ( "planner",
        [
          Alcotest.test_case "reorders conjunctions" `Quick test_planner_reorders;
          Alcotest.test_case "subtree cost" `Quick test_planner_subtree_cost;
          Alcotest.test_case "cost saturates" `Quick test_planner_cost_saturates;
          Alcotest.test_case "verify weights" `Quick test_planner_verify_weights;
          Alcotest.test_case "calibrated model" `Quick test_planner_calibrated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_print_parse_print_stable;
            prop_parse_total;
            prop_scope_restriction_commutes;
            prop_planner_preserves_semantics;
          ] );
    ]
