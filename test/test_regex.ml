(* Tests for the Thompson-NFA regex engine: unit semantics, anchors, the
   required-literal extraction, query-language integration — plus a
   differential property test against OCaml's Str library on a shared
   syntax subset. *)

module Regex = Hac_index.Regex
module Hac = Hac_core.Hac
module Link = Hac_core.Link

let check_bool = Alcotest.(check bool)

let m pattern text = Regex.matches (Regex.compile pattern) text

(* -- basics ---------------------------------------------------------------------- *)

let test_literals () =
  check_bool "exact" true (m "abc" "abc");
  check_bool "inside" true (m "abc" "xxabcxx");
  check_bool "absent" false (m "abc" "ab c");
  check_bool "empty pattern matches" true (m "a*" "zzz");
  check_bool "case sensitive" false (m "abc" "ABC")

let test_metachars () =
  check_bool "dot" true (m "a.c" "abc");
  check_bool "dot not newline" false (m "a.c" "a\nc");
  check_bool "star" true (m "ab*c" "ac");
  check_bool "star many" true (m "ab*c" "abbbbc");
  check_bool "plus needs one" false (m "ab+c" "ac");
  check_bool "plus" true (m "ab+c" "abbc");
  check_bool "opt" true (m "colou?r" "color");
  check_bool "opt present" true (m "colou?r" "colour");
  check_bool "alt left" true (m "cat|dog" "hotdog");
  check_bool "alt both sides" true (m "cat|dog" "a cat");
  check_bool "alt neither" false (m "cat|dog" "bird");
  check_bool "group" true (m "(ab)+c" "abababc");
  check_bool "group alt" true (m "(a|b)c" "bc")

let test_classes () =
  check_bool "class" true (m "[abc]x" "bx");
  check_bool "class miss" false (m "[abc]x" "dx");
  check_bool "range" true (m "[a-f]9" "c9");
  check_bool "negated" true (m "[^0-9]z" "az");
  check_bool "negated miss" false (m "[^0-9]z" "5z");
  check_bool "class with dash literal" true (m "[a-]x" "-x");
  check_bool "multi range" true (m "[a-cx-z]1" "y1")

let test_escapes () =
  check_bool "escaped dot" true (m "a\\.c" "a.c");
  check_bool "escaped dot strict" false (m "a\\.c" "abc");
  check_bool "escaped star" true (m "a\\*" "a*");
  check_bool "newline escape" true (m "a\\nb" "a\nb");
  check_bool "tab escape" true (m "\\t" "col\tumn");
  check_bool "escaped slash" true (m "a\\/b" "a/b")

let test_anchors () =
  check_bool "start" true (m "^abc" "abcdef");
  check_bool "start miss" false (m "^abc" "xabc");
  check_bool "end" true (m "abc$" "xxabc");
  check_bool "end miss" false (m "abc$" "abcx");
  check_bool "both" true (m "^abc$" "abc");
  check_bool "both strict" false (m "^abc$" "abcd");
  check_bool "empty both" false (m "^a*$" "bb");
  check_bool "caret inside is literal" true (m "a^b" "x a^b y")

let test_find () =
  let find p t = Regex.find (Regex.compile p) t in
  Alcotest.(check (option (pair int int))) "leftmost" (Some (2, 5)) (find "abc" "xxabcabc");
  Alcotest.(check (option (pair int int))) "none" None (find "zz" "xxabc");
  Alcotest.(check (option (pair int int))) "shortest at start" (Some (1, 2)) (find "ab*" "xay");
  Alcotest.(check (option (pair int int))) "anchored" (Some (0, 2)) (find "^xa" "xay")

let test_parse_errors () =
  let bad p =
    match Regex.compile_result p with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" p
  in
  bad "(ab";
  bad "ab)";
  bad "[abc";
  bad "*a";
  bad "+";
  bad "a\\";
  bad "[z-a]x"

let test_no_backtracking_blowup () =
  (* The classic exponential-backtracking killer must run instantly. *)
  let p = "(a+)+b" and t = String.make 30 'a' ^ "c" in
  check_bool "no match, fast" false (m p t)

let test_source () =
  Alcotest.(check string) "source kept" "a+b" (Regex.source (Regex.compile "a+b"))

(* -- required-literal extraction -------------------------------------------------- *)

let test_required_word () =
  let req p = Regex.required_word (Regex.compile p) in
  Alcotest.(check (option string)) "plain literal" (Some "abc") (req "abc");
  Alcotest.(check (option string)) "longest run" (Some "world") (req "hi.world");
  Alcotest.(check (option string)) "lowercased" (Some "abc") (req "ABC");
  Alcotest.(check (option string)) "stops at star" (Some "ab") (req "abx*");
  Alcotest.(check (option string)) "nothing certain" None (req "a*|b+");
  Alcotest.(check (option string)) "alt kills" None (req "abc|xyz");
  Alcotest.(check (option string)) "plus body required" (Some "abc") (req "(abc)+");
  Alcotest.(check (option string)) "single char too short" None (req "a.b.c")

(* -- query-language integration ---------------------------------------------------- *)

let transient_targets t dir =
  Hac.links t dir
  |> List.filter_map (fun l ->
         if l.Link.cls = Link.Transient then Some (Link.target_key l.Link.target) else None)
  |> List.sort compare

let test_regex_queries () =
  let t = Hac.create ~auto_sync:true ~stem:false () in
  Hac.mkdir_p t "/src";
  Hac.write_file t "/src/a.ml" "let handle_error e = raise e\n";
  Hac.write_file t "/src/b.ml" "let handler x = x + 1\n";
  Hac.write_file t "/src/c.txt" "errors were handled gracefully\n";
  Hac.smkdir t "/q1" "/handle_[a-z]+/";
  Alcotest.(check (list string)) "regex term" [ "/src/a.ml" ] (transient_targets t "/q1");
  Hac.smkdir t "/q2" "/let handler?/ AND ext:ml";
  Alcotest.(check (list string))
    "regex AND attr" [ "/src/a.ml"; "/src/b.ml" ]
    (transient_targets t "/q2");
  Alcotest.(check (option string)) "round trips in sreadin"
    (Some "/handle_[a-z]+/") (Hac.sreadin t "/q1");
  (* Malformed patterns fail at smkdir time like other bad queries... *)
  match Hac.smkdir t "/q3" "/((broken/" with
  | () ->
      (* ...or evaluate to empty if only semantically wrong; either way no
         crash.  The current engine rejects at evaluation, yielding empty. *)
      Alcotest.(check (list string)) "broken regex empty" [] (transient_targets t "/q3")
  | exception Hac.Hac_error _ -> ()

let test_regex_tracks_changes () =
  let t = Hac.create ~auto_sync:true ~stem:false () in
  Hac.write_file t "/log.txt" "status: ok\n";
  Hac.smkdir t "/errs" "/error [0-9]+/";
  Alcotest.(check (list string)) "initially empty" [] (transient_targets t "/errs");
  Hac.write_file t "/log.txt" "status: error 42\n";
  Alcotest.(check (list string)) "appears on change" [ "/log.txt" ] (transient_targets t "/errs")

(* -- differential property vs Str -------------------------------------------------- *)

(* Generate small ASTs over a tiny alphabet, render them both in our syntax
   and in Str's, and compare unanchored search verdicts on random texts.
   Both cases of the letters appear, so the oracle also checks that the
   case-insensitive prefilter never rejects a text the simulation would
   match, and that the simulation itself stays case-sensitive. *)
type dast =
  | DChar of char
  | DAny
  | DSeq of dast * dast
  | DAlt of dast * dast
  | DStar of dast
  | DPlus of dast
  | DOpt of dast

let rec render_ours = function
  | DChar c -> String.make 1 c
  | DAny -> "."
  | DSeq (a, b) -> render_ours a ^ render_ours b
  | DAlt (a, b) -> "(" ^ render_ours a ^ "|" ^ render_ours b ^ ")"
  | DStar a -> "(" ^ render_ours a ^ ")*"
  | DPlus a -> "(" ^ render_ours a ^ ")+"
  | DOpt a -> "(" ^ render_ours a ^ ")?"

let rec render_str = function
  | DChar c -> String.make 1 c
  | DAny -> "."
  | DSeq (a, b) -> render_str a ^ render_str b
  | DAlt (a, b) -> "\\(" ^ render_str a ^ "\\|" ^ render_str b ^ "\\)"
  | DStar a -> "\\(" ^ render_str a ^ "\\)*"
  | DPlus a -> "\\(" ^ render_str a ^ "\\)+"
  | DOpt a -> "\\(" ^ render_str a ^ "\\)?"

let gen_letter = QCheck.Gen.oneofl [ 'a'; 'b'; 'c'; 'A'; 'B' ]

let gen_dast =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then
              oneof [ map (fun c -> DChar c) gen_letter; return DAny ]
            else
              frequency
                [
                  (3, map (fun c -> DChar c) gen_letter);
                  (2, map2 (fun a b -> DSeq (a, b)) (self (n / 2)) (self (n / 2)));
                  (2, map2 (fun a b -> DAlt (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map (fun a -> DStar a) (self (n / 2)));
                  (1, map (fun a -> DPlus a) (self (n / 2)));
                  (1, map (fun a -> DOpt a) (self (n / 2)));
                ])
          (min n 8)))

let gen_text =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 0 12) (oneofl [ 'a'; 'b'; 'c'; 'd'; 'A'; 'B'; 'C' ])))

(* Str's unanchored verdict: the oracle. *)
let str_matches dast text =
  match Str.search_forward (Str.regexp (render_str dast)) text 0 with
  | _ -> true
  | exception Not_found ->
      (* Str.search_forward misses empty matches at the very end for
         some patterns; check an explicit anchored match everywhere. *)
      List.exists
        (fun i -> Str.string_match (Str.regexp (render_str dast)) text i)
        (List.init (String.length text + 1) (fun i -> i))

let prop_matches_str =
  QCheck.Test.make ~name:"matches agrees with Str on shared subset" ~count:1500
    (QCheck.make
       QCheck.Gen.(pair gen_dast gen_text)
       ~print:(fun (d, t) -> Printf.sprintf "/%s/ on %S" (render_ours d) t))
    (fun (dast, text) -> m (render_ours dast) text = str_matches dast text)

let prop_find_consistent =
  QCheck.Test.make ~name:"find implies matches" ~count:500
    (QCheck.make
       QCheck.Gen.(pair gen_dast gen_text)
       ~print:(fun (d, t) -> Printf.sprintf "/%s/ on %S" (render_ours d) t))
    (fun (dast, text) ->
      let re = Regex.compile (render_ours dast) in
      match Regex.find re text with
      | Some (i, j) -> 0 <= i && i <= j && j <= String.length text && Regex.matches re text
      | None -> not (Regex.matches re text))

(* Naive substring test, independent of the bit-parallel scan under test. *)
let has_substring hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  at 0

(* The prefilter's soundness: a text the pattern matches, by the oracle,
   holds the required word in some case. *)
let prop_required_word_occurs =
  QCheck.Test.make ~name:"a match holds required_word, ignoring case" ~count:1500
    (QCheck.make
       QCheck.Gen.(pair gen_dast gen_text)
       ~print:(fun (d, t) -> Printf.sprintf "/%s/ on %S" (render_ours d) t))
    (fun (dast, text) ->
      let re = Regex.compile (render_ours dast) in
      match Regex.required_word re with
      | Some w when str_matches dast text -> has_substring (String.lowercase_ascii text) w
      | Some _ | None -> true)

(* Compilers of user-typed text are total: any byte string yields a value
   or an error, never an exception. *)
let total name f gen =
  QCheck.Test.make ~name ~count:2000 (QCheck.make gen ~print:(Printf.sprintf "%S")) (fun s ->
      match f s with Ok _ | Error _ -> true)

let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_range 0 40))

(* Mostly metacharacters, so the fuzz reaches deep into both grammars. *)
let gen_syntax =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [ '('; ')'; '['; ']'; '|'; '*'; '+'; '?'; '.'; '\\'; '^'; '$'; '-'; '/'; '~'; '"';
             '{'; '}'; '#'; ':'; ' '; 'a'; 'N'; '1'; '\x00'; '\xff' ])
      (int_range 0 30))

let fuzz_props =
  [
    total "Regex.compile_result is total on bytes" Regex.compile_result gen_bytes;
    total "Regex.compile_result is total on syntax" Regex.compile_result gen_syntax;
    total "Parser.parse_result is total on bytes" Hac_query.Parser.parse_result gen_bytes;
    total "Parser.parse_result is total on syntax" Hac_query.Parser.parse_result gen_syntax;
  ]

let () =
  Alcotest.run "regex"
    [
      ( "semantics",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "metacharacters" `Quick test_metachars;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "anchors" `Quick test_anchors;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "no backtracking blowup" `Quick test_no_backtracking_blowup;
          Alcotest.test_case "source" `Quick test_source;
        ] );
      ( "literal extraction",
        [ Alcotest.test_case "required_word" `Quick test_required_word ] );
      ( "queries",
        [
          Alcotest.test_case "regex terms" `Quick test_regex_queries;
          Alcotest.test_case "tracks changes" `Quick test_regex_tracks_changes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_matches_str; prop_find_consistent; prop_required_word_occurs ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest fuzz_props);
    ]
