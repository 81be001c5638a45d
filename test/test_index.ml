(* Tests for the content index (doc-granular postings with the Glimpse
   block view) and the verification search layer. *)

module Index = Hac_index.Index
module Search = Hac_index.Search
module Fileset = Hac_bitset.Fileset

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_list = Alcotest.(check (list int))

let docs =
  [
    ("/a.txt", "the quick brown fox jumps");
    ("/b.txt", "the lazy dog sleeps");
    ("/c.txt", "quick quick slow");
    ("/d.txt", "unrelated words entirely");
  ]

let make_index ?(block_size = 1) ?(stem = false) () =
  let idx = Index.create ~block_size ~stem () in
  List.iter (fun (path, content) -> ignore (Index.add_document idx ~path ~content)) docs;
  idx

let reader_of docs =
  { Search.read = (fun path -> List.assoc_opt path docs); may_read = (fun path -> List.mem_assoc path docs) }

let ids idx paths =
  List.filter_map (fun p -> Index.doc_of_path idx p) paths |> List.sort compare

(* -- document table ------------------------------------------------------------ *)

let test_doc_table () =
  let idx = make_index () in
  check_int "count" 4 (Index.doc_count idx);
  check_int "universe" 4 (Fileset.cardinal (Index.universe idx));
  Alcotest.(check (option string)) "path" (Some "/a.txt") (Index.doc_path idx 0);
  Alcotest.(check (option int)) "id" (Some 0) (Index.doc_of_path idx "/a.txt");
  Alcotest.(check (option int)) "unknown" None (Index.doc_of_path idx "/nope")

let test_remove () =
  let idx = make_index () in
  Index.remove_path idx "/b.txt";
  check_int "count" 3 (Index.doc_count idx);
  Alcotest.(check (option string)) "dead doc" None (Index.doc_path idx 1);
  check_bool "universe excludes dead" false (Fileset.mem (Index.universe idx) 1);
  Index.remove_path idx "/b.txt" (* idempotent *);
  check_bool "stale ratio" true (Index.stale_ratio idx > 0.0)

let test_rename () =
  let idx = make_index () in
  Index.rename_path idx ~old_path:"/a.txt" ~new_path:"/z.txt";
  Alcotest.(check (option int)) "new path same id" (Some 0) (Index.doc_of_path idx "/z.txt");
  Alcotest.(check (option int)) "old gone" None (Index.doc_of_path idx "/a.txt");
  Alcotest.(check (option string)) "doc_path updated" (Some "/z.txt") (Index.doc_path idx 0)

let test_rename_clobbers () =
  let idx = make_index () in
  Index.rename_path idx ~old_path:"/a.txt" ~new_path:"/b.txt";
  Alcotest.(check (option int)) "destination now a's id" (Some 0) (Index.doc_of_path idx "/b.txt");
  check_int "one fewer live doc" 3 (Index.doc_count idx)

let test_update_same_id () =
  let idx = make_index () in
  let id = Index.update_document idx ~path:"/a.txt" ~content:"totally different words" in
  check_int "same id" 0 id;
  check_bool "new word found" true (Fileset.mem (Index.candidate_docs idx "totally") 0)

(* -- candidates ------------------------------------------------------------------ *)

let test_candidates_block1 () =
  let idx = make_index ~block_size:1 () in
  check_list "quick in a and c" (ids idx [ "/a.txt"; "/c.txt" ])
    (Fileset.elements (Index.candidate_docs idx "quick"));
  check_list "the in a and b" (ids idx [ "/a.txt"; "/b.txt" ])
    (Fileset.elements (Index.candidate_docs idx "the"));
  check_list "absent" [] (Fileset.elements (Index.candidate_docs idx "zebra"))

let test_candidates_coarse_blocks () =
  (* The block view answers the whole live block — the classic
     space/precision trade-off: strictly wider than the doc-granular set... *)
  let fine = make_index ~block_size:1 () and coarse = make_index ~block_size:4 () in
  let precise = Index.candidate_docs fine "quick" in
  let wide = Index.candidate_docs coarse "quick" in
  check_list "doc-granular" (ids fine [ "/a.txt"; "/c.txt" ]) (Fileset.elements precise);
  check_bool "coarse strictly wider" true
    (Fileset.subset precise wide && Fileset.cardinal wide > Fileset.cardinal precise);
  check_int "whole block" 4 (Fileset.cardinal wide);
  (* ...and verification restores precision. *)
  let verified = Search.search_word coarse (reader_of docs) "quick" in
  check_list "verified" (ids coarse [ "/a.txt"; "/c.txt" ]) (Fileset.elements verified)

let test_candidates_exclude_dead () =
  let idx = make_index ~block_size:4 () in
  Index.remove_path idx "/a.txt";
  check_bool "dead not candidate" false (Fileset.mem (Index.candidate_docs idx "quick") 0)

let test_stemming_index () =
  let idx = Index.create ~block_size:1 ~stem:true () in
  ignore (Index.add_document idx ~path:"/s.txt" ~content:"many queries were matched");
  check_bool "query finds queries" true
    (not (Fileset.is_empty (Index.candidate_docs idx "query")));
  check_bool "match finds matched" true
    (not (Fileset.is_empty (Index.candidate_docs idx "match")))

let test_candidates_approx () =
  let idx = make_index () in
  let c = Index.candidate_docs_approx idx ~word:"quack" ~errors:1 in
  (* quack ~1~ quick. *)
  check_bool "near word found" true (Fileset.mem c 0);
  check_list "exact approx at 0"
    (Fileset.elements (Index.candidate_docs idx "quick"))
    (Fileset.elements (Index.candidate_docs_approx idx ~word:"quick" ~errors:0))

let test_vocabulary_and_bytes () =
  let idx = make_index () in
  check_bool "vocab populated" true (Index.vocabulary_size idx > 5);
  check_bool "bytes positive" true (Index.index_bytes idx > 0);
  check_bool "vocab sorted" true
    (let v = Index.vocabulary idx in
     v = List.sort compare v)

let test_rebuild_reclaims () =
  let idx = make_index ~block_size:1 () in
  Index.remove_path idx "/a.txt";
  (* Stale bits: "fox" still has a.txt's block. *)
  Index.rebuild idx ~may_read:(fun _ -> true) (fun id ->
      Option.bind (Index.doc_path idx id) (reader_of docs).Search.read);
  check_list "fox gone after rebuild" [] (Fileset.elements (Index.candidate_docs idx "fox"));
  check_int "live docs kept" 3 (Index.doc_count idx)

(* -- per-directory index -------------------------------------------------------------- *)

let test_doc_ids_under () =
  let idx = Index.create () in
  let add p = ignore (Index.add_document idx ~path:p ~content:"words here") in
  List.iter add [ "/a/one.txt"; "/a/sub/two.txt"; "/b/three.txt" ];
  let under d = List.filter_map (Index.doc_path idx) (Fileset.elements (Index.doc_ids_under idx d)) in
  check_bool "root equals universe" true
    (Fileset.equal (Index.doc_ids_under idx "/") (Index.universe idx));
  Alcotest.(check (list string)) "under /a" [ "/a/one.txt"; "/a/sub/two.txt" ]
    (List.sort compare (under "/a"));
  Alcotest.(check (list string)) "under /a/sub" [ "/a/sub/two.txt" ] (under "/a/sub");
  Alcotest.(check (list string)) "unknown dir" [] (under "/zzz");
  (* Removal and rename maintain the table. *)
  Index.remove_path idx "/a/one.txt";
  Alcotest.(check (list string)) "after remove" [ "/a/sub/two.txt" ]
    (List.sort compare (under "/a"));
  Index.rename_path idx ~old_path:"/a/sub/two.txt" ~new_path:"/b/two.txt";
  Alcotest.(check (list string)) "moved out" [] (under "/a");
  Alcotest.(check (list string)) "moved in" [ "/b/three.txt"; "/b/two.txt" ]
    (List.sort compare (under "/b"))

(* A rebuild that cannot read a document drops it everywhere: the
   directory table must not keep the dead id, or "/" would outgrow the
   universe. *)
let test_rebuild_drops_unreadable () =
  let idx = Index.create () in
  List.iter
    (fun p -> ignore (Index.add_document idx ~path:p ~content:"words here"))
    [ "/a/one.txt"; "/a/two.txt"; "/b/three.txt" ];
  let dropped = Option.get (Index.doc_of_path idx "/a/two.txt") in
  Index.rebuild idx ~may_read:(fun id -> id <> dropped) (fun id ->
      if id = dropped then None else Some "words here");
  check_list "universe" [ 0; 2 ] (Fileset.elements (Index.universe idx));
  check_list "root equals universe" (Fileset.elements (Index.universe idx))
    (Fileset.elements (Index.doc_ids_under idx "/"));
  check_bool "gone from its directory" false
    (Fileset.mem (Index.doc_ids_under idx "/a") dropped)

(* The incremental table must always agree with a direct scan. *)
let prop_doc_ids_under_matches_scan =
  let dirs = [| "/"; "/x"; "/x/a"; "/x/b"; "/y" |] in
  let file =
    QCheck.Gen.(
      map2 (fun d i -> Printf.sprintf "%s/f%d.txt" dirs.(d) i) (int_range 1 4) (int_bound 9))
  in
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (oneof
           [
             map (fun p -> `Add p) file;
             map (fun p -> `Remove p) file;
             map2 (fun a b -> `Rename (a, b)) file file;
             (* A rebuild whose reader cannot supply this file. *)
             map (fun p -> `Rebuild_without p) file;
           ]))
  in
  QCheck.Test.make ~name:"doc_ids_under agrees with a path scan" ~count:300
    (QCheck.make gen_ops ~print:(fun ops -> string_of_int (List.length ops)))
    (fun ops ->
      let idx = Index.create () in
      List.iter
        (function
          | `Add p -> ignore (Index.add_document idx ~path:p ~content:"w")
          | `Remove p -> Index.remove_path idx p
          | `Rename (a, b) -> Index.rename_path idx ~old_path:a ~new_path:b
          | `Rebuild_without p ->
              Index.rebuild idx
                ~may_read:(fun id -> Index.doc_path idx id <> Some p)
                (fun id -> if Index.doc_path idx id = Some p then None else Some "w"))
        ops;
      List.for_all
        (fun dir ->
          let scan =
            Fileset.filter
              (fun id ->
                match Index.doc_path idx id with
                | Some p -> Hac_vfs.Vpath.is_prefix ~prefix:dir p
                | None -> false)
              (Index.universe idx)
          in
          Fileset.equal scan (Index.doc_ids_under idx dir))
        (Array.to_list dirs))

(* -- search verification ------------------------------------------------------------ *)

let test_search_word () =
  let idx = make_index () in
  let r = reader_of docs in
  check_list "word" (ids idx [ "/b.txt" ]) (Fileset.elements (Search.search_word idx r "lazy"));
  check_list "case folded" (ids idx [ "/b.txt" ])
    (Fileset.elements (Search.search_word idx r "LAZY"));
  check_list "missing" [] (Fileset.elements (Search.search_word idx r "zebra"))

let test_search_phrase () =
  let idx = make_index () in
  let r = reader_of docs in
  check_list "phrase present" (ids idx [ "/a.txt" ])
    (Fileset.elements (Search.search_phrase idx r [ "quick"; "brown" ]));
  check_list "words present but not adjacent" []
    (Fileset.elements (Search.search_phrase idx r [ "brown"; "quick" ]));
  check_list "single word phrase" (ids idx [ "/b.txt" ])
    (Fileset.elements (Search.search_phrase idx r [ "lazy" ]));
  check_list "empty phrase" [] (Fileset.elements (Search.search_phrase idx r []))

let test_search_approx () =
  let idx = make_index () in
  let r = reader_of docs in
  let got = Search.search_approx idx r ~word:"quik" ~errors:1 in
  check_list "quik~1 = quick docs" (ids idx [ "/a.txt"; "/c.txt" ]) (Fileset.elements got)

let test_search_substring () =
  let idx = make_index () in
  let r = reader_of docs in
  check_list "raw substring" (ids idx [ "/a.txt" ])
    (Fileset.elements (Search.search_substring idx r "own fox"))

let test_matching_lines () =
  let idx = Index.create ~stem:false () in
  let content = "alpha one\nbeta two\nalpha three\n" in
  ignore (Index.add_document idx ~path:"/m.txt" ~content);
  let r = reader_of [ ("/m.txt", content) ] in
  Alcotest.(check (list (pair int string)))
    "alpha lines"
    [ (1, "alpha one"); (3, "alpha three") ]
    (Search.matching_lines idx r ~path:"/m.txt" ~query_words:[ "alpha" ])

let test_reader_failure_filters () =
  let idx = make_index () in
  let no_reader = { Search.read = (fun _ -> None); may_read = (fun _ -> false) } in
  check_list "unreadable docs drop out" []
    (Fileset.elements (Search.search_word idx no_reader "quick"))

(* -- per-pass caches ------------------------------------------------------------------- *)

(* A reader over [docs] plus the number of times each path was read. *)
let counting_reader docs =
  let reads = Hashtbl.create 8 in
  let read path =
    Hashtbl.replace reads path (1 + Option.value ~default:0 (Hashtbl.find_opt reads path));
    List.assoc_opt path docs
  in
  ( { Search.read; may_read = (fun path -> List.mem_assoc path docs) },
    fun path -> Option.value ~default:0 (Hashtbl.find_opt reads path) )

let test_doc_cache_reads_once () =
  let idx = make_index () in
  let r, reads = counting_reader docs in
  let cache = Search.doc_cache () in
  (* Phrase terms read every candidate: "quick brown" reads /a.txt, "quick
     quick" reads /a.txt and /c.txt.  Through one cache each is read once. *)
  let p1 = Search.search_phrase ~cache idx r [ "quick"; "brown" ] in
  let p2 = Search.search_phrase ~cache idx r [ "quick"; "quick" ] in
  let p1' = Search.search_phrase ~cache idx r [ "quick"; "brown" ] in
  check_list "first phrase" (ids idx [ "/a.txt" ]) (Fileset.elements p1);
  check_list "second phrase" (ids idx [ "/c.txt" ]) (Fileset.elements p2);
  check_bool "repeat agrees" true (Fileset.equal p1 p1');
  check_int "a read once" 1 (reads "/a.txt");
  check_int "c read once" 1 (reads "/c.txt");
  let st = Search.doc_cache_stats cache in
  check_int "misses" 2 st.Search.cache_misses;
  check_int "hits" 2 st.cache_hits;
  check_int "docs" 2 st.cache_docs;
  check_int "bytes"
    (String.length (List.assoc "/a.txt" docs) + String.length (List.assoc "/c.txt" docs))
    st.cache_bytes;
  (* Uncached, the same search reads the document again. *)
  ignore (Search.search_phrase idx r [ "quick"; "brown" ]);
  check_int "uncached read" 2 (reads "/a.txt")

let test_doc_cache_budget () =
  let r, reads = counting_reader docs in
  (* Room for /a.txt (25 bytes) but not for /d.txt (24 more). *)
  let cache = Search.doc_cache ~max_bytes:30 () in
  let content p = Search.cached_content cache r p in
  Alcotest.(check (option string)) "a cached" (List.assoc_opt "/a.txt" docs) (content "/a.txt");
  Alcotest.(check (option string)) "d served" (List.assoc_opt "/d.txt" docs) (content "/d.txt");
  Alcotest.(check (option string)) "d served again" (List.assoc_opt "/d.txt" docs) (content "/d.txt");
  ignore (content "/a.txt");
  check_int "a read once" 1 (reads "/a.txt");
  check_int "d read per lookup" 2 (reads "/d.txt");
  let st = Search.doc_cache_stats cache in
  check_int "uncached" 2 st.Search.cache_uncached;
  check_int "docs" 1 st.cache_docs;
  check_int "bytes within budget" 25 st.cache_bytes;
  check_int "hits" 1 st.cache_hits

let test_doc_cache_unreadable () =
  let r, reads = counting_reader docs in
  let cache = Search.doc_cache () in
  Alcotest.(check (option string)) "unreadable" None (Search.cached_content cache r "/gone.txt");
  Alcotest.(check (option string)) "still unreadable" None
    (Search.cached_content cache r "/gone.txt");
  check_int "read once" 1 (reads "/gone.txt");
  let st = Search.doc_cache_stats cache in
  check_int "cached as a doc" 1 st.Search.cache_docs;
  check_int "costs no bytes" 0 st.cache_bytes;
  check_int "hit" 1 st.cache_hits

(* The term memo serves unrestricted term results once per pass; a
   restricted evaluation bypasses it, and a scope hint keys it apart. *)
let test_term_memo () =
  let idx = make_index () in
  let r = reader_of docs in
  let attr ?probe:_ ?within:_ _ _ = Fileset.empty in
  let dirref ?within:_ _ = Fileset.empty in
  let memo = Search.term_memo () in
  let ev = Search.evaluator ~memo idx r ~attr ~dirref in
  let q = Hac_query.Parser.parse "quick OR lazy" in
  let expect = Search.eval idx r ~attr ~dirref q in
  check_list "answer" (ids idx [ "/a.txt"; "/b.txt"; "/c.txt" ]) (Fileset.elements expect);
  let stats () =
    let s = Search.term_memo_stats memo in
    (s.Search.memo_hits, s.memo_misses, s.memo_entries)
  in
  let triple = Alcotest.(check (triple int int int)) in
  check_bool "first" true (Fileset.equal expect (Search.eval_with ev q));
  triple "two terms computed" (0, 2, 2) (stats ());
  check_bool "second" true (Fileset.equal expect (Search.eval_with ev q));
  triple "both served" (2, 2, 2) (stats ());
  let only_a = Fileset.of_list (ids idx [ "/a.txt" ]) in
  check_bool "restricted" true
    (Fileset.equal only_a (Search.eval_with ev ~restrict_to:only_a q));
  triple "restriction bypasses the memo" (2, 2, 2) (stats ());
  check_bool "under a hint" true (Fileset.equal expect (Search.eval_with ev ~under:"/" q));
  triple "hinted terms keyed apart" (2, 4, 4) (stats ())

(* -- properties ----------------------------------------------------------------------- *)

(* Verified search must be invariant under block size: block granularity is
   a performance knob, not a semantics knob.  The coarse view may only widen
   candidates, never drop one. *)
let prop_block_size_invariant =
  let doc_gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (map
           (fun ws -> String.concat " " ws)
           (list_size (int_range 1 12)
              (map
                 (fun cs -> String.concat "" (List.map (String.make 1) cs))
                 (list_size (int_range 2 5) (char_range 'a' 'c'))))))
  in
  QCheck.Test.make ~name:"verified search invariant under block size" ~count:100
    (QCheck.make doc_gen ~print:(fun ds -> String.concat " | " ds))
    (fun contents ->
      let paths = List.mapi (fun i c -> (Printf.sprintf "/d%d" i, c)) contents in
      let build bs =
        let idx = Index.create ~block_size:bs ~stem:false () in
        List.iter (fun (p, c) -> ignore (Index.add_document idx ~path:p ~content:c)) paths;
        idx
      in
      let i1 = build 1 and i3 = build 3 in
      let r = reader_of paths in
      List.for_all
        (fun w ->
          Fileset.subset (Index.candidate_docs i1 w) (Index.candidate_docs i3 w)
          && Fileset.equal (Search.search_word i1 r w) (Search.search_word i3 r w))
        [ "aa"; "ab"; "ba"; "cc"; "abc" ])

(* -- compaction oracle ------------------------------------------------------------

   A compaction re-tokenizes only the drifted documents, so what it leaves
   must equal what a fresh index builds from the same live bodies: every
   term's postings (as paths: ids differ), the scoped answers under every
   directory, and a term table holding the live vocabulary only.  The
   model file system holds each indexed path's current body; [Touch]
   changes one behind the index's back and reports it dirty, [Unreadable]
   makes the next compaction's reader fail for the file at a path.  Paths
   sit at four depths, so renames move documents between scopes. *)

let compaction_paths =
  [| "/f.txt"; "/a/g.txt"; "/a/b/h.txt"; "/a/b/c/i.txt"; "/d/e/j.txt"; "/d/k.txt" |]

let compaction_words = [| "red"; "green"; "blue"; "cyan"; "tan"; "gray" |]

let compaction_dirs = [ "/a"; "/a/b"; "/a/b/c"; "/d"; "/d/e" ]

type compaction_op =
  | Write of int * int list (* indexed now: added, or updated in place *)
  | Touch of int * int list (* body changed, path reported dirty *)
  | Remove of int
  | Rename of int * int
  | Unreadable of int
  | Compact

let pp_compaction_op =
  let body ws = String.concat ";" (List.map string_of_int ws) in
  function
  | Write (p, ws) -> Printf.sprintf "Write(%d,[%s])" p (body ws)
  | Touch (p, ws) -> Printf.sprintf "Touch(%d,[%s])" p (body ws)
  | Remove p -> Printf.sprintf "Remove(%d)" p
  | Rename (a, b) -> Printf.sprintf "Rename(%d,%d)" a b
  | Unreadable p -> Printf.sprintf "Unreadable(%d)" p
  | Compact -> "Compact"

let gen_compaction_op =
  let path = QCheck.Gen.int_bound (Array.length compaction_paths - 1) in
  let body =
    QCheck.Gen.(list_size (int_range 1 4) (int_bound (Array.length compaction_words - 1)))
  in
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun p ws -> Write (p, ws)) path body);
        (2, map2 (fun p ws -> Touch (p, ws)) path body);
        (2, map (fun p -> Remove p) path);
        (2, map2 (fun a b -> Rename (a, b)) path path);
        (1, map (fun p -> Unreadable p) path);
        (2, return Compact);
      ])

(* Every term with live postings, as (key, sorted paths). *)
let terms_by_path idx =
  let acc = ref [] in
  Index.iter_cas_terms idx (fun key ids ->
      let paths = List.filter_map (Index.doc_path idx) (Fileset.elements ids) in
      acc := (key, List.sort compare paths) :: !acc);
  List.sort compare !acc

let paths_of idx s =
  List.sort compare (List.filter_map (Index.doc_path idx) (Fileset.elements s))

let prop_compaction_oracle =
  QCheck.Test.make ~name:"a compaction leaves what a fresh index builds" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) gen_compaction_op)
       ~print:(fun ops -> String.concat "; " (List.map pp_compaction_op ops)))
    (fun ops ->
      let idx = Index.create ~stem:false () in
      let bodies = Hashtbl.create 8 and unreadable = Hashtbl.create 4 in
      let body ws = String.concat " " (List.map (fun w -> compaction_words.(w)) ws) in
      let check_compacted () =
        let fresh = Index.create ~stem:false () in
        Index.iter_live idx (fun _ path ->
            ignore (Index.add_document fresh ~path ~content:(Hashtbl.find bodies path)));
        if terms_by_path idx <> terms_by_path fresh then
          QCheck.Test.fail_report "term postings differ from a fresh index";
        if Index.vocabulary idx <> Index.vocabulary fresh then
          QCheck.Test.fail_report "the term table holds more than the live vocabulary";
        if Index.word_count idx <> Index.vocabulary_size fresh then
          QCheck.Test.fail_reportf "word_count %d, live vocabulary %d" (Index.word_count idx)
            (Index.vocabulary_size fresh);
        if not (Fileset.is_empty (Index.unvouched idx (Index.universe idx))) then
          QCheck.Test.fail_report "a document is unvouched after the compaction";
        Array.iter
          (fun w ->
            List.iter
              (fun under ->
                if
                  paths_of idx (Index.candidate_docs ~under idx w)
                  <> paths_of fresh (Index.candidate_docs ~under fresh w)
                then QCheck.Test.fail_reportf "%s under %s differs" w under)
              compaction_dirs)
          compaction_words
      in
      List.iter
        (function
          | Write (p, ws) ->
              let path = compaction_paths.(p) and content = body ws in
              Hashtbl.replace bodies path content;
              ignore (Index.update_document idx ~path ~content)
          | Touch (p, ws) ->
              let path = compaction_paths.(p) in
              if Hashtbl.mem bodies path then begin
                Hashtbl.replace bodies path (body ws);
                Index.note_dirty idx path
              end
          | Remove p ->
              let path = compaction_paths.(p) in
              Hashtbl.remove bodies path;
              Hashtbl.remove unreadable path;
              Index.remove_path idx path
          | Rename (a, b) ->
              let src = compaction_paths.(a) and dst = compaction_paths.(b) in
              if src <> dst && Hashtbl.mem bodies src then begin
                Hashtbl.replace bodies dst (Hashtbl.find bodies src);
                Hashtbl.remove bodies src;
                (* The unreadable file, if any, is the one that moved. *)
                if Hashtbl.mem unreadable src then Hashtbl.replace unreadable dst ()
                else Hashtbl.remove unreadable dst;
                Hashtbl.remove unreadable src;
                Index.rename_path idx ~old_path:src ~new_path:dst
              end
          | Unreadable p -> Hashtbl.replace unreadable compaction_paths.(p) ()
          | Compact ->
              let body_of id =
                match Index.doc_path idx id with
                | Some path when not (Hashtbl.mem unreadable path) -> Hashtbl.find_opt bodies path
                | Some _ | None -> None
              in
              Index.rebuild idx ~may_read:(fun id -> Option.is_some (body_of id)) body_of;
              (* The compaction dropped every unreadable file. *)
              Hashtbl.iter (fun path () -> Hashtbl.remove bodies path) unreadable;
              Hashtbl.reset unreadable;
              check_compacted ())
        ops;
      true)

let () =
  Alcotest.run "index"
    [
      ( "documents",
        [
          Alcotest.test_case "doc table" `Quick test_doc_table;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename clobbers" `Quick test_rename_clobbers;
          Alcotest.test_case "update keeps id" `Quick test_update_same_id;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "block_size=1 precise" `Quick test_candidates_block1;
          Alcotest.test_case "coarse blocks + verification" `Quick test_candidates_coarse_blocks;
          Alcotest.test_case "dead docs excluded" `Quick test_candidates_exclude_dead;
          Alcotest.test_case "stemming" `Quick test_stemming_index;
          Alcotest.test_case "approximate" `Quick test_candidates_approx;
          Alcotest.test_case "vocabulary and bytes" `Quick test_vocabulary_and_bytes;
          Alcotest.test_case "rebuild reclaims stale bits" `Quick test_rebuild_reclaims;
        ] );
      ( "directories",
        [
          Alcotest.test_case "doc_ids_under" `Quick test_doc_ids_under;
          Alcotest.test_case "rebuild drops unreadable" `Quick test_rebuild_drops_unreadable;
        ] );
      ( "search",
        [
          Alcotest.test_case "word" `Quick test_search_word;
          Alcotest.test_case "phrase" `Quick test_search_phrase;
          Alcotest.test_case "approx" `Quick test_search_approx;
          Alcotest.test_case "substring" `Quick test_search_substring;
          Alcotest.test_case "matching lines" `Quick test_matching_lines;
          Alcotest.test_case "unreadable filtered" `Quick test_reader_failure_filters;
        ] );
      ( "pass caches",
        [
          Alcotest.test_case "doc cache reads once" `Quick test_doc_cache_reads_once;
          Alcotest.test_case "doc cache byte budget" `Quick test_doc_cache_budget;
          Alcotest.test_case "doc cache keeps unreadable" `Quick test_doc_cache_unreadable;
          Alcotest.test_case "term memo" `Quick test_term_memo;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_block_size_invariant;
            prop_doc_ids_under_matches_scan;
            prop_compaction_oracle;
          ] );
    ]
