(* The index's correctness claim is equivalence under granularity: with
   the Glimpse block view widening every candidate set to 8-document blocks,
   every externally observable result — links, prohibitions, persisted
   metadata — must be byte-identical to the doc-granular default, over
   arbitrary interleavings of content and structural mutations.
   Differential twin runs check that claim under pinned seeds and a QCheck
   sweep; Index-level units pin the [?under] superset contract through
   renames, removals and label drift. *)

module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Fileset = Hac_bitset.Fileset
module Index = Hac_index.Index
module Search = Hac_index.Search
module Cas = Hac_index.Cas

(* Files at two depths so posting partitions carry distinct labels, and
   semantic dirs both at the root and below a plain directory so scoped
   evaluations really run with an [?under] hint. *)
let files =
  [| "/d0/a.txt"; "/d0/b.txt"; "/nest/d1/c.txt"; "/nest/d1/d.txt"; "/nest/d2/e.txt" |]

let words = [| "red"; "green"; "blue"; "cyan" |]
let sem_dirs = [| "/s0"; "/nest/s1"; "/nest/s2" |]

let queries =
  [| "red"; "green OR blue"; "blue AND NOT cyan"; "{/s0} AND green"; "red AND blue" |]

type op =
  | Write of int * int
  | Delete of int
  | Move of int * int
  | Smkdir of int * int
  | Schquery of int * int
  | AddPerm of int * int

let pp_op = function
  | Write (f, w) -> Printf.sprintf "Write(%d,%d)" f w
  | Delete f -> Printf.sprintf "Delete(%d)" f
  | Move (a, b) -> Printf.sprintf "Move(%d,%d)" a b
  | Smkdir (d, q) -> Printf.sprintf "Smkdir(%d,%d)" d q
  | Schquery (d, q) -> Printf.sprintf "Schquery(%d,%d)" d q
  | AddPerm (d, f) -> Printf.sprintf "AddPerm(%d,%d)" d f

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun f w -> Write (f, w)) (int_bound 4) (int_bound 3));
        (2, map (fun f -> Delete f) (int_bound 4));
        (3, map2 (fun a b -> Move (a, b)) (int_bound 4) (int_bound 4));
        (3, map2 (fun d q -> Smkdir (d, q)) (int_bound 2) (int_bound 4));
        (2, map2 (fun d q -> Schquery (d, q)) (int_bound 2) (int_bound 4));
        (1, map2 (fun d f -> AddPerm (d, f)) (int_bound 2) (int_bound 4));
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 4 40) gen_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

(* Ops carry only pre-drawn data, so the same op applied to two instances
   in the same state performs the same mutation on both. *)
let apply t op =
  let ignore_errors f = try f () with Hac_vfs.Errno.Error _ | Hac.Hac_error _ -> () in
  match op with
  | Write (f, w) ->
      ignore_errors (fun () ->
          Hac.write_file t files.(f) (Printf.sprintf "some %s text\n" words.(w)))
  | Delete f -> ignore_errors (fun () -> Hac.unlink t files.(f))
  | Move (a, b) -> ignore_errors (fun () -> Hac.rename t ~src:files.(a) ~dst:files.(b))
  | Smkdir (d, q) -> ignore_errors (fun () -> Hac.smkdir t sem_dirs.(d) queries.(q))
  | Schquery (d, q) -> ignore_errors (fun () -> Hac.schquery t sem_dirs.(d) queries.(q))
  | AddPerm (d, f) ->
      ignore_errors (fun () ->
          ignore (Hac.add_permanent t ~dir:sem_dirs.(d) ~target:files.(f)))

let observe t =
  Hac.semantic_dirs t
  |> List.map (fun dir ->
         let links =
           Hac.links t dir
           |> List.map (fun l ->
                  Printf.sprintf "%s>%s%s" l.Link.name
                    (Link.target_key l.Link.target)
                    (if l.Link.cls = Link.Permanent then "!" else ""))
           |> List.sort compare
         in
         let proh = List.sort compare (Hac.prohibited t dir) in
         Printf.sprintf "%s: [%s] proh[%s]" dir (String.concat "," links)
           (String.concat "," proh))
  |> String.concat "\n"

let persisted t =
  let fs = Hac.fs t in
  match Fs.readdir fs "/.hac" with
  | exception Hac_vfs.Errno.Error _ -> ""
  | names ->
      List.sort compare names
      |> List.map (fun n ->
             let p = "/.hac/" ^ n in
             if Fs.is_file fs p then Printf.sprintf "%s:%s" n (Fs.read_file fs p) else n)
      |> String.concat "\n"

(* Five filler documents take ids 0-4, so the files under test get ids
   that straddle the first 8-document block boundary.  Without them those
   files mostly hold ids 0-4, all in block 0, and the twin would rarely see
   a block view that mishandles block edges. *)
let fresh ~block_size =
  let t = Hac.create ~stem:false ~block_size () in
  List.iter (Hac.mkdir_p t) [ "/d0"; "/nest/d1"; "/nest/d2"; "/fill" ];
  for i = 0 to 4 do
    Hac.write_file t (Printf.sprintf "/fill/f%d.txt" i) "filler\n"
  done;
  Hac.settle t;
  t

let rec batches = function
  | [] -> []
  | ops ->
      let rec take n = function
        | x :: rest when n > 0 ->
            let h, t = take (n - 1) rest in
            (x :: h, t)
        | rest -> ([], rest)
      in
      let batch, rest = take 3 ops in
      batch :: batches rest

(* Twin run: A answers terms doc-granular (the default), B through the
   8-document block view; observable state and persisted metadata must be
   byte-identical after every settle. *)
let twin_run ~fail ops =
  let a = fresh ~block_size:1 and b = fresh ~block_size:8 in
  List.iteri
    (fun i batch ->
      List.iter
        (fun op ->
          apply a op;
          apply b op)
        batch;
      Hac.settle a;
      Hac.settle b;
      if observe a <> observe b then
        fail
          (Printf.sprintf "observable divergence (batch %d):\n%s\nvs\n%s" i (observe a)
             (observe b));
      if persisted a <> persisted b then
        fail
          (Printf.sprintf "persisted divergence (batch %d):\n%s\nvs\n%s" i (persisted a)
             (persisted b)))
    (batches ops);
  (a, b)

let prop_blocks_equal_docs =
  QCheck.Test.make ~name:"block-8 settle equals the doc-granular engine" ~count:40 arb_ops
    (fun ops ->
      ignore (twin_run ops ~fail:(fun msg -> QCheck.Test.fail_report msg));
      true)

(* The pinned regression the bench claims ride on: path-scoped queries
   return byte-identical links at both granularities, at three fixed seeds,
   every run. *)
let seeded_twins () =
  List.iter
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let ops =
        QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op)
      in
      let a, b = twin_run ops ~fail:Alcotest.fail in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: final state" seed)
        (observe b) (observe a))
    [ 1; 42; 1999 ]

(* -- Index-level scoped lookups ---------------------------------------------

   [?under] is a pure pruning hint: after intersecting with the subtree's
   documents, a scoped verified search must equal the unscoped one.  The
   units walk that contract through the cases where the partition map can
   go stale — renames across labels, removals, documents deeper than the
   label depth. *)

let mk_index docs =
  let idx = Index.create ~stem:false () in
  let contents = Hashtbl.create 16 in
  List.iter
    (fun (path, content) ->
      Hashtbl.replace contents path content;
      ignore (Index.add_document idx ~path ~content))
    docs;
  (idx, contents)

let reader contents path = Hashtbl.find_opt contents path

let scoped_equal idx contents word scope =
  let sub = Index.doc_ids_under idx scope in
  let scoped =
    Fileset.inter (Search.search_word ~under:scope idx (reader contents) word) sub
  in
  let unscoped = Fileset.inter (Search.search_word idx (reader contents) word) sub in
  Fileset.equal scoped unscoped

let base_docs =
  [
    ("/a/x/one.txt", "red green");
    ("/a/x/two.txt", "red blue");
    ("/a/y/three.txt", "green");
    ("/b/z/four.txt", "red");
    ("/b/z/deep/five.txt", "red cyan");
    ("/six.txt", "red at the root");
  ]

let test_under_equals_unscoped () =
  let idx, contents = mk_index base_docs in
  List.iter
    (fun scope ->
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s" w scope)
            true
            (scoped_equal idx contents w scope))
        [ "red"; "green"; "blue"; "cyan"; "absent" ])
    [ "/a"; "/a/x"; "/b"; "/b/z"; "/b/z/deep"; "/" ]

let test_rename_crosses_labels () =
  let idx, contents = mk_index base_docs in
  (* Move a document to a different partition label: the old postings stay
     (lazily), so the relabeled drift set must keep scoped answers sound. *)
  let content = Hashtbl.find contents "/a/x/one.txt" in
  Index.rename_path idx ~old_path:"/a/x/one.txt" ~new_path:"/b/z/one.txt";
  Hashtbl.remove contents "/a/x/one.txt";
  Hashtbl.replace contents "/b/z/one.txt" content;
  let id = Option.get (Index.doc_of_path idx "/b/z/one.txt") in
  let under_b = Search.search_word ~under:"/b" idx (reader contents) "green" in
  Alcotest.(check bool) "found under the new label" true (Fileset.mem under_b id);
  List.iter
    (fun scope ->
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s after rename" w scope)
            true
            (scoped_equal idx contents w scope))
        [ "red"; "green"; "blue" ])
    [ "/a"; "/b"; "/" ]

let test_removed_docs_masked () =
  let idx, contents = mk_index base_docs in
  let id = Option.get (Index.doc_of_path idx "/b/z/four.txt") in
  Index.remove_path idx "/b/z/four.txt";
  Hashtbl.remove contents "/b/z/four.txt";
  Alcotest.(check bool)
    "dead id not a candidate" false
    (Fileset.mem (Index.candidate_docs ~under:"/b" idx "red") id);
  Alcotest.(check bool)
    "dead id not unscoped either" false
    (Fileset.mem (Index.candidate_docs idx "red") id);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "%s under /b after removal" w)
        true
        (scoped_equal idx contents w "/b"))
    [ "red"; "cyan" ]

let test_scoped_cost_no_larger () =
  let idx, _ = mk_index base_docs in
  (* Partition-scoped sums can only drop terms' partitions, never add (no
     label drift here), so the scoped estimate is bounded by the unscoped. *)
  List.iter
    (fun w ->
      let all = Index.term_cost idx w in
      List.iter
        (fun scope ->
          let scoped = Index.term_cost ~under:scope idx w in
          Alcotest.(check bool)
            (Printf.sprintf "cost(%s under %s) <= cost(%s)" w scope w)
            true (scoped <= all))
        [ "/a"; "/a/x"; "/b/z" ])
    [ "red"; "green"; "blue" ];
  (* And a scope that excludes every "green" document prices as empty. *)
  Alcotest.(check int) "green under /b costs 0" 0 (Index.term_cost ~under:"/b" idx "green")

(* -- Term keys ------------------------------------------------------------------

   The flat key encoding is what on-disk segments are addressed by, so its
   decoder must invert both encoders exactly, reject strings neither
   produces, and enumerate terms whose documents have all died. *)

let term =
  Alcotest.testable
    (fun ppf -> function
      | Cas.Word w -> Format.fprintf ppf "Word %S" w
      | Cas.Attr (a, v) -> Format.fprintf ppf "Attr (%S, %S)" a v)
    ( = )

let test_term_keys_round_trip () =
  let check_key msg expect key = Alcotest.(check (option term)) msg expect (Cas.decode_key key) in
  List.iter
    (fun w -> check_key ("word " ^ w) (Some (Cas.Word w)) (Cas.word_key w))
    [ "red"; ""; "a:b"; "w:x" ];
  List.iter
    (fun (a, v) -> check_key ("attr " ^ a) (Some (Cas.Attr (a, v))) (Cas.attr_key a v))
    [ ("author", "knuth"); ("type", ""); ("", "v"); ("k", "a\x00b") ];
  List.iter (fun junk -> check_key ("junk " ^ String.escaped junk) None junk)
    [ ""; "w"; "a"; "x:red"; "w-red"; "a:no-separator" ];
  let cas = Cas.create () in
  Cas.note_doc cas 0 ~path:"/d/a.txt";
  Cas.post_word cas 0 "red";
  Cas.post_attr cas 0 "author" "knuth";
  Cas.note_remove cas 0;
  let terms = Cas.fold_terms cas List.cons [] |> List.sort compare in
  Alcotest.(check (list term))
    "dead terms still enumerated"
    (List.sort compare [ Cas.Word "red"; Cas.Attr ("author", "knuth") ])
    terms

let () =
  Alcotest.run "cas"
    [
      ( "differential",
        [
          Alcotest.test_case "pinned seeds 1/42/1999" `Quick seeded_twins;
          QCheck_alcotest.to_alcotest prop_blocks_equal_docs;
        ] );
      ( "scoped",
        [
          Alcotest.test_case "under equals unscoped" `Quick test_under_equals_unscoped;
          Alcotest.test_case "rename crosses labels" `Quick test_rename_crosses_labels;
          Alcotest.test_case "removals masked" `Quick test_removed_docs_masked;
          Alcotest.test_case "scoped cost bounded" `Quick test_scoped_cost_no_larger;
        ] );
      ("keys", [ Alcotest.test_case "term keys round-trip" `Quick test_term_keys_round_trip ]);
    ]
