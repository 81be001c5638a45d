(* The index's correctness claim is equivalence under granularity: with
   the Glimpse block view widening every candidate set to 8-document blocks,
   every externally observable result — links, prohibitions, persisted
   metadata — must be byte-identical to the doc-granular default, over
   arbitrary interleavings of content and structural mutations.  The block
   view verifies every candidate while the doc-granular engine trusts the
   postings the index vouches for, so the twin also checks that trust, for
   every term kind that reads postings.  Differential twin runs check that
   claim under pinned seeds and a QCheck sweep; Index-level units pin the
   [?under] superset contract through renames and removals, and a model
   check pins the posting arrays themselves. *)

module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Fileset = Hac_bitset.Fileset
module Index = Hac_index.Index
module Search = Hac_index.Search
module Cas = Hac_index.Cas

(* Files at two depths, and semantic dirs both at the root and below a
   plain directory so scoped evaluations really run with an [?under]
   hint. *)
let files =
  [| "/d0/a.txt"; "/d0/b.txt"; "/nest/d1/c.txt"; "/nest/d1/d.txt"; "/nest/d2/e.txt" |]

let words = [| "red"; "green"; "blue"; "cyan" |]
let sem_dirs = [| "/s0"; "/nest/s1"; "/nest/s2" |]

(* One query per term kind: words (trusted), boolean shapes, a directory
   reference, an approximate term (trusted), a regex and a phrase (always
   verified). *)
let queries =
  [|
    "red";
    "green OR blue";
    "blue AND NOT cyan";
    "{/s0} AND green";
    "red AND blue";
    "~gren";
    "/bl.e t/ OR cyan";
    "\"red text\" OR NOT blue";
  |]

let n_queries = Array.length queries

(* The queries with neither NOT nor a directory reference: a fresh
   evaluation of one only grows with the candidate sets, so the block view's
   answer contains the doc-granular one even while a document is dirty (see
   [twin_run]). *)
let probes = [| 0; 1; 4; 5; 6 |]

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
        (3, map2 (fun d q -> Smkdir (d, q)) (int_bound 2) (int_bound (n_queries - 1)));
        (2, map2 (fun d q -> Schquery (d, q)) (int_bound 2) (int_bound (n_queries - 1)));
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
   byte-identical after every settle.

   [?unsettled] re-evaluates every semantic directory at the end of every
   batch, before the settle, so the batch's writes are still dirty when the
   queries run.  Inside that window
   the engines may differ legitimately: a block widens onto a dirty document
   whose stale postings lack the term while its new body has it, and
   verification accepts it (a changed result also moves the result cache's
   generation, so later directories may re-evaluate on B and hit the cache
   on A).  They may not differ the other way on a fresh evaluation — a
   document the block view verified away must not survive on the
   doc-granular engine's stale postings — so each [probes] query, evaluated
   anew in [/probe], must link on A only what it links on B.  The settle
   re-evaluates every dirty document, so both engines must agree again
   after it, metadata included. *)
let twin_run ?(unsettled = false) ~fail ops =
  let a = fresh ~block_size:1 and b = fresh ~block_size:8 in
  (* A query change misses the result cache, so each probe is evaluated. *)
  let probe t q =
    (try
       if Hac.is_semantic t "/probe" then Hac.schquery t "/probe" queries.(q)
       else Hac.smkdir t "/probe" queries.(q)
     with Hac_vfs.Errno.Error _ | Hac.Hac_error _ -> ());
    List.map (fun l -> Link.target_key l.Link.target) (Hac.links t "/probe")
  in
  List.iteri
    (fun i batch ->
      let batch =
        if unsettled then
          batch
          @ List.init (Array.length sem_dirs) (fun d -> Schquery (d, (i + d) mod n_queries))
        else batch
      in
      List.iter
        (fun op ->
          apply a op;
          apply b op)
        batch;
      if unsettled then
        Array.iter
          (fun q ->
            let on_a = probe a q and on_b = probe b q in
            List.iter
              (fun x ->
                if not (List.mem x on_b) then
                  fail
                    (Printf.sprintf "batch %d, before settle: %s links %s on A only" i
                       queries.(q) x))
              on_a)
          probes;
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
let seeded_twins ?unsettled () =
  List.iter
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let ops =
        QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op)
      in
      let a, b = twin_run ?unsettled ops ~fail:Alcotest.fail in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: final state" seed)
        (observe b) (observe a))
    [ 1; 42; 1999 ]

(* Dirty documents at every evaluation: writes are never settled before the
   query that follows them, so the doc-granular engine must not trust the
   postings of a file that changed since it was indexed. *)
let prop_unsettled_writes =
  QCheck.Test.make ~name:"block-8 equals doc-granular with unsettled writes" ~count:40 arb_ops
    (fun ops ->
      ignore (twin_run ~unsettled:true ops ~fail:(fun msg -> QCheck.Test.fail_report msg));
      true)

(* -- Index-level scoped lookups ---------------------------------------------

   [?under] is a pure pruning hint: after intersecting with the subtree's
   documents, a scoped verified search must equal the unscoped one.  The
   units walk that contract through the cases where the postings and the
   directory sets can disagree — renames, which move a document between
   scopes without touching its postings, removals, documents several
   levels deep. *)

let mk_index docs =
  let idx = Index.create ~stem:false () in
  let contents = Hashtbl.create 16 in
  List.iter
    (fun (path, content) ->
      Hashtbl.replace contents path content;
      ignore (Index.add_document idx ~path ~content))
    docs;
  (idx, contents)

let reader contents = { Search.read = Hashtbl.find_opt contents; may_read = Hashtbl.mem contents }

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

let test_rename_crosses_scopes () =
  let idx, contents = mk_index base_docs in
  (* Move a document to another subtree: its postings stay as they were,
     and the new scope's document set must find it. *)
  let content = Hashtbl.find contents "/a/x/one.txt" in
  Index.rename_path idx ~old_path:"/a/x/one.txt" ~new_path:"/b/z/one.txt";
  Hashtbl.remove contents "/a/x/one.txt";
  Hashtbl.replace contents "/b/z/one.txt" content;
  let id = Option.get (Index.doc_of_path idx "/b/z/one.txt") in
  let under_b = Search.search_word ~under:"/b" idx (reader contents) "green" in
  Alcotest.(check bool) "found under the new scope" true (Fileset.mem under_b id);
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

(* A lookup bounded by a small [within] probes each member in the term's
   posting array.  A document renamed without a re-post keeps its
   postings, so the probe still finds it.  An AND chain whose first
   conjunct holds just that document hands it to the second as
   [within]. *)
let test_rename_then_bounded_lookup () =
  let idx, contents = mk_index (("/a/x/rare.txt", "red rare") :: base_docs) in
  let content = Hashtbl.find contents "/a/x/rare.txt" in
  Index.rename_path idx ~old_path:"/a/x/rare.txt" ~new_path:"/b/z/rare.txt";
  Hashtbl.remove contents "/a/x/rare.txt";
  Hashtbl.replace contents "/b/z/rare.txt" content;
  let id = Option.get (Index.doc_of_path idx "/b/z/rare.txt") in
  (* A posting after the last snapshot of "red" invalidates it, so the
     lookups below take the bounded path. *)
  ignore (Index.candidate_docs idx "red");
  Hashtbl.replace contents "/b/z/seven.txt" "red";
  ignore (Index.add_document idx ~path:"/b/z/seven.txt" ~content:"red");
  Alcotest.(check bool) "bounded lookup finds the renamed document" true
    (Fileset.mem (Index.candidate_docs ~within:(Fileset.singleton id) idx "red") id);
  let q = Hac_query.Parser.parse "rare AND red" in
  let result =
    Search.eval idx (reader contents)
      ~attr:(fun ?probe:_ ?within:_ _ _ -> Fileset.empty)
      ~dirref:(fun ?within:_ _ -> Fileset.empty)
      q
  in
  Alcotest.(check (list int)) "AND chain keeps it" [ id ] (Fileset.elements result)

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
  (* A scoped cost counts the scope's documents in the posting array, or
     is the array's length, so it is bounded by the unscoped estimate. *)
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

(* -- Posting-array model ------------------------------------------------------

   Random add, in-place update, remove, rename and compaction sequences over
   documents at three depths, each step checked against a naive model: the
   documents that posted each word since the last compaction.  Every
   term's array must be that set, strictly increasing; and every lookup —
   unbounded, bounded by the step's random [within], scoped [~under] every
   directory, and both — must be it ∩ the live documents ∩ the bound.  The
   bounded lookups run first: after a posting the term's snapshot is
   stale, and a [within] smaller than the array is answered by probing the
   array, which leaves the snapshot stale; the unbounded lookup then fills
   it, and the last bounded lookup reads it.  An in-place update of an
   older document inserts its id mid-array. *)

let model_paths = [| "/f.txt"; "/g.txt"; "/a/h.txt"; "/a/i.txt"; "/a/b/j.txt"; "/c/d/k.txt" |]

let model_dirs = [ "/"; "/a"; "/a/b"; "/c"; "/c/d"; "/z" ]

let model_words = [| "red"; "green"; "blue"; "cyan"; "tan" |]

type model_op =
  | Post of int * int list (* added, or updated in place *)
  | Unpost of int
  | Rename of int * int
  | Compact

let pp_model_step (op, within) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let op =
    match op with
    | Post (p, ws) -> Printf.sprintf "Post(%d,[%s])" p (ints ws)
    | Unpost p -> Printf.sprintf "Unpost(%d)" p
    | Rename (a, b) -> Printf.sprintf "Rename(%d,%d)" a b
    | Compact -> "Compact"
  in
  Printf.sprintf "%s within [%s]" op (ints within)

(* An operation, then the [within] bound its checks use, drawn from the id
   space the operations reach. *)
let gen_model_step =
  let path = QCheck.Gen.int_bound (Array.length model_paths - 1) in
  let body = QCheck.Gen.(list_size (int_range 1 4) (int_bound (Array.length model_words - 1))) in
  QCheck.Gen.(
    pair
      (frequency
         [
           (6, map2 (fun p ws -> Post (p, ws)) path body);
           (2, map (fun p -> Unpost p) path);
           (2, map2 (fun a b -> Rename (a, b)) path path);
           (1, return Compact);
         ])
      (list_size (int_range 0 4) (int_bound 24)))

let model_run ~fail steps =
  let idx = Index.create ~stem:false () in
  let bodies = Hashtbl.create 8 (* live path -> words of its body *) in
  let posted = Hashtbl.create 8 (* word -> ids posted since the last compaction *) in
  let post id ws =
    List.iter
      (fun w -> Hashtbl.replace posted w (id :: Option.value ~default:[] (Hashtbl.find_opt posted w)))
      ws
  in
  let check step within =
    let live = Index.universe idx in
    let under dir =
      Fileset.filter
        (fun id ->
          match Index.doc_path idx id with
          | Some p -> Hac_vfs.Vpath.is_prefix ~prefix:dir p
          | None -> false)
        live
    in
    let w_set = Fileset.of_list within in
    Array.iter
      (fun w ->
        let model = Fileset.of_list (Option.value ~default:[] (Hashtbl.find_opt posted w)) in
        let arr = Cas.word_postings (Index.cas idx) w in
        Array.iteri
          (fun i id ->
            if i > 0 && arr.(i - 1) >= id then
              fail (Printf.sprintf "step %d: %s's array is not strictly increasing" step w))
          arr;
        if not (Fileset.equal (Fileset.of_list (Array.to_list arr)) model) then
          fail (Printf.sprintf "step %d: %s's array differs from the model" step w);
        let expect bound = Fileset.inter (Fileset.inter model live) bound in
        let agree what got want =
          if not (Fileset.equal got want) then
            fail
              (Printf.sprintf "step %d: %s %s: %s, model %s" step w what
                 (Format.asprintf "%a" Fileset.pp got)
                 (Format.asprintf "%a" Fileset.pp want))
        in
        agree "within" (Index.candidate_docs ~within:w_set idx w) (expect w_set);
        List.iter
          (fun dir ->
            agree ("within, under " ^ dir)
              (Index.candidate_docs ~within:w_set ~under:dir idx w)
              (expect (Fileset.inter w_set (under dir))))
          model_dirs;
        agree "unbounded" (Index.candidate_docs idx w) (expect live);
        List.iter
          (fun dir ->
            let want = expect (under dir) in
            agree ("under " ^ dir) (Index.candidate_docs ~under:dir idx w) want;
            (* The planner orders conjunctions by these costs: they must
               never undercount. *)
            if Index.term_cost ~under:dir idx w < Fileset.cardinal want then
              fail (Printf.sprintf "step %d: %s under %s: cost below the answer" step w dir))
          model_dirs;
        agree "within, snapshot" (Index.candidate_docs ~within:w_set idx w) (expect w_set))
      model_words
  in
  List.iteri
    (fun step (op, within) ->
      (match op with
      | Post (p, ws) ->
          let path = model_paths.(p) and ws = List.map (fun w -> model_words.(w)) ws in
          Hashtbl.replace bodies path ws;
          post (Index.update_document idx ~path ~content:(String.concat " " ws)) ws
      | Unpost p ->
          Hashtbl.remove bodies model_paths.(p);
          Index.remove_path idx model_paths.(p)
      | Rename (a, b) ->
          let src = model_paths.(a) and dst = model_paths.(b) in
          if src <> dst && Hashtbl.mem bodies src then begin
            Hashtbl.replace bodies dst (Hashtbl.find bodies src);
            Hashtbl.remove bodies src;
            Index.rename_path idx ~old_path:src ~new_path:dst
          end
      | Compact ->
          let body id = Option.bind (Index.doc_path idx id) (Hashtbl.find_opt bodies) in
          Index.rebuild idx ~may_read:(fun _ -> true) (fun id ->
              Option.map (String.concat " ") (body id));
          Hashtbl.reset posted;
          Index.iter_live idx (fun id path -> post id (Hashtbl.find bodies path)));
      check step within)
    steps

let prop_posting_array_model =
  QCheck.Test.make ~name:"posting arrays equal the posted-since-compaction model" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) gen_model_step)
       ~print:(fun steps -> String.concat "; " (List.map pp_model_step steps)))
    (fun steps ->
      model_run steps ~fail:QCheck.Test.fail_report;
      true)

let seeded_model () =
  List.iter
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      model_run ~fail:Alcotest.fail
        (QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_model_step)))
    [ 1; 42; 1999 ]

(* -- Exact postings ---------------------------------------------------------------

   At block size 1 the posting of an up-to-date document is the verdict, so
   word and approximate searches skip the body read; each unit below makes
   a posting stale one way and checks that the search still answers from
   the current body. *)

let words_of idx contents w = Fileset.elements (Search.search_word idx (reader contents) w)

let test_in_place_update_verified () =
  let idx, contents = mk_index [ ("/a/one.txt", "red green"); ("/a/two.txt", "red") ] in
  let one = Option.get (Index.doc_of_path idx "/a/one.txt") in
  Hashtbl.replace contents "/a/one.txt" "green";
  ignore (Index.update_document idx ~path:"/a/one.txt" ~content:"green");
  Alcotest.(check bool) "stale posting still a candidate" true
    (Fileset.mem (Index.candidate_docs idx "red") one);
  Alcotest.(check bool) "but unvouched" true
    (Fileset.mem (Index.unvouched idx (Index.candidate_docs idx "red")) one);
  Alcotest.(check (list int)) "red: only two.txt"
    [ Option.get (Index.doc_of_path idx "/a/two.txt") ]
    (words_of idx contents "red");
  Alcotest.(check (list int)) "approximate term verified too"
    [ Option.get (Index.doc_of_path idx "/a/two.txt") ]
    (Fileset.elements (Search.search_approx idx (reader contents) ~word:"rad" ~errors:1));
  (* A rebuild drops the stale posting and vouches again. *)
  Index.rebuild idx ~may_read:(fun _ -> true) (fun id ->
      Option.bind (Index.doc_path idx id) (Hashtbl.find_opt contents));
  Alcotest.(check int) "nothing unvouched after rebuild" 0
    (Fileset.cardinal (Index.unvouched idx (Index.universe idx)))

let test_dirty_verified () =
  let idx, contents = mk_index [ ("/a/one.txt", "red"); ("/a/two.txt", "red") ] in
  (* The file changed and nobody reindexed it yet: its postings still say
     red, its body says green. *)
  Hashtbl.replace contents "/a/one.txt" "green";
  Index.note_dirty idx "/a/one.txt";
  Alcotest.(check (list int)) "dirty body decides"
    [ Option.get (Index.doc_of_path idx "/a/two.txt") ]
    (words_of idx contents "red");
  ignore (Index.update_document idx ~path:"/a/one.txt" ~content:"green");
  Alcotest.(check (list int)) "reindexed"
    [ Option.get (Index.doc_of_path idx "/a/one.txt") ]
    (words_of idx contents "green")

let test_block_and_cold_vouch_for_nothing () =
  let docs = [ ("/a/one.txt", "red"); ("/a/two.txt", "blue") ] in
  let blocks = Index.create ~stem:false ~block_size:4 () in
  List.iter (fun (path, content) -> ignore (Index.add_document blocks ~path ~content)) docs;
  Alcotest.(check int) "block view: every candidate unvouched" 2
    (Fileset.cardinal (Index.unvouched blocks (Index.universe blocks)));
  let idx, _ = mk_index docs in
  Alcotest.(check int) "fresh doc-granular index vouches for all" 0
    (Fileset.cardinal (Index.unvouched idx (Index.universe idx)));
  Index.set_cold idx ~lookup:(fun _ -> Fileset.empty) ~cost:(fun _ -> 0) ~words:(fun () -> [])
    ~term_count:(fun () -> 0);
  Alcotest.(check int) "cold provider: every candidate unvouched" 2
    (Fileset.cardinal (Index.unvouched idx (Index.universe idx)))

(* Attribute postings are lowercased at indexing; verification must
   normalize the same way, or a trusted and a verified candidate carrying
   the same mixed-case pair would disagree. *)
let test_attr_trusted_equals_verified () =
  let td =
    {
      Hac_index.Transducer.td_name = "caps";
      extract = (fun ~path:_ ~content:_ -> [ ("Author", "Knuth") ]);
    }
  in
  let idx = Index.create ~stem:false ~transducer:td () in
  let contents = Hashtbl.create 4 in
  List.iter
    (fun path ->
      Hashtbl.replace contents path "text";
      ignore (Index.add_document idx ~path ~content:"text"))
    [ "/a/one.txt"; "/a/two.txt" ];
  (* Rewriting one.txt in place leaves it unvouched: it is verified, two.txt
     is trusted. *)
  ignore (Index.update_document idx ~path:"/a/one.txt" ~content:"text");
  Alcotest.(check int) "both match" 2
    (Fileset.cardinal (Search.search_attr idx (reader contents) "author" "knuth"))

(* The same rule through the facade: a write that is not settled yet must
   not match on the postings of the body it replaced. *)
let test_unsettled_write_through_hac () =
  let t = fresh ~block_size:1 in
  let names dir = List.map (fun l -> l.Link.name) (Hac.links t dir) in
  Hac.write_file t "/d0/a.txt" "some red text\n";
  Hac.settle t;
  Hac.write_file t "/d0/a.txt" "some green text\n";
  Hac.smkdir t "/s0" "red";
  Alcotest.(check (list string)) "no stale match" [] (names "/s0");
  Hac.smkdir t "/s1" "green";
  Alcotest.(check (list string)) "the new body is not indexed yet" [] (names "/s1");
  Hac.settle t;
  Alcotest.(check (list string)) "settled" [ "a.txt" ] (names "/s1")

(* A rebuild re-reads every body and vouches again, even for a path a
   settle scoped elsewhere leaves dirty; the next write to that path must
   still reach the index.  Here /b/new.txt is dirty before the rename
   lands an indexed document on it, and the removal under /a pushes the
   stale ratio over the rebuild threshold. *)
let test_rewrite_after_rebuild_verified () =
  let t = Hac.create ~stem:false () in
  let names dir = List.map (fun l -> l.Link.name) (Hac.links t dir) in
  List.iter (Hac.mkdir_p t) [ "/a"; "/b" ];
  Hac.write_file t "/a/f.txt" "red";
  Hac.write_file t "/a/g.txt" "x";
  Hac.settle t;
  Hac.write_file t "/b/new.txt" "tmp";
  Hac.rename t ~src:"/a/f.txt" ~dst:"/b/new.txt";
  Hac.unlink t "/a/g.txt";
  ignore (Hac.reindex t ~under:"/a" ());
  Hac.write_file t "/b/new.txt" "green";
  Hac.smkdir t "/s" "red";
  Alcotest.(check (list string)) "no stale match" [] (names "/s")

(* A write through a descriptor opened on a semantic directory's link
   changes the linked file, and the index must hear of it under that
   file's path, or its old postings would still be trusted. *)
let test_write_through_link_descriptor () =
  let t = fresh ~block_size:1 in
  let names dir = List.map (fun l -> l.Link.name) (Hac.links t dir) in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.settle t;
  Hac.smkdir t "/s0" "red";
  Alcotest.(check (list string)) "linked" [ "a.txt" ] (names "/s0");
  let fds = Hac_vfs.Fd_table.create (Hac.fs t) in
  let fd = Hac_vfs.Fd_table.openfile fds Hac_vfs.Fd_table.Write_only "/s0/a.txt" in
  ignore (Hac_vfs.Fd_table.write fds fd "tan");
  Hac_vfs.Fd_table.close fds fd;
  Alcotest.(check string) "the linked file changed" "tan" (Fs.read_file (Hac.fs t) "/d0/a.txt");
  Hac.smkdir t "/s1" "red";
  Alcotest.(check (list string)) "old word no longer matches" [] (names "/s1")

(* Changes addressed through a symbolic link to a directory are announced
   under the link's path; the index must still hear of them under the
   physical paths it knows.  Here x.txt is removed and recreated and y.txt
   is replaced by a rename, both through /alias. *)
let test_changes_through_directory_symlink () =
  let t = fresh ~block_size:1 in
  let names dir = List.sort compare (List.map (fun l -> l.Link.name) (Hac.links t dir)) in
  Hac.symlink t ~target:"/d0" ~link:"/alias";
  Hac.write_file t "/d0/x.txt" "red";
  Hac.write_file t "/d0/y.txt" "blue";
  Hac.write_file t "/d0/z.txt" "cyan";
  Hac.settle t;
  Hac.unlink t "/alias/x.txt";
  Hac.write_file t "/alias/x.txt" "green";
  Hac.rename t ~src:"/d0/z.txt" ~dst:"/alias/y.txt";
  Hac.smkdir t "/s0" "red OR blue";
  Alcotest.(check (list string)) "no stale match" [] (names "/s0");
  Hac.settle t;
  Hac.smkdir t "/s1" "green OR cyan";
  Alcotest.(check (list string)) "settled under the physical paths" [ "x.txt"; "y.txt" ]
    (names "/s1")

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
  Cas.note_doc cas 0;
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
          Alcotest.test_case "pinned seeds 1/42/1999" `Quick (fun () -> seeded_twins ());
          QCheck_alcotest.to_alcotest prop_blocks_equal_docs;
          Alcotest.test_case "unsettled writes, pinned seeds 1/42/1999" `Quick (fun () ->
              seeded_twins ~unsettled:true ());
          QCheck_alcotest.to_alcotest prop_unsettled_writes;
        ] );
      ( "scoped",
        [
          Alcotest.test_case "under equals unscoped" `Quick test_under_equals_unscoped;
          Alcotest.test_case "rename crosses scopes" `Quick test_rename_crosses_scopes;
          Alcotest.test_case "rename, then a bounded lookup" `Quick
            test_rename_then_bounded_lookup;
          Alcotest.test_case "removals masked" `Quick test_removed_docs_masked;
          Alcotest.test_case "scoped cost bounded" `Quick test_scoped_cost_no_larger;
        ] );
      ( "exact",
        [
          Alcotest.test_case "in-place update verified" `Quick test_in_place_update_verified;
          Alcotest.test_case "dirty document verified" `Quick test_dirty_verified;
          Alcotest.test_case "block view and cold provider" `Quick
            test_block_and_cold_vouch_for_nothing;
          Alcotest.test_case "attribute trusted equals verified" `Quick
            test_attr_trusted_equals_verified;
          Alcotest.test_case "unsettled write through the facade" `Quick
            test_unsettled_write_through_hac;
          Alcotest.test_case "rewrite after a rebuild verified" `Quick
            test_rewrite_after_rebuild_verified;
          Alcotest.test_case "write through a link's descriptor" `Quick
            test_write_through_link_descriptor;
          Alcotest.test_case "changes through a directory symlink" `Quick
            test_changes_through_directory_symlink;
        ] );
      ( "posting arrays",
        [
          Alcotest.test_case "model, pinned seeds 1/42/1999" `Quick seeded_model;
          QCheck_alcotest.to_alcotest prop_posting_array_model;
        ] );
      ("keys", [ Alcotest.test_case "term keys round-trip" `Quick test_term_keys_round_trip ]);
    ]
