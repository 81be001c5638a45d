(* Differential property tests for incremental scope maintenance: settling
   with the dirty-delta path (Hac.reindex -> Sync.sync_delta) must land on
   exactly the fixpoint the full oracle (Hac.reindex_full -> Sync.sync_all)
   reaches, over arbitrary interleavings of content and structural
   mutations.  Plus unit tests for the invalidation rules of the result
   cache and of the per-pass evaluation caches. *)

module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Rescache = Hac_core.Rescache
module Fs = Hac_vfs.Fs
module Namespace = Hac_remote.Namespace
module Fault = Hac_fault.Fault

let files = [| "/d0/a.txt"; "/d0/b.txt"; "/d1/c.txt"; "/d1/d.txt"; "/d2/e.txt" |]
let words = [| "red"; "green"; "blue"; "cyan" |]

(* Semantic directories at the root, one under a plain subdirectory (a
   delta outside /d0 cannot reach it, so the settle skips it) and one
   nested under a semantic directory (whose scope is /s0's result, wherever
   its documents live, so it is never skipped). *)
let sem_dirs = [| "/s0"; "/s1"; "/s2"; "/d0/s3"; "/s0/n" |]

let n_dirs = Array.length sem_dirs

(* Dirref queries chain directories, so a delta settle must carry one
   directory's new result into its dependents within the same pass.  The
   regex and approximate terms run bounded by the delta. *)
let queries =
  [|
    "red";
    "green OR blue";
    "blue AND NOT cyan";
    "red OR cyan";
    "{/s0} AND green";
    "red OR {/s1}";
    "/bl.e/";
    "~gren";
  |]

let n_queries = Array.length queries

type op =
  | Write of int * int (* file slot, word slot *)
  | Delete of int
  | Move of int * int
  | Smkdir of int * int (* dir slot, query slot *)
  | Schquery of int * int
  | RemoveLink of int * int (* dir slot, rank among transient links *)
  | AddPerm of int * int (* dir slot, file slot *)
  | Unprohibit of int * int

let pp_op = function
  | Write (f, w) -> Printf.sprintf "Write(%d,%d)" f w
  | Delete f -> Printf.sprintf "Delete(%d)" f
  | Move (a, b) -> Printf.sprintf "Move(%d,%d)" a b
  | Smkdir (d, q) -> Printf.sprintf "Smkdir(%d,%d)" d q
  | Schquery (d, q) -> Printf.sprintf "Schquery(%d,%d)" d q
  | RemoveLink (d, r) -> Printf.sprintf "RemoveLink(%d,%d)" d r
  | AddPerm (d, f) -> Printf.sprintf "AddPerm(%d,%d)" d f
  | Unprohibit (d, f) -> Printf.sprintf "Unprohibit(%d,%d)" d f

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun f w -> Write (f, w)) (int_bound 4) (int_bound 3));
        (2, map (fun f -> Delete f) (int_bound 4));
        (2, map2 (fun a b -> Move (a, b)) (int_bound 4) (int_bound 4));
        (2, map2 (fun d q -> Smkdir (d, q)) (int_bound (n_dirs - 1)) (int_bound (n_queries - 1)));
        (1, map2 (fun d q -> Schquery (d, q)) (int_bound (n_dirs - 1)) (int_bound (n_queries - 1)));
        (1, map2 (fun d r -> RemoveLink (d, r)) (int_bound (n_dirs - 1)) (int_bound 3));
        (1, map2 (fun d f -> AddPerm (d, f)) (int_bound (n_dirs - 1)) (int_bound 4));
        (1, map2 (fun d f -> Unprohibit (d, f)) (int_bound (n_dirs - 1)) (int_bound 4));
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 4 40) gen_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

(* Ops carry only pre-drawn data (slots and ranks), so applying the same op
   to two instances in the same state performs the same mutation on both. *)
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
  | RemoveLink (d, r) ->
      ignore_errors (fun () ->
          let transients =
            Hac.links t sem_dirs.(d)
            |> List.filter (fun l -> l.Link.cls = Link.Transient)
            |> List.map (fun l -> l.Link.name)
            |> List.sort compare
          in
          match List.nth_opt transients (r mod max 1 (List.length transients)) with
          | Some name -> Hac.remove_link t ~dir:sem_dirs.(d) ~name
          | None -> ())
  | AddPerm (d, f) ->
      ignore_errors (fun () ->
          ignore (Hac.add_permanent t ~dir:sem_dirs.(d) ~target:files.(f)))
  | Unprohibit (d, f) ->
      ignore_errors (fun () -> Hac.unprohibit t ~dir:sem_dirs.(d) ~target:files.(f))

(* The externally observable semantic state: for every semantic directory,
   its links (name, canonical target, class) and its prohibited targets. *)
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

let fresh () =
  let t = Hac.create ~stem:false () in
  List.iter (Hac.mkdir_p t) [ "/d0"; "/d1"; "/d2" ];
  t

(* Split the op list into small batches; settle both twins after each batch
   (A incrementally, B fully) and require identical observable state. *)
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

let twin_run ?(check = fun ~batch:_ _ _ -> ()) ops =
  let a = fresh () and b = fresh () in
  List.iteri
    (fun i batch ->
      List.iter
        (fun op ->
          apply a op;
          apply b op)
        batch;
      ignore (Hac.reindex a ());
      ignore (Hac.reindex_full b ());
      check ~batch:i a b)
    (batches ops);
  (a, b)

let prop_delta_equals_full =
  QCheck.Test.make ~name:"delta settle equals the sync_all oracle" ~count:60 arb_ops
    (fun ops ->
      let a, b =
        twin_run ops ~check:(fun ~batch a b ->
            if observe a <> observe b then
              QCheck.Test.fail_reportf "divergence at batch %d:\ndelta:\n%s\nfull:\n%s"
                batch (observe a) (observe b))
      in
      (* And the delta twin's state is a true fixpoint of the full engine. *)
      let before = observe a in
      Hac.sync_all a;
      ignore b;
      if observe a <> before then
        QCheck.Test.fail_reportf "delta state was not a sync_all fixpoint:\n%s\nvs\n%s"
          before (observe a)
      else true)

(* The same differential run under three pinned seeds, as plain test cases:
   a regression in the delta path fails fast and reproducibly even if the
   QCheck draw happens to wander elsewhere. *)
let seeded_run seed () =
  let rand = Random.State.make [| seed |] in
  let ops = QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op) in
  let a, _ =
    twin_run ops ~check:(fun ~batch a b ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d batch %d" seed batch)
          (observe b) (observe a))
  in
  let before = observe a in
  Hac.sync_all a;
  Alcotest.(check string) "no-op sync_all is a fixpoint" before (observe a)

(* The persisted metadata area, byte for byte: per-directory structure files
   are a function of the directory's state, and the journal records the
   same mutations on both twins. *)
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

(* A settles through the session entry point ([Hac.settle]: delta plus the
   journal barrier), B through the full oracle.  After every batch they
   must agree on what is observable and on what is persisted, and A's end
   state must be a sync_all fixpoint. *)
let seeded_settle_run seed () =
  let rand = Random.State.make [| seed |] in
  let ops = QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op) in
  let a = fresh () and b = fresh () in
  List.iteri
    (fun i batch ->
      List.iter
        (fun op ->
          apply a op;
          apply b op)
        batch;
      Hac.settle a;
      ignore (Hac.reindex_full b ());
      let what = Printf.sprintf "seed %d batch %d" seed i in
      Alcotest.(check string) (what ^ ": observable") (observe b) (observe a);
      Alcotest.(check string) (what ^ ": persisted") (persisted b) (persisted a))
    (batches ops);
  Alcotest.(check bool) "metadata area written" true (persisted a <> "");
  let before = observe a in
  Hac.sync_all a;
  Alcotest.(check string) "settled state is a sync_all fixpoint" before (observe a)

(* -- cache invalidation ------------------------------------------------------- *)

let link_names t dir =
  Hac.links t dir |> List.map (fun l -> l.Link.name) |> List.sort compare

let test_rename_invalidates () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "plain red text";
  Hac.smkdir t "/s" "red";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "linked" [ "a.txt" ] (link_names t "/s");
  (* A rename produces no reindex delta (content is unchanged), yet every
     cached result naming the old path is now wrong: the settle must fall
     back to a full sync and retarget the link. *)
  Hac.rename t ~src:"/d0/a.txt" ~dst:"/d0/z.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "retargeted" [ "z.txt" ] (link_names t "/s")

let test_remove_invalidates () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.write_file t "/d0/b.txt" "red";
  Hac.smkdir t "/s" "red";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "both linked" [ "a.txt"; "b.txt" ] (link_names t "/s");
  Hac.unlink t "/d0/a.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "dropped" [ "b.txt" ] (link_names t "/s")

let test_prohibition_invalidates () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.smkdir t "/s" "red";
  ignore (Hac.reindex t ());
  (* rm inside the semantic dir prohibits the target; the cached result
     still contains it, so the next settle must not serve the cache. *)
  Hac.remove_link t ~dir:"/s" ~name:"a.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "prohibited stays out" [] (link_names t "/s");
  Hac.unprohibit t ~dir:"/s" ~target:"/d0/a.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "unprohibit restores" [ "a.txt" ] (link_names t "/s")

let test_cache_hits_on_steady_state () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.write_file t "/d1/c.txt" "blue";
  Hac.smkdir t "/s0" "red";
  Hac.smkdir t "/s1" "blue";
  ignore (Hac.reindex_full t ());
  (* One converging resync: directories synced before the settle's last
     generation bump re-store their entries at the final generation. *)
  Hac.sync_all t;
  Hac.reset_result_cache_stats t;
  Hac.sync_all t;
  Hac.sync_all t;
  let rc = Hac.result_cache_stats t in
  Alcotest.(check int) "no misses on no-op resyncs" 0 rc.Rescache.misses;
  Alcotest.(check bool) "hits recorded" true (rc.Rescache.hits >= 4);
  (* A content change bumps the generation: the stale entry must miss. *)
  Hac.write_file t "/d0/a.txt" "now blue";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "s0 emptied" [] (link_names t "/s0");
  Alcotest.(check (list string)) "s1 gained" [ "a.txt"; "c.txt" ] (link_names t "/s1")

(* The per-pass caches live exactly one settle pass, so a content change
   between passes must be visible to the next one: nothing may serve the
   previous pass's tokens or term results.  Only a full pass consults the
   term memo (a delta pass evaluates every term under [?within]), so full
   passes run on both sides of the flip. *)
let test_pass_caches_see_reindex () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "plain red text";
  Hac.write_file t "/d0/b.txt" "plain blue text";
  Hac.smkdir t "/s0" "red";
  Hac.smkdir t "/s1" "red";
  Hac.settle t;
  Hac.sync_all t;
  Alcotest.(check (list string)) "a in s0" [ "a.txt" ] (link_names t "/s0");
  Alcotest.(check (list string)) "a in s1" [ "a.txt" ] (link_names t "/s1");
  (* Flip the contents: the next pass's doc cache must tokenize the new
     bytes, and its term memo must re-expand "red" from the fresh index. *)
  Hac.write_file t "/d0/a.txt" "plain blue text";
  Hac.write_file t "/d0/b.txt" "plain red text";
  ignore (Hac.reindex_full t ());
  Alcotest.(check (list string)) "b in s0" [ "b.txt" ] (link_names t "/s0");
  Alcotest.(check (list string)) "b in s1" [ "b.txt" ] (link_names t "/s1")

(* -- a settle costs its delta ---------------------------------------------- *)

let counter t name =
  match Hac_obs.Metrics.find (Hac.metrics t) name with
  | Some (Hac_obs.Metrics.Counter_value n) -> n
  | _ -> Alcotest.failf "no counter %s" name

(* Regex and approximate directories under a plain directory, over a
   vocabulary large enough that verifying a two-document delta costs less
   than sweeping it.  The delta settle must walk no vocabulary word and
   verify exactly the delta documents inside the parent's scope, once per
   directory; the document outside it is never read.  A delta member that
   matches neither query must stay out: it is a candidate only because it
   is in the delta, and no posting vouches for it. *)
let test_delta_bounds_sweeps () =
  let t = fresh () in
  for i = 0 to 99 do
    Hac.write_file t
      (Printf.sprintf "/d0/f%02d.txt" i)
      (String.concat " " (List.init 6 (fun j -> Printf.sprintf "w%dx%d" i j)))
  done;
  Hac.write_file t "/d0/old.txt" "blue and green";
  Hac.smkdir t "/d0/re" "/bl.e/";
  Hac.smkdir t "/d0/ap" "~gren";
  Hac.settle t;
  Alcotest.(check bool) "a full evaluation sweeps the vocabulary" true
    (counter t "search.words_walked" > 0);
  let walked = counter t "search.words_walked" and verified = counter t "search.docs_verified" in
  Hac.write_file t "/d0/new.txt" "blue green";
  Hac.write_file t "/d0/miss.txt" "pink black";
  Hac.write_file t "/d1/out.txt" "blue green";
  Hac.settle t;
  Alcotest.(check int) "no vocabulary word walked" 0 (counter t "search.words_walked" - walked);
  Alcotest.(check int) "in-scope delta verified once per directory" 4
    (counter t "search.docs_verified" - verified);
  Alcotest.(check (list string)) "regex" [ "new.txt"; "old.txt" ] (link_names t "/d0/re");
  Alcotest.(check (list string)) "approx" [ "new.txt"; "old.txt" ] (link_names t "/d0/ap")

let test_sibling_dirs_share_pass () =
  (* Many sibling directories with the same query within one pass: the memo
     serves one evaluation to all of them, and they must all agree. *)
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red one";
  Hac.write_file t "/d1/c.txt" "red two";
  for j = 0 to 5 do
    Hac.smkdir t (Printf.sprintf "/m%d" j) "red"
  done;
  Hac.settle t;
  let expect = link_names t "/m0" in
  Alcotest.(check bool) "result is non-trivial" true (expect <> []);
  for j = 1 to 5 do
    Alcotest.(check (list string))
      (Printf.sprintf "/m%d agrees" j)
      expect
      (link_names t (Printf.sprintf "/m%d" j))
  done;
  Hac.unlink t "/d0/a.txt";
  Hac.settle t;
  let expect = link_names t "/m0" in
  for j = 1 to 5 do
    Alcotest.(check (list string))
      (Printf.sprintf "/m%d agrees after delete" j)
      expect
      (link_names t (Printf.sprintf "/m%d" j))
  done

let test_namespace_stale_transition () =
  (* Graceful degradation must be unaffected by the cache: an outage serves
     stale remote entries, recovery drops them — across settles that hit
     the local-result cache in between. *)
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "sorting notes";
  Hac.smkdir t "/docs" "sorting";
  let ns =
    Namespace.static ~ns_id:"lib"
      [ ("paper.ps", "dlib://lib/paper.ps", "A survey of sorting networks.\n") ]
  in
  let clock = Hac.clock t in
  let inj = Fault.create ~seed:7 ~clock () in
  Hac.smount t "/docs" (Namespace.with_policy ~clock (Namespace.with_faults inj ns));
  ignore (Hac.reindex_full t ());
  Alcotest.(check (list string))
    "healthy: local + remote" [ "a.txt"; "paper.ps" ] (link_names t "/docs");
  Fault.set_plans inj [ Fault.Outage ];
  Hac.ssync t "/docs";
  Hac.ssync t "/docs";
  Alcotest.(check (list string))
    "outage: stale remote kept" [ "a.txt"; "paper.ps" ] (link_names t "/docs");
  Alcotest.(check bool)
    "marked stale" true
    (List.length (Hac.stale_remotes t "/docs") = 1);
  Fault.clear inj;
  Hac_fault.Clock.advance clock 60.0;
  Hac.ssync t "/docs";
  Alcotest.(check bool) "recovery drops stale markers" true
    (Hac.stale_remotes t "/docs" = []);
  Alcotest.(check (list string))
    "recovered entries" [ "a.txt"; "paper.ps" ] (link_names t "/docs")

let () =
  Alcotest.run "sync_delta"
    [
      ( "differential",
        QCheck_alcotest.to_alcotest prop_delta_equals_full
        :: List.map
             (fun seed ->
               Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (seeded_run seed))
             [ 1; 42; 1999 ] );
      ( "settle",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (seeded_settle_run seed))
          [ 7; 1234; 202599 ] );
      ( "cache invalidation",
        [
          Alcotest.test_case "rename retargets" `Quick test_rename_invalidates;
          Alcotest.test_case "remove drops" `Quick test_remove_invalidates;
          Alcotest.test_case "prohibit/unprohibit" `Quick test_prohibition_invalidates;
          Alcotest.test_case "steady state hits" `Quick test_cache_hits_on_steady_state;
          Alcotest.test_case "namespace outage" `Quick test_namespace_stale_transition;
        ] );
      ( "pass caches",
        [
          Alcotest.test_case "reindex invalidates" `Quick test_pass_caches_see_reindex;
          Alcotest.test_case "siblings share a pass" `Quick test_sibling_dirs_share_pass;
        ] );
      ( "bounded settle",
        [ Alcotest.test_case "delta bounds regex and approx" `Quick test_delta_bounds_sweeps ] );
    ]
