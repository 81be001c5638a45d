(* The storage tier's correctness claim is transparency: with the
   disk-backed tier on (blocks served from the hashed fan-out store,
   postings answered through cold on-disk segments, mounts taking the
   checkpointed fast path), every externally observable result — links,
   prohibitions, persisted journal bytes outside [/.hac/store] — must be
   byte-identical to the same run with the tier off.  Differential twins
   check that claim under pinned seeds; units pin the cache budget bound,
   the fan-out layout, segment-damage fallback, fast-vs-full mount parity
   and the crash-point sweep over the tier's commit boundaries. *)

module Hac = Hac_core.Hac
module Recover = Hac_core.Recover
module Journal = Hac_core.Journal
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Store = Hac_store.Store
module Cache = Hac_store.Cache
module Layout = Hac_store.Layout
module Segs = Hac_store.Segs
module Harness = Hac_crash.Harness

let seed =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

(* -- Differential twin: store on vs store off ------------------------------ *)

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
  | Checkpoint
  | Compact

let pp_op = function
  | Write (f, w) -> Printf.sprintf "Write(%d,%d)" f w
  | Delete f -> Printf.sprintf "Delete(%d)" f
  | Move (a, b) -> Printf.sprintf "Move(%d,%d)" a b
  | Smkdir (d, q) -> Printf.sprintf "Smkdir(%d,%d)" d q
  | Schquery (d, q) -> Printf.sprintf "Schquery(%d,%d)" d q
  | Checkpoint -> "Checkpoint"
  | Compact -> "Compact"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun f w -> Write (f, w)) (int_bound 4) (int_bound 3));
        (2, map (fun f -> Delete f) (int_bound 4));
        (3, map2 (fun a b -> Move (a, b)) (int_bound 4) (int_bound 4));
        (3, map2 (fun d q -> Smkdir (d, q)) (int_bound 2) (int_bound 4));
        (2, map2 (fun d q -> Schquery (d, q)) (int_bound 2) (int_bound 4));
        (1, return Checkpoint);
        (1, return Compact);
      ])

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
  | Checkpoint -> ignore (Hac.checkpoint t : int)
  | Compact -> ignore (Hac.compact t : int)

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

(* Everything under /.hac except the tier's own [store/] subtree, which
   only exists on the store-on twin by construction. *)
let persisted t =
  let fs = Hac.fs t in
  match Fs.readdir fs "/.hac" with
  | exception Hac_vfs.Errno.Error _ -> ""
  | names ->
      List.filter (fun n -> n <> "store") names
      |> List.sort compare
      |> List.map (fun n ->
             let p = "/.hac/" ^ n in
             if Fs.is_file fs p then Printf.sprintf "%s:%s" n (Fs.read_file fs p) else n)
      |> String.concat "\n"

let fresh () =
  let t = Hac.create ~stem:false () in
  List.iter (Hac.mkdir_p t) [ "/d0"; "/nest/d1"; "/nest/d2" ];
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

(* Twin run: A reads content blocks and cold postings through the tier, B
   runs bare; observable state and the persisted metadata outside the
   tier's directory must be byte-identical after every settle. *)
let twin_run ~fail ops =
  let a = fresh () and b = fresh () in
  (* A small budget so the run actually exercises eviction and the
     oversized-value skip, not just a cache that swallows everything. *)
  Hac.enable_store ~budget:256 a;
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

let seeded_twins () =
  List.iter
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let ops =
        QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op)
      in
      ignore (pp_op : op -> string);
      let a, b = twin_run ops ~fail:Alcotest.fail in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: final state" seed)
        (observe b) (observe a))
    [ 1; 42; 1999 ]

(* -- Layout units ---------------------------------------------------------- *)

let test_layout_fanout () =
  let key = Layout.key_of_content "some red text\n" in
  Alcotest.(check int) "key is 16 hex chars" 16 (String.length key);
  Alcotest.(check string)
    "key is deterministic" key
    (Layout.key_of_content "some red text\n");
  Alcotest.(check bool)
    "distinct content, distinct key" false
    (key = Layout.key_of_content "some blue text\n");
  let p = Layout.block_path key in
  let expect =
    Printf.sprintf "%s/%s/%s/%s" Layout.blocks_root (String.sub key 0 2)
      (String.sub key 2 2) key
  in
  Alcotest.(check string) "two-level fan-out path" expect p

(* -- Cache units ----------------------------------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~budget:10 in
  Cache.insert c "a" "xxxx";
  Cache.insert c "b" "yyyy";
  Alcotest.(check int) "two resident" 2 (Cache.entries c);
  (* Touch [a] so [b] is the LRU victim when [c] arrives. *)
  Alcotest.(check bool) "hit a" true (Cache.find c "a" <> None);
  Cache.insert c "c" "zzzz";
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a survives" true (Cache.find c "a" <> None);
  Alcotest.(check bool) "budget bound holds" true (Cache.bytes c <= Cache.budget c);
  Alcotest.(check int) "one eviction counted" 1 (Cache.evictions c)

let test_cache_oversized_skip () =
  let c = Cache.create ~budget:8 in
  Cache.insert c "big" (String.make 64 'x');
  Alcotest.(check int) "oversized value never admitted" 0 (Cache.entries c);
  Alcotest.(check int) "no bytes charged" 0 (Cache.bytes c);
  Cache.insert c "fit" "ok";
  Alcotest.(check bool) "small value still admitted" true (Cache.find c "fit" <> None)

let test_cache_peak_tracks_high_water () =
  let c = Cache.create ~budget:16 in
  Cache.insert c "a" (String.make 12 'a');
  Cache.insert c "b" (String.make 12 'b');
  Alcotest.(check bool) "peak >= largest resident set" true (Cache.peak_bytes c >= 12);
  Alcotest.(check bool) "peak never exceeds budget" true
    (Cache.peak_bytes c <= Cache.budget c)

(* The acceptance bound at unit scale: settle a corpus 4x larger than the
   cache budget; the gauge must stay under budget the whole way. *)
let test_cache_bounded_settle () =
  let t = fresh () in
  let budget = 1024 in
  Hac.enable_store ~budget t;
  let body i = Printf.sprintf "file %04d holds %s words\n" i (String.make 96 'w') in
  let n = (4 * budget / String.length (body 0)) + 4 in
  for i = 1 to n do
    Hac.write_file t (Printf.sprintf "/d0/f%04d.txt" i) (body i)
  done;
  Hac.settle t;
  for i = 1 to n do
    ignore (Hac.read_file t (Printf.sprintf "/d0/f%04d.txt" i) : string)
  done;
  match Hac.store t with
  | None -> Alcotest.fail "store vanished"
  | Some store ->
      let c = Store.cache store in
      Alcotest.(check bool)
        (Printf.sprintf "resident %d <= budget %d" (Cache.bytes c) budget)
        true
        (Cache.bytes c <= budget);
      Alcotest.(check bool)
        (Printf.sprintf "peak %d <= budget %d" (Cache.peak_bytes c) budget)
        true
        (Cache.peak_bytes c <= budget)

(* -- Mount paths ----------------------------------------------------------- *)

(* A deterministic corpus builder both mount tests share: same script on
   a fresh device yields byte-identical trees. *)
let build_corpus fs =
  let t = Hac.of_fs ~stem:false fs in
  List.iter (Hac.mkdir_p t) [ "/d0"; "/nest/d1"; "/nest/d2" ];
  Hac.enable_store ~budget:4096 t;
  Array.iteri
    (fun i f -> Hac.write_file t f (Printf.sprintf "some %s text\n" words.(i mod 4)))
    files;
  Hac.smkdir t "/s0" "red";
  Hac.smkdir t "/nest/s1" "green OR blue";
  Hac.settle t;
  ignore (Hac.checkpoint t : int);
  t

let test_fast_mount_matches_full () =
  let fs = Fs.create () in
  let t0 = build_corpus fs in
  (* Post-checkpoint delta: an overwrite, a new file, a file rename. *)
  Hac.write_file t0 "/d0/a.txt" "now cyan here\n";
  Hac.write_file t0 "/nest/d2/late.txt" "a late blue entry\n";
  Hac.rename t0 ~src:"/d0/b.txt" ~dst:"/d0/bb.txt";
  Hac.settle t0;
  let expected = observe t0 in
  Hac.shutdown ~graceful:false t0;
  let t, mode = Recover.mount ~stem:false ~budget:4096 fs in
  Alcotest.(check bool) "clean chain takes the fast path" true (mode = `Fast);
  Alcotest.(check string) "fast mount reproduces the acknowledged state" expected
    (observe t);
  (match Hac.store t with
  | None -> Alcotest.fail "fast mount did not attach the store"
  | Some store ->
      Alcotest.(check bool) "postings segments survived" true
        (Store.has_segments store));
  (* Idempotence: mounting the remounted device again is still fast and
     still lands on the same state. *)
  Hac.shutdown ~graceful:false t;
  let t2, mode2 = Recover.mount ~stem:false ~budget:4096 fs in
  Alcotest.(check bool) "remount is fast again" true (mode2 = `Fast);
  Alcotest.(check string) "remount state is stable" expected (observe t2)

let test_mount_falls_back_on_damage () =
  (* Damaged document table: the fast precondition fails, the mount must
     land on the full-replay oracle and still reproduce the state. *)
  let fs = Fs.create () in
  let t0 = build_corpus fs in
  let expected = observe t0 in
  Hac.shutdown ~graceful:false t0;
  Fs.write_file fs "/.hac/store/docs.tbl" "garbage\n";
  let t, mode = Recover.mount ~stem:false ~budget:4096 fs in
  Alcotest.(check bool) "damaged docs.tbl forces full replay" true (mode = `Full);
  Alcotest.(check string) "full fallback reproduces the state" expected (observe t);
  Hac.shutdown ~graceful:false t;
  (* Torn journal tail: corrupt records refuse the fast path too. *)
  let fs2 = Fs.create () in
  let t1 = build_corpus fs2 in
  let expected2 = observe t1 in
  Hac.shutdown ~graceful:false t1;
  let seg = Journal.segment_path (Journal.current_epoch fs2) in
  Fs.append_file fs2 seg "torn nonsense not a sealed record\n";
  let t3, mode3 = Recover.mount ~stem:false ~budget:4096 fs2 in
  Alcotest.(check bool) "corrupt tail forces full replay" true (mode3 = `Full);
  Alcotest.(check string) "state survives the torn tail" expected2 (observe t3)

(* -- Result adoption at a fast mount ---------------------------------------

   A fast mount adopts a directory's persisted [sd-N.result] instead of
   re-evaluating its query when the images vouch for it.  Each unit below
   mounts a device through [Recover.mount] and compares the outcome with
   the full-replay oracle ([Hac.of_fs] + [Recover.reload_report]) on a copy
   of the same bytes. *)

module Sync = Hac_core.Sync
module Seal = Hac_store.Seal
module Image = Hac_vfs.Image
module Fileset = Hac_bitset.Fileset

let counter t name =
  match Hac_obs.Metrics.find (Hac.metrics t) name with
  | Some (Hac_obs.Metrics.Counter_value n) -> n
  | _ -> 0

(* [build_corpus]'s two top-level directories (adoptable) plus a nested
   one and a dirref one (always re-evaluated), then a post-checkpoint
   delta — an overwrite and a new file — settled, with every directory
   materialised unless [materialize] is false, and shut down cleanly. *)
let adoption_device ?(materialize = true) () =
  let fs = Fs.create () in
  let t = build_corpus fs in
  Hac.smkdir t "/s0/inner" "text";
  Hac.smkdir t "/ref" "{/nest/s1} AND blue";
  Hac.write_file t "/d0/a.txt" "now cyan red here\n";
  Hac.write_file t "/nest/d2/late.txt" "a late blue entry\n";
  Hac.settle t;
  if materialize then List.iter (fun d -> ignore (Hac.links t d)) (Hac.semantic_dirs t);
  Hac.shutdown ~graceful:true t;
  fs

let copy fs =
  match Image.load (Image.dump fs) with Ok c -> c | Error e -> Alcotest.fail e

let oracle fs =
  let t = Hac.of_fs ~stem:false (copy fs) in
  ignore (Recover.reload_report t : Recover.reload_report);
  observe t

(* The uid whose persisted query reads [query]. *)
let uid_of_query fs query =
  Fs.readdir fs "/.hac"
  |> List.find_map (fun name ->
         match Journal.sd_uid_of_name name with
         | Some uid when Filename.check_suffix name ".query" -> (
             match Seal.unseal_file (Fs.read_file fs ("/.hac/" ^ name)) with
             | Some q when String.trim q = query -> Some uid
             | Some _ | None -> None)
         | Some _ | None -> None)
  |> function
  | Some uid -> uid
  | None -> Alcotest.fail ("no persisted query " ^ query)

(* What a crash between [persist_semdir]'s query and result writes leaves:
   a new, intact query file beside the previous result. *)
let rewrite_query fs ~from ~to_ =
  Fs.write_file fs
    (List.hd (Sync.meta_files (uid_of_query fs from)))
    (Seal.seal_blob (to_ ^ "\n"))

let mount_against_oracle fs =
  let expected = oracle fs in
  let t, mode = Recover.mount ~stem:false ~budget:4096 fs in
  Alcotest.(check bool) "fast path" true (mode = `Fast);
  Alcotest.(check string) "mount matches the full-replay oracle" expected (observe t);
  t

let check_counts t ~adopted ~reevaluated =
  Alcotest.(check int) "results adopted" adopted (counter t "recover.results_adopted");
  Alcotest.(check int) "results re-evaluated" reevaluated
    (counter t "recover.results_reevaluated")

(* /s0 and /nest/s1 adopted, whether their links are materialised or their
   result lives in the bitmap alone; /s0/inner (semantic parent) and /ref
   (dirref) re-evaluated. *)
let test_adopts_eligible () =
  List.iter
    (fun materialize ->
      let t = mount_against_oracle (adoption_device ~materialize ()) in
      check_counts t ~adopted:2 ~reevaluated:2)
    [ true; false ]

let test_rewritten_query_reevaluated () =
  let fs = adoption_device () in
  rewrite_query fs ~from:"red" ~to_:"green";
  let t = mount_against_oracle fs in
  check_counts t ~adopted:1 ~reevaluated:3;
  Alcotest.(check (list string))
    "the new query's result" [ "/d0/b.txt" ]
    (List.map (fun l -> Link.target_key l.Link.target) (Hac.links t "/s0"))

let test_unlinked_transient_returns () =
  let fs = adoption_device () in
  (* Unlink, with no instance running, the link to a document outside the
     delta — the persisted bitmap still holds it. *)
  let name =
    List.find
      (fun n ->
        let p = "/s0/" ^ n in
        Fs.is_symlink fs p && Fs.readlink fs p = "/nest/d2/e.txt")
      (Fs.readdir fs "/s0")
  in
  Fs.unlink fs ("/s0/" ^ name);
  let t = mount_against_oracle fs in
  check_counts t ~adopted:1 ~reevaluated:3;
  Alcotest.(check bool) "the link is back" true
    (List.exists
       (fun l -> Link.target_key l.Link.target = "/nest/d2/e.txt")
       (Hac.links t "/s0"))

let test_aliased_transient_dropped () =
  let fs = adoption_device () in
  (* A second link to a member, made with no instance running. *)
  Fs.symlink fs ~target:"/nest/d2/e.txt" ~link:"/s0/alias";
  let t = mount_against_oracle fs in
  check_counts t ~adopted:1 ~reevaluated:3

let test_dirref_dependent_follows () =
  let fs = adoption_device () in
  rewrite_query fs ~from:"green OR blue" ~to_:"cyan";
  let t = mount_against_oracle fs in
  check_counts t ~adopted:1 ~reevaluated:3;
  Alcotest.(check (list string))
    "the dependent follows its target's new result" []
    (List.map (fun l -> Link.target_key l.Link.target) (Hac.links t "/ref"))

(* A random history on a store-enabled tree — checkpoints and compactions
   among the writes, renames and queries of the twin above, some
   directories materialised — then a fast mount of what it left, against
   the full-replay oracle on the same bytes. *)
let prop_mount_twin =
  QCheck.Test.make ~name:"fast mount equals the full-replay oracle" ~count:100
    QCheck.(
      make
        ~print:(fun (ops, _) -> String.concat " " (List.map pp_op ops))
        Gen.(pair (list_size (int_range 10 40) gen_op) (int_bound 7)))
    (fun (ops, shown) ->
      let fs = Fs.create () in
      let t = Hac.of_fs ~stem:false fs in
      List.iter (Hac.mkdir_p t) [ "/d0"; "/nest/d1"; "/nest/d2" ];
      Hac.enable_store ~budget:256 t;
      List.iter
        (fun batch ->
          List.iter (apply t) batch;
          Hac.settle t)
        (batches (Checkpoint :: ops));
      (* Materialise the directories the bit mask [shown] picks. *)
      Array.iteri
        (fun i d -> if shown land (1 lsl i) <> 0 then ignore (Hac.links t d))
        sem_dirs;
      Hac.shutdown ~graceful:false t;
      let expected = oracle fs in
      let m, _ = Recover.mount ~stem:false ~budget:256 fs in
      observe m = expected)

(* -- The result decoder is total ------------------------------------------- *)

(* A real [sd-N.result] payload, unsealed. *)
let real_payload =
  lazy
    (let fs = adoption_device () in
     let file = List.nth (Sync.meta_files (uid_of_query fs "red")) 3 in
     match Seal.unseal_file (Fs.read_file fs file) with
     | Some p -> p
     | None -> Alcotest.fail "persisted result does not unseal")

let decodes s =
  match Sync.decode_result s with Some _ | None -> true | exception _ -> false

let prop_decoder_total =
  QCheck.Test.make ~name:"arbitrary bytes never raise" ~count:500 QCheck.string decodes

let prop_truncations_and_flips =
  QCheck.Test.make ~name:"truncations and bit flips of a real payload never raise"
    ~count:300
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (cut, flip) ->
      let p = Lazy.force real_payload in
      let n = String.length p in
      let cut = cut mod (n + 1) in
      let truncated = String.sub p 0 cut in
      let flipped =
        let b = Bytes.of_string p in
        let at = flip mod (8 * n) in
        Bytes.set b (at / 8)
          (Char.chr (Char.code (Bytes.get b (at / 8)) lxor (1 lsl (at mod 8))));
        Bytes.to_string b
      in
      (* Cut inside the header line, a payload vouches for nothing. *)
      decodes truncated && decodes flipped
      && (cut > String.index p '\n' || Sync.decode_result truncated = None))

let arb_members =
  QCheck.(
    map
      (fun (xs, specials) -> List.sort_uniq compare (xs @ specials))
      (pair (small_list (int_bound 300)) (small_list (oneofl [ 7; 8; 15; 16 ]))))

let prop_round_trip =
  QCheck.Test.make ~name:"persist then decode round-trips the result" ~count:200
    arb_members (fun members ->
      let ctx = Hac_core.Ctx.create (Fs.create ()) in
      let sd = Hac_core.Semdir.create ~uid:3 Hac_query.Ast.All in
      Hac_core.Semdir.set_transient_local sd (Fileset.of_list members);
      Sync.persist_semdir ctx sd;
      let file = List.nth (Sync.meta_files 3) 3 in
      let payload = Seal.unseal_file (Fs.read_file ctx.Hac_core.Ctx.fs file) in
      match Option.bind payload Sync.decode_result with
      | Some (_, set) -> Fileset.elements set = members
      | None -> false)

(* The bitmap exactly as results were written before they carried a header. *)
let headerless members =
  let width = List.fold_left (fun w m -> max w ((m / 8) + 1)) 0 members in
  let b = Bytes.make width '\000' in
  List.iter
    (fun m ->
      let byte = Char.code (Bytes.get b (m / 8)) in
      Bytes.set b (m / 8) (Char.chr (byte lor (1 lsl (m mod 8)))))
    members;
  Bytes.to_string b

let prop_headerless_not_vouched =
  QCheck.Test.make ~name:"a headerless result vouches for nothing" ~count:200 arb_members
    (fun members -> Sync.decode_result (headerless members) = None)

(* -- Segment damage: cold lookups degrade to the verified universe --------- *)

let test_segment_damage_degrades_safely () =
  let fs = Fs.create () in
  let t0 = build_corpus fs in
  Hac.shutdown ~graceful:false t0;
  let t, mode = Recover.mount ~stem:false ~budget:4096 fs in
  Alcotest.(check bool) "precondition: fast mount" true (mode = `Fast);
  (* Scribble over every postings segment AFTER the directory loaded —
     in place, through the inode, exactly like media rot — so slice reads
     fault and the term lookup degrades to the universe. *)
  (match Fs.readdir fs Layout.segs_root with
  | exception Hac_vfs.Errno.Error _ -> Alcotest.fail "no segments directory"
  | names ->
      List.iter
        (fun n ->
          if Filename.check_suffix n ".seg" then begin
            let path = Layout.segs_root ^ "/" ^ n in
            let ino = (Fs.lstat fs path).Fs.st_ino in
            let len = Fs.size_ino fs ino in
            ignore (Fs.pwrite_ino fs ino ~path ~pos:0 (String.make len '\255') : int)
          end)
        names);
  (* A fresh query evaluated through the damaged cold path must still
     produce exactly the verified answer a bare instance computes. *)
  Hac.smkdir t "/probe" "cyan";
  Hac.settle t;
  let fs2 = Fs.create () in
  let oracle = build_corpus fs2 in
  Hac.smkdir oracle "/probe" "cyan";
  Hac.settle oracle;
  let links u =
    Hac.links u "/probe"
    |> List.map (fun l -> Link.target_key l.Link.target)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "damaged segments answer through verification" (links oracle) (links t);
  match Hac.store t with
  | None -> Alcotest.fail "store missing"
  | Some store ->
      let i = Store.instr store in
      Alcotest.(check bool) "damage was observed and counted" true
        (Hac_obs.Metrics.count i.Store.seg_damaged > 0)

(* A checksum-valid slice whose tokens are not all non-negative integers is
   damaged: the decoder neither raises nor drops the token (which would
   lose postings where the caller must widen them to the universe). *)
let test_segment_bad_tokens_damaged () =
  let lookup write =
    let fs = Fs.create () in
    let path = Layout.segment_path "t.seg" in
    write fs path;
    match Segs.load fs path with
    | Error e -> Alcotest.fail e
    | Ok seg -> Segs.term seg "w" ~on_load:ignore
  in
  (* One slice holding [slice] verbatim under a valid checksum. *)
  let raw slice fs path =
    Fs.mkdir_p fs Layout.segs_root;
    Fs.write_file fs path
      (Seal.seal_blob
         (Printf.sprintf "0 %d %08x 2 w\n" (String.length slice) (Seal.checksum slice))
      ^ slice)
  in
  let damaged = function Segs.Damaged -> true | Segs.Hit _ | Segs.Absent -> false in
  Alcotest.(check bool) "negative id" true
    (damaged (lookup (fun fs path -> Segs.write fs path [ ("w", [ 3; -1 ]) ])));
  Alcotest.(check bool) "non-integer token" true (damaged (lookup (raw "3 x7")));
  Alcotest.(check bool) "empty token" true (damaged (lookup (raw "3  7")));
  match lookup (raw "3 7") with
  | Segs.Hit s -> Alcotest.(check (list int)) "well-formed slice" [ 3; 7 ] (Fileset.elements s)
  | Segs.Damaged | Segs.Absent -> Alcotest.fail "a well-formed slice must load"

(* Re-seal a segment with the last id of every slice made unparsable
   ("12" -> "12x") and every checksum recomputed: damage that only the
   slice parser can see. *)
let mangle_slices fs path =
  let raw = Fs.read_file fs path in
  let nl = String.index raw '\n' in
  let dlen =
    match String.split_on_char ' ' (String.sub raw 0 nl) with
    | [ _; len; _ ] -> int_of_string len
    | _ -> Alcotest.fail (path ^ ": segment header")
  in
  let base = nl + 1 + dlen in
  let dir = Buffer.create 256 and pay = Buffer.create 1024 in
  String.split_on_char '\n' (String.sub raw (nl + 1) dlen)
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | off :: len :: _crc :: card :: term ->
             let slice = String.sub raw (base + int_of_string off) (int_of_string len) in
             let slice = if slice = "" then slice else slice ^ "x" in
             Printf.bprintf dir "%d %d %08x %s %s\n" (Buffer.length pay) (String.length slice)
               (Seal.checksum slice) card (String.concat " " term);
             Buffer.add_string pay slice
         | _ -> ());
  Fs.write_file fs path (Seal.seal_blob (Buffer.contents dir) ^ Buffer.contents pay)

(* End to end: a mount whose every slice fails to parse must still answer
   a fresh query exactly — each damaged slice widens to the universe and
   verification trims it; no posting is dropped with its token. *)
let test_unparsable_slices_widen () =
  let fs = Fs.create () in
  let t0 = build_corpus fs in
  Hac.shutdown ~graceful:false t0;
  let segs =
    Fs.readdir fs Layout.segs_root
    |> List.filter (fun n -> Filename.check_suffix n ".seg")
    |> List.map (fun n -> Layout.segs_root ^ "/" ^ n)
  in
  Alcotest.(check bool) "precondition: segments written" true (segs <> []);
  List.iter (mangle_slices fs) segs;
  let t, mode = Recover.mount ~stem:false ~budget:4096 fs in
  Alcotest.(check bool) "re-sealed segments still mount fast" true (mode = `Fast);
  Hac.smkdir t "/probe" "cyan";
  Hac.settle t;
  let oracle = build_corpus (Fs.create ()) in
  Hac.smkdir oracle "/probe" "cyan";
  Hac.settle oracle;
  let links u =
    Hac.links u "/probe"
    |> List.map (fun l -> Link.target_key l.Link.target)
    |> List.sort compare
  in
  Alcotest.(check bool) "the probe matches something" true (links oracle <> []);
  Alcotest.(check (list string)) "unparsable slices answer through verification"
    (links oracle) (links t);
  match Hac.store t with
  | None -> Alcotest.fail "store missing"
  | Some store ->
      Alcotest.(check bool) "damage was observed and counted" true
        (Hac_obs.Metrics.count (Store.instr store).Store.seg_damaged > 0)

(* -- Crash-point sweep over the tier's commit boundaries ------------------- *)

let test_store_crash_sweep () =
  let o = Harness.run_store ~seed () in
  if o.Harness.st_violations <> [] then
    Alcotest.fail (Harness.summary_store o);
  Alcotest.(check bool) "swept a real matrix" true (o.Harness.st_points > 50);
  Alcotest.(check bool) "merge commit points covered" true (o.Harness.st_merge_points > 0);
  Alcotest.(check bool) "fast path actually exercised" true (o.Harness.st_fast_mounts > 0);
  Alcotest.(check bool) "boundary states compared" true (o.Harness.st_boundary_points > 0)

let () =
  Alcotest.run "store"
    [
      ( "layout",
        [ Alcotest.test_case "hashed fan-out" `Quick test_layout_fanout ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru;
          Alcotest.test_case "oversized skip" `Quick test_cache_oversized_skip;
          Alcotest.test_case "peak high-water" `Quick test_cache_peak_tracks_high_water;
          Alcotest.test_case "bounded settle" `Quick test_cache_bounded_settle;
        ] );
      ( "twin",
        [ Alcotest.test_case "store on/off equivalence" `Quick seeded_twins ] );
      ( "mount",
        [
          Alcotest.test_case "fast path parity" `Quick test_fast_mount_matches_full;
          Alcotest.test_case "damage falls back" `Quick test_mount_falls_back_on_damage;
        ] );
      ( "adopt",
        [
          Alcotest.test_case "eligible results adopted" `Quick test_adopts_eligible;
          Alcotest.test_case "rewritten query re-evaluated" `Quick
            test_rewritten_query_reevaluated;
          Alcotest.test_case "unlinked transient link returns" `Quick
            test_unlinked_transient_returns;
          Alcotest.test_case "aliased transient link dropped" `Quick
            test_aliased_transient_dropped;
          Alcotest.test_case "dirref dependent follows" `Quick
            test_dirref_dependent_follows;
        ] );
      ( "mount twin", [ QCheck_alcotest.to_alcotest prop_mount_twin ] );
      ( "decode",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_decoder_total;
            prop_truncations_and_flips;
            prop_round_trip;
            prop_headerless_not_vouched;
          ] );
      ( "degrade",
        [
          Alcotest.test_case "segment damage verified away" `Quick
            test_segment_damage_degrades_safely;
          Alcotest.test_case "bad slice tokens damaged" `Quick
            test_segment_bad_tokens_damaged;
          Alcotest.test_case "unparsable slices widen" `Quick test_unparsable_slices_widen;
        ] );
      ( "crash",
        [ Alcotest.test_case "store sweep no violations" `Quick test_store_crash_sweep ]
      );
    ]
