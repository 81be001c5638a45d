(* The benchmark harness: regenerates every table of the paper's evaluation
   (section 4) against this reproduction, prints the paper's numbers next to
   the measured ones, and checks the qualitative shape.  A Bechamel
   micro-benchmark backs each table with per-operation costs, and an
   ablation section sweeps the index block size (the Glimpse design knob).

   Run with:  dune exec bench/main.exe            (full harness)
              dune exec bench/main.exe -- quick   (smaller corpora)    *)

module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Fileset = Hac_bitset.Fileset
module Index = Hac_index.Index
module Search = Hac_index.Search
module Remote_fs = Hac_remote.Remote_fs
module Hac = Hac_core.Hac
module Corpus = Hac_workload.Corpus
module Andrew = Hac_workload.Andrew
module Fsops = Hac_workload.Fsops
module Jade_fs = Hac_workload.Jade_fs
module Pseudo_fs = Hac_workload.Pseudo_fs
module Timer = Hac_workload.Timer
module Metrics = Hac_obs.Metrics
module Trace = Hac_obs.Trace

let quick = Array.exists (( = ) "quick") Sys.argv
let smoke = Array.exists (( = ) "smoke") Sys.argv
let json_only = Array.exists (( = ) "json") Sys.argv

(* Where each machine-readable trajectory lands: the [n]th .json argv
   (counting from 0) overrides [default]. *)
let json_arg n default =
  let args = List.filter (fun a -> Filename.check_suffix a ".json") (Array.to_list Sys.argv) in
  Option.value (List.nth_opt args n) ~default

let json_path = json_arg 0 "BENCH_sync.json"
let obs_json_path = json_arg 1 "BENCH_obs.json"
let rec_json_path = json_arg 2 "BENCH_recovery.json"
let index_json_path = json_arg 3 "BENCH_index.json"
let serve_json_path = json_arg 4 "BENCH_serve.json"
let store_json_path = json_arg 5 "BENCH_store.json"
let link_json_path = json_arg 6 "BENCH_link.json"

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let shape name ok =
  Printf.printf "  shape %-58s %s\n" name (if ok then "[ok]" else "[DIFFERS]")

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: the Andrew Benchmark on UNIX / HAC / Jade / Pseudo *)
(* ------------------------------------------------------------------ *)

let andrew_spec =
  if quick then Corpus.medium_tree
  else { Corpus.depth = 3; dirs_per_level = 4; files_per_dir = 8; words_per_file = 300 }

let source = Andrew.make_source ~spec:andrew_spec ~seed:20251999 ()

let andrew_rounds = if quick then 5 else 7

(* Run every system once per round (decorrelating GC and cache state from
   the system under test), then take per-phase medians. *)
let run_andrew_all systems =
  let rounds =
    List.init andrew_rounds (fun _ ->
        List.map
          (fun (label, mk_ops) ->
            Gc.major ();
            (label, Andrew.run source (mk_ops ()) ~dest:"/dest"))
          systems)
  in
  List.map
    (fun (label, _) ->
      let runs = List.map (fun round -> List.assoc label round) rounds in
      let med f =
        let sorted = List.sort compare (List.map f runs) in
        List.nth sorted (List.length sorted / 2)
      in
      ( label,
        {
          Andrew.makedir = med (fun t -> t.Andrew.makedir);
          copy = med (fun t -> t.Andrew.copy);
          scan = med (fun t -> t.Andrew.scan);
          read = med (fun t -> t.Andrew.read);
          make = med (fun t -> t.Andrew.make);
        } ))
    systems

let tables_1_and_2 () =
  banner "Table 1: Andrew Benchmark (seconds per phase)";
  Printf.printf
    "  paper: UNIX 2/5/5/8/19 = 38s ; HAC 4/9/8/14/22 = 57s (46%% slower,\n\
    \  phases 1-2 worst, phase 5 'Make' least affected)\n\n";
  let systems =
    [
      ("UNIX", fun () -> Fsops.of_fs (Fs.create ()));
      ("HAC", fun () -> Fsops.of_hac (Hac.create ()));
      ( "Jade",
        fun () ->
          let fs = Fs.create () in
          let j = Jade_fs.create fs in
          (* A realistic skeleton: the benchmark tree lives on another
             volume (the benchmark itself creates the mapped directory). *)
          Fs.mkdir_p fs "/vol0";
          Jade_fs.add_mapping j ~logical:"/dest" ~physical:"/vol0/bench";
          Jade_fs.ops j );
      ("Pseudo", fun () -> Pseudo_fs.ops (Pseudo_fs.create (Fs.create ())));
    ]
  in
  let results = run_andrew_all systems in
  let unix_t = List.assoc "UNIX" results in
  let hac_t = List.assoc "HAC" results in
  let jade_t = List.assoc "Jade" results in
  let pseudo_t = List.assoc "Pseudo" results in
  Printf.printf "  %-10s %9s %9s %9s %9s %9s %10s\n" "system" "MakeDir" "Copy" "Scan"
    "Read" "Make" "Total";
  List.iter
    (fun (label, t) -> Format.printf "  %a@." Andrew.pp_times (label, t))
    [ ("UNIX", unix_t); ("HAC", hac_t) ];
  let pct = Andrew.slowdown ~base:unix_t in
  let phase_pct f = Timer.pct_over ~base:(f unix_t) (f hac_t) in
  Printf.printf "\n  HAC total slowdown: %.1f%%  (paper: 46%%)\n" (pct hac_t);
  Printf.printf
    "  per-phase slowdown: MakeDir %.0f%%  Copy %.0f%%  Scan %.0f%%  Read %.0f%%  Make %.0f%%\n"
    (phase_pct (fun t -> t.Andrew.makedir))
    (phase_pct (fun t -> t.Andrew.copy))
    (phase_pct (fun t -> t.Andrew.scan))
    (phase_pct (fun t -> t.Andrew.read))
    (phase_pct (fun t -> t.Andrew.make));
  shape "HAC slower than UNIX overall" (pct hac_t > 0.0);
  shape "structure phases (MakeDir) hit harder than compute (Make)"
    (phase_pct (fun t -> t.Andrew.makedir) > phase_pct (fun t -> t.Andrew.make));
  shape "'Make' phase least affected"
    (let phases =
       [
         phase_pct (fun t -> t.Andrew.makedir);
         phase_pct (fun t -> t.Andrew.copy);
         phase_pct (fun t -> t.Andrew.scan);
         phase_pct (fun t -> t.Andrew.read);
       ]
     in
     List.for_all (fun p -> p >= phase_pct (fun t -> t.Andrew.make)) phases);

  banner "Table 2: slowdown of user-level file systems vs native (percent)";
  Printf.printf "  paper: Jade FS 36 ; Pseudo FS 33.41 ; HAC FS 46\n\n";
  Printf.printf "  %-12s %10s\n" "system" "%slowdown";
  List.iter
    (fun (label, t) -> Printf.printf "  %-12s %10.1f\n" label (pct t))
    [ ("Jade FS", jade_t); ("Pseudo FS", pseudo_t); ("HAC FS", hac_t) ];
  shape "all user-level layers slower than native" (pct jade_t > 0. && pct pseudo_t > 0.);
  shape "HAC (which also maintains CBA structures) slowest of the three"
    (pct hac_t > pct jade_t && pct hac_t > pct pseudo_t)

(* ------------------------------------------------------ *)
(* Table 3: indexing a database directly vs through HAC   *)
(* ------------------------------------------------------ *)

let corpus_spec =
  if quick then
    { Corpus.depth = 3; dirs_per_level = 3; files_per_dir = 8; words_per_file = 300 }
  else { Corpus.depth = 3; dirs_per_level = 4; files_per_dir = 16; words_per_file = 400 }

let build_corpus_fs () =
  let corpus = Corpus.make ~seed:17 () in
  let fs = Fs.create () in
  let files = Corpus.build_tree corpus fs ~root:"/db" corpus_spec in
  (fs, files)

let table_3 () =
  banner "Table 3: indexing time and space, Glimpse-on-UNIX vs through HAC";
  Printf.printf
    "  paper: 17000 files / 150 MB; HAC has 27%% time overhead and 15%% space\n\
    \  overhead over running Glimpse directly\n\n";
  (* Direct: walk the files and feed the indexer. *)
  let fs, files = build_corpus_fs () in
  let mb = float_of_int (Fs.total_bytes fs) /. 1_048_576.0 in
  Printf.printf "  corpus: %d files, %.1f MB\n\n" (List.length files) mb;
  let direct_run () =
    Gc.major ();
    let direct_index = Index.create () in
    let time =
      Timer.time_only (fun () ->
          List.iter
            (fun p ->
              ignore (Index.add_document direct_index ~path:p ~content:(Fs.read_file fs p)))
            files)
    in
    (time, Index.index_bytes direct_index)
  in
  (* Through HAC: the same files arrive as intercepted writes; indexing is
     the data-consistency pass over the dirty set (every file access
     interposed and through a descriptor), and HAC also maintains its
     per-directory structures. *)
  let hac_run () =
    let corpus = Corpus.make ~seed:17 () in
    let t = Hac.create () in
    ignore (Corpus.build_tree corpus (Hac.fs t) ~root:"/db" corpus_spec);
    Gc.major ();
    let time = Timer.time_only (fun () -> ignore (Hac.reindex t ())) in
    let sp = Hac.space t in
    (time, sp.Hac.index_bytes + Hac.hac_overhead_bytes sp)
  in
  (* Interleave the two systems across rounds and take medians. *)
  let rounds = List.init (if quick then 5 else 9) (fun _ -> (direct_run (), hac_run ())) in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let direct_time = median (List.map (fun ((t, _), _) -> t) rounds) in
  let hac_time = median (List.map (fun (_, (t, _)) -> t) rounds) in
  let direct_bytes = (fun ((_, b), _) -> b) (List.hd rounds) in
  let hac_bytes = (fun (_, (_, b)) -> b) (List.hd rounds) in
  Printf.printf "  %-18s %12s %14s\n" "system" "time (s)" "index (KB)";
  Printf.printf "  %-18s %12.3f %14.1f\n" "Glimpse on UNIX" direct_time
    (float_of_int direct_bytes /. 1024.);
  Printf.printf "  %-18s %12.3f %14.1f\n" "Glimpse via HAC" hac_time
    (float_of_int hac_bytes /. 1024.);
  let time_over = Timer.pct_over ~base:direct_time hac_time in
  let space_over =
    Timer.pct_over ~base:(float_of_int direct_bytes) (float_of_int hac_bytes)
  in
  Printf.printf "\n  time overhead: %.1f%% (paper 27%%)   space overhead: %.1f%% (paper 15%%)\n"
    time_over space_over;
  shape "indexing through HAC costs extra time" (time_over > 0.0);
  shape "space overhead modest (< 60%)" (space_over > 0.0 && space_over < 60.0)

(* --------------------------------------------------------- *)
(* Table 4: query cost vs selectivity, search vs smkdir      *)
(* --------------------------------------------------------- *)

let table_4 () =
  banner "Table 4: query time by selectivity, Glimpse search vs HAC smkdir";
  Printf.printf
    "  paper: queries matching few files -> HAC ~4x slower; intermediate ->\n\
    \  ~15%% overhead; many files -> ~2%% overhead (fixed semantic-directory\n\
    \  creation cost amortises with result size)\n\n";
  let corpus = Corpus.make ~seed:23 () in
  (* Planted markers are unique words, so stemming adds nothing.  A
     document-granular index (block_size 1) isolates the semantic-directory
     overhead the table is about from block-expansion noise; its postings
     vouch for every candidate of this freshly indexed corpus, so both arms
     answer from the postings plus a read-permission check. *)
  let t = Hac.create ~stem:false ~block_size:1 () in
  let files = Corpus.build_tree corpus (Hac.fs t) ~root:"/db" corpus_spec in
  let n = List.length files in
  (* Plant three marker words at controlled document frequencies. *)
  let plant word count = ignore (Corpus.plant (Hac.fs t) ~paths:files ~word ~count) in
  let few = 4 and mid = n * 15 / 100 and many = n * 70 / 100 in
  plant "zqfew" few;
  plant "zqmid" mid;
  plant "zqmany" many;
  ignore (Hac.reindex t ());
  (* The direct-Glimpse baseline reads files natively, not through HAC; its
     index vouches for the same candidates as smkdir's evaluation. *)
  let reader = Remote_fs.fs_reader (Hac.fs t) in
  let reps = if quick then 5 else 11 in
  let glimpse_time word =
    Gc.major ();
    Timer.median reps (fun () -> ignore (Search.search_word (Hac.index t) reader word))
  in
  let counter = ref 0 in
  let hac_time word =
    Gc.major ();
    Timer.median reps (fun () ->
        incr counter;
        let dir = Printf.sprintf "/q%d" !counter in
        Hac.smkdir t dir word;
        Hac.srmdir t dir)
  in
  Printf.printf "  %-14s %8s %14s %14s %9s\n" "selectivity" "matches" "glimpse (ms)"
    "smkdir (ms)" "ratio";
  let results =
    List.map
      (fun (label, word, count) ->
        let g = glimpse_time word and h = hac_time word in
        Printf.printf "  %-14s %8d %14.3f %14.3f %8.2fx\n" label count (g *. 1000.)
          (h *. 1000.) (h /. g);
        (label, g, h))
      [ ("few", "zqfew", few); ("intermediate", "zqmid", mid); ("many", "zqmany", many) ]
  in
  (match results with
  | [ (_, gf, hf); (_, gm, hm); (_, gl, hl) ] ->
      let rf = hf /. gf and rm = hm /. gm and rl = hl /. gl in
      shape "HAC never faster (creating a directory costs something)"
        (rf >= 1.0 && rm >= 0.9 && rl >= 0.9);
      (* The mid and large classes sit within measurement noise of each
         other once the fixed cost has amortised; require strict decrease
         from the selective class and near-parity beyond. *)
      shape "overhead ratio decreases as selectivity grows"
        (rf > rm && rf > rl && rm <= rl *. 1.15 +. 0.05);
      shape "highly selective queries pay the biggest relative price (paper: 4x)"
        (rf >= 1.5)
  | _ -> ());
  n

(* ----------------------------- *)
(* In-text space measurements    *)
(* ----------------------------- *)

let space_section indexed_files =
  banner "Space overheads (in-text measurements of section 4)";
  Printf.printf
    "  paper: HAC metadata 222 KB vs UNIX 210 KB (~5%% more); ~16 KB shared\n\
    \  memory per process; N/8 bytes of result bitmap per semantic directory\n\n";
  (* Replay the Andrew tree through HAC and account for everything. *)
  let t = Hac.create () in
  let ops = Fsops.of_hac t in
  ignore (Andrew.run source ops ~dest:"/dest");
  ignore (Hac.reindex t ());
  Hac.smkdir t "/sd1" "checksum OR object";
  Hac.smkdir t "/sd2" "nothing AND here";
  let sp = Hac.space t in
  let fs_kb = float_of_int sp.Hac.fs_metadata_bytes /. 1024. in
  let hac_kb =
    float_of_int (sp.Hac.fs_metadata_bytes + Hac.hac_overhead_bytes sp) /. 1024.
  in
  Printf.printf "  UNIX metadata : %8.1f KB\n" fs_kb;
  Printf.printf "  + HAC         : %8.1f KB  (+%.1f%%; paper ~5%%)\n" hac_kb
    (Timer.pct_over ~base:fs_kb hac_kb);
  (* Per-process shared memory: a descriptor table plus an attribute cache
     loaded by a scan of the tree. *)
  let fds = Hac_vfs.Fd_table.create (Hac.fs t) in
  let cache = Hac_vfs.Attr_cache.create (Hac.fs t) in
  Fs.walk (Hac.fs t) "/dest" (fun p st ->
      ignore (Hac_vfs.Attr_cache.stat cache p);
      if st.Fs.st_kind = Hac_vfs.Event.File then begin
        let fd = Hac_vfs.Fd_table.openfile fds Hac_vfs.Fd_table.Read_only p in
        if Hac_vfs.Fd_table.open_count fds > 16 then Hac_vfs.Fd_table.close fds fd
      end);
  let per_process =
    Hac_vfs.Fd_table.approx_bytes fds + Hac_vfs.Attr_cache.approx_bytes cache
  in
  Printf.printf "  per-process fd table + attribute cache: %.1f KB (paper ~16 KB)\n"
    (float_of_int per_process /. 1024.);
  let bitmap = Fileset.paper_byte_size ~universe:indexed_files in
  Printf.printf "  result bitmap per semantic directory for N=%d files: %d bytes (N/8)\n"
    indexed_files bitmap;
  Printf.printf "  (for the paper's N=17000: %d bytes ~ 2 KB)\n"
    (Fileset.paper_byte_size ~universe:17000);
  shape "HAC metadata overhead small (< 35%)" (Timer.pct_over ~base:fs_kb hac_kb < 35.0)

(* ------------------------------------------ *)
(* Ablation: Glimpse block size (design knob) *)
(* ------------------------------------------ *)

let ablation_block_size () =
  banner "Ablation: index block size (space vs verification cost)";
  Printf.printf
    "  Glimpse's design: coarser blocks shrink the index but widen candidate\n\
    \  sets, so verified queries slow down.  block_size=1 is a precise\n\
    \  document-level inverted index.\n\n";
  let fs, files = build_corpus_fs () in
  let reader = Remote_fs.fs_reader fs in
  ignore (Corpus.plant fs ~paths:files ~word:"zqmid" ~count:(List.length files * 15 / 100));
  Printf.printf "  %-12s %14s %16s\n" "block_size" "postings (KB)" "query (ms)";
  (* The space a block bitmap per term would take: every term's postings
     coarsened to the block ids they fall in.  The index keeps only the
     doc-granular postings, so the figure is read off those. *)
  let block_postings_bytes idx bs =
    let total = ref 0 in
    Index.iter_cas_terms idx (fun key docs ->
        let blocks =
          Fileset.of_increasing_iter (fun f ->
              let last = ref (-1) in
              Fileset.iter
                (fun id ->
                  if id / bs <> !last then begin
                    last := id / bs;
                    f !last
                  end)
                docs)
        in
        total := !total + String.length key + Fileset.byte_size blocks);
    !total
  in
  let measure bs =
    let idx = Index.create ~block_size:bs () in
    List.iter
      (fun p -> ignore (Index.add_document idx ~path:p ~content:(Fs.read_file fs p)))
      files;
    let q = Timer.median 5 (fun () -> ignore (Search.search_word idx reader "zqmid")) in
    (block_postings_bytes idx bs, q)
  in
  let rows = List.map (fun bs -> (bs, measure bs)) [ 1; 4; 8; 16; 32 ] in
  List.iter
    (fun (bs, (bytes, q)) ->
      Printf.printf "  %-12d %14.1f %16.3f\n" bs (float_of_int bytes /. 1024.) (q *. 1000.))
    rows;
  match (List.hd rows, List.rev rows |> List.hd) with
  | (_, (b1, q1)), (_, (b32, q32)) ->
      shape "coarser blocks shrink the index" (b32 < b1);
      shape "coarser blocks slow verified queries" (q32 > q1)

(* --------------------------------------------------------------- *)
(* Ablation: lazy materialisation of transient links (our design)  *)
(* --------------------------------------------------------------- *)

let ablation_lazy_links () =
  banner "Ablation: bitmap result storage with lazy link materialisation";
  Printf.printf
    "  The paper stores each directory's query result as an N/8-byte bitmap;\n\
    \  physical symbolic links appear on first access.  This splits smkdir\n\
    \  cost (evaluate + store) from access cost (expand links), which is why\n\
    \  Table 4's overhead shrinks as results grow.\n\n";
  let corpus = Corpus.make ~seed:29 () in
  let t = Hac.create ~stem:false ~block_size:1 () in
  let files = Corpus.build_tree corpus (Hac.fs t) ~root:"/db" corpus_spec in
  ignore (Corpus.plant (Hac.fs t) ~paths:files ~word:"zqbig" ~count:(List.length files * 60 / 100));
  ignore (Hac.reindex t ());
  let counter = ref 0 in
  let time_of ~access =
    Timer.median 5 (fun () ->
        incr counter;
        let dir = Printf.sprintf "/lz%d%b" !counter access in
        Hac.smkdir t dir "zqbig";
        if access then ignore (Hac.readdir t dir))
  in
  let create_only = time_of ~access:false in
  let create_and_access = time_of ~access:true in
  Printf.printf "  smkdir only (bitmap stored)       : %8.3f ms\n" (create_only *. 1000.);
  Printf.printf "  smkdir + first access (links made): %8.3f ms\n"
    (create_and_access *. 1000.);
  Printf.printf "  deferred fraction                  : %7.1f%%\n"
    (Timer.pct_over ~base:create_only create_and_access);
  shape "materialisation cost is real and deferred" (create_and_access > create_only)

(* ------------------------------------------- *)
(* Ablation: stemming (index size vs recall)   *)
(* ------------------------------------------- *)

let ablation_stemming () =
  banner "Ablation: stemming (vocabulary collapse vs index size)";
  (* Inflect the synthetic words so suffix stripping has something to do,
     as English text would. *)
  let corpus = Corpus.make ~seed:31 () in
  let g = Hac_workload.Prng.make ~seed:32 in
  let suffixes = [| ""; "s"; "es"; "ed"; "ing"; "ly" |] in
  let files =
    List.init 200 (fun i ->
        let b = Buffer.create 2048 in
        for _ = 1 to 250 do
          Buffer.add_string b (Corpus.word corpus);
          Buffer.add_string b (Hac_workload.Prng.choice g suffixes);
          Buffer.add_char b ' '
        done;
        (Printf.sprintf "/d%d.txt" i, Buffer.contents b))
  in
  let build stem =
    let idx = Index.create ~stem () in
    let time =
      Timer.time_only (fun () ->
          List.iter (fun (p, c) -> ignore (Index.add_document idx ~path:p ~content:c)) files)
    in
    (idx, time)
  in
  let on, t_on = build true in
  let off, t_off = build false in
  Printf.printf "  %-10s %12s %14s %12s\n" "stemming" "vocab" "index (KB)" "time (s)";
  Printf.printf "  %-10s %12d %14.1f %12.3f\n" "on" (Index.vocabulary_size on)
    (float_of_int (Index.index_bytes on) /. 1024.)
    t_on;
  Printf.printf "  %-10s %12d %14.1f %12.3f\n" "off" (Index.vocabulary_size off)
    (float_of_int (Index.index_bytes off) /. 1024.)
    t_off;
  shape "stemming collapses the vocabulary"
    (Index.vocabulary_size on <= Index.vocabulary_size off)

(* ------------------------------------------------------------------ *)
(* Ablation: conjunctive evaluation (planner + restriction pushdown)  *)
(* ------------------------------------------------------------------ *)

let ablation_conjunctions () =
  banner "Ablation: selectivity-ordered conjunctions with restriction pushdown";
  Printf.printf
    "  'common AND rare': naive evaluation checks every candidate of both\n\
    \  terms; the planner orders the rare term first and the evaluator\n\
    \  restricts the common term's checks to the survivors.\n\n";
  let corpus = Corpus.make ~seed:37 () in
  let fs = Fs.create () in
  let files = Corpus.build_tree corpus fs ~root:"/db" corpus_spec in
  let n = List.length files in
  ignore (Corpus.plant fs ~paths:files ~word:"zqcommon" ~count:(n * 80 / 100));
  ignore (Corpus.plant fs ~paths:files ~word:"zqrare" ~count:3);
  let idx = Index.create ~stem:false ~block_size:1 () in
  List.iter
    (fun p -> ignore (Index.add_document idx ~path:p ~content:(Fs.read_file fs p)))
    files;
  let reader = Remote_fs.fs_reader fs in
  let naive () =
    Hac_bitset.Fileset.inter
      (Search.search_word idx reader "zqcommon")
      (Search.search_word idx reader "zqrare")
  in
  let planned () =
    let rare = Search.search_word idx reader "zqrare" in
    Search.search_word ~within:rare idx reader "zqcommon"
  in
  (if not (Hac_bitset.Fileset.equal (naive ()) (planned ())) then
     Printf.printf "  WARNING: results differ!\n");
  let t_naive = Timer.median 7 (fun () -> ignore (naive ())) in
  let t_planned = Timer.median 7 (fun () -> ignore (planned ())) in
  Printf.printf "  naive (check both fully)      : %8.3f ms\n" (t_naive *. 1000.);
  Printf.printf "  planned (rare first, pushdown): %8.3f ms  (%.1fx faster)\n"
    (t_planned *. 1000.)
    (t_naive /. t_planned);
  shape "pushdown beats naive conjunction" (t_planned < t_naive)

(* -------------------------------------------------------- *)
(* Beyond the paper: a mixed read/write trace on all four   *)
(* -------------------------------------------------------- *)

let trace_replay () =
  banner "Extra workload: mixed read/write trace (beyond the paper)";
  Printf.printf
    "  The Andrew Benchmark is phase-separated; this deterministic trace\n\
    \  interleaves reads, stats, listings and rewrites (80%% reads), closer\n\
    \  to an interactive session.\n\n";
  let trace =
    Hac_workload.Trace.generate ~seed:41
      ~profile:
        {
          Hac_workload.Trace.dirs = 15;
          files = (if quick then 80 else 200);
          ops = (if quick then 1500 else 4000);
          read_fraction = 0.8;
          words_per_file = 120;
        }
      ()
  in
  let systems =
    [
      ("UNIX", fun () -> Fsops.of_fs (Fs.create ()));
      ("HAC", fun () -> Fsops.of_hac (Hac.create ()));
      ( "Jade",
        fun () ->
          let fs = Fs.create () in
          let j = Jade_fs.create fs in
          Fs.mkdir_p fs "/vol0";
          Jade_fs.add_mapping j ~logical:"/trace" ~physical:"/vol0/trace";
          Jade_fs.ops j );
      ("Pseudo", fun () -> Pseudo_fs.ops (Pseudo_fs.create (Fs.create ())));
    ]
  in
  let rounds = 5 in
  let measure mk_ops =
    let samples =
      List.init rounds (fun _ ->
          Gc.major ();
          let ops = mk_ops () in
          Timer.time_only (fun () -> ignore (Hac_workload.Trace.replay trace ops)))
    in
    List.nth (List.sort compare samples) (rounds / 2)
  in
  let base = measure (List.assoc "UNIX" systems) in
  Printf.printf "  %-10s %12s %12s\n" "system" "time (ms)" "%slowdown";
  Printf.printf "  %-10s %12.2f %12s\n" "UNIX" (base *. 1000.) "-";
  let slowdowns =
    List.filter_map
      (fun (label, mk) ->
        if label = "UNIX" then None
        else begin
          let t = measure mk in
          let pct = Timer.pct_over ~base t in
          Printf.printf "  %-10s %12.2f %12.1f\n" label (t *. 1000.) pct;
          Some (label, pct)
        end)
      systems
  in
  shape "every layer costs something on a mixed trace"
    (List.for_all (fun (_, pct) -> pct > -5.0) slowdowns)

(* ------------------------------------------------------------- *)
(* Beyond the paper: fault tolerance of remote namespaces        *)
(* ------------------------------------------------------------- *)

let fault_tolerance () =
  banner "Beyond the paper: fault-tolerant remote namespaces";
  Printf.printf
    "  A semantic directory mounted over a flaky remote: retries and the\n\
    \  circuit breaker bound the cost of failure, stale entries keep the\n\
    \  directory usable.  (Delays are virtual; times below are real work.)\n\n";
  let module Namespace = Hac_remote.Namespace in
  let module Fault = Hac_fault.Fault in
  let setup () =
    let t = Hac.create () in
    Hac.smkdir t "/docs" "sorting OR indexing";
    let ns =
      Namespace.static ~ns_id:"bench-lib"
        (List.init 50 (fun i ->
             ( Printf.sprintf "doc%02d.ps" i,
               Printf.sprintf "dlib://bench/doc%02d.ps" i,
               if i mod 2 = 0 then "A survey of sorting networks.\n"
               else "Notes on inverted indexing.\n" )))
    in
    let clock = Hac.clock t in
    let inj = Fault.create ~seed:7 ~clock () in
    Hac.smount t "/docs" (Namespace.with_policy ~clock (Namespace.with_faults inj ns));
    (t, inj)
  in
  let rounds = if quick then 20 else 100 in
  let measure_resyncs t =
    Gc.major ();
    Timer.time_only (fun () ->
        for _ = 1 to rounds do
          Hac.ssync t "/docs"
        done)
  in
  let t, inj = setup () in
  let healthy = measure_resyncs t in
  let entries_before = List.length (Hac.links t "/docs") in
  Fault.set_plans inj [ Fault.Outage ];
  let failing = measure_resyncs t in
  let entries_during = List.length (Hac.links t "/docs") in
  let stale = List.length (Hac.stale_remotes t "/docs") in
  let status_open =
    List.exists
      (fun { Hac.mh_health; _ } ->
        match mh_health with
        | Some h -> h.Namespace.breaker = Hac_fault.Breaker.Open
        | None -> false)
      (Hac.mount_status t)
  in
  Fault.clear inj;
  Hac_fault.Clock.advance (Hac.clock t) 60.0;
  Hac.ssync t "/docs";
  let stale_after = List.length (Hac.stale_remotes t "/docs") in
  Printf.printf "  %-34s %12s\n" "condition" "ms/resync";
  Printf.printf "  %-34s %12.3f\n" "healthy namespace" (healthy *. 1000. /. float rounds);
  Printf.printf "  %-34s %12.3f\n" "total outage (breaker engaged)"
    (failing *. 1000. /. float rounds);
  Printf.printf "  entries: %d healthy, %d during outage (%d stale), %d stale after recovery\n"
    entries_before entries_during stale stale_after;
  shape "outage never breaks re-evaluation" (entries_during = entries_before);
  shape "breaker opens under persistent failure" status_open;
  shape "recovery drops the stale markers" (stale_after = 0)

(* ------------------------------------------------------------------- *)
(* Beyond the paper: incremental settle (dirty-delta sync + the cache) *)
(* ------------------------------------------------------------------- *)

let incremental_settle () =
  banner "Incremental settle: dirty-delta sync vs full re-evaluation";
  Printf.printf
    "  After k files change, sync_delta re-evaluates every query only over\n\
    \  the delta documents and patches the link sets; sync_all re-evaluates\n\
    \  everything.  The per-directory result cache serves directories whose\n\
    \  generation is unchanged.  Writes %s.\n\n"
    json_path;
  let n_files, n_dirs, k =
    if smoke then (60, 6, 3) else if quick then (400, 20, 5) else (2000, 50, 10)
  in
  let t = Hac.create ~stem:false () in
  let fs = Hac.fs t in
  Fs.mkdir_p fs "/data";
  let path i = Printf.sprintf "/data/f%04d.txt" i in
  let filler = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do" in
  (* File i always carries its home-class marker; touching it toggles a
     second marker, so membership in the alt class really changes. *)
  let content ~toggled i =
    let home = i mod n_dirs and alt = (i + 7) mod n_dirs in
    Printf.sprintf "%s wm%03d %s" filler home
      (if toggled then Printf.sprintf "wm%03d" alt else "plain")
  in
  for i = 0 to n_files - 1 do
    Fs.write_file fs (path i) (content ~toggled:false i)
  done;
  for j = 0 to n_dirs - 1 do
    Hac.smkdir t (Printf.sprintf "/s%02d" j) (Printf.sprintf "wm%03d" j)
  done;
  ignore (Hac.reindex_full t ());
  let toggled = ref false in
  let touch () =
    toggled := not !toggled;
    for j = 0 to k - 1 do
      let i = j * ((n_files / k) + 1) mod n_files in
      Fs.write_file fs (path i) (content ~toggled:!toggled i)
    done
  in
  let reps = if smoke then 3 else 5 in
  let measure settle =
    let samples =
      List.init reps (fun _ ->
          touch ();
          Gc.major ();
          Timer.time_only (fun () -> settle ()))
    in
    List.nth (List.sort compare samples) (reps / 2)
  in
  let full_s = measure (fun () -> ignore (Hac.reindex_full t ())) in
  let delta_s = measure (fun () -> ignore (Hac.reindex t ())) in
  (* Fixpoint check: the delta settle must land exactly where the oracle does. *)
  let snapshot () =
    List.init n_dirs (fun j ->
        List.sort compare
          (List.map
             (fun l -> l.Hac_core.Link.name)
             (Hac.links t (Printf.sprintf "/s%02d" j))))
  in
  (* Verification work of one delta settle: deterministic counts, gated by
     the regression check where timings are not. *)
  let counter name =
    match Metrics.find (Hac.metrics t) name with Some (Metrics.Counter_value n) -> n | _ -> 0
  in
  touch ();
  let verified0 = counter "search.docs_verified" and trusted0 = counter "search.docs_trusted" in
  let dirs0 = counter "sync.dirs_reevaluated" in
  let files0 = counter "sync.persist.files" and changed0 = counter "sync.dirs_changed" in
  ignore (Hac.reindex t ());
  let verified = counter "search.docs_verified" - verified0
  and trusted = counter "search.docs_trusted" - trusted0
  and dirs_reevaluated = counter "sync.dirs_reevaluated" - dirs0 in
  (* The touch moved results only: each changed directory rewrites its
     result file, not its query, link and prohibition files. *)
  let files_per_changed =
    float_of_int (counter "sync.persist.files" - files0)
    /. float_of_int (max 1 (counter "sync.dirs_changed" - changed0))
  in
  let after_delta = snapshot () in
  ignore (Hac.reindex_full t ());
  let after_full = snapshot () in
  (* Steady state: a no-change sync_all should be answered by the cache. *)
  Hac.reset_result_cache_stats t;
  let noop_s = Timer.time_only (fun () -> Hac.sync_all t) in
  Hac.sync_all t;
  let rc = Hac.result_cache_stats t in
  let hits = rc.Hac_core.Rescache.hits and misses = rc.Hac_core.Rescache.misses in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  (* Compaction by drift, on a fresh instance over the same corpus: [k]
     files rewritten in place, then the second half removed, which crosses
     the stale ratio.  The compaction re-tokenizes the [k] drifted files,
     not the live corpus. *)
  let reposted_per_compaction =
    let c = Hac.create ~stem:false () in
    let cfs = Hac.fs c in
    Fs.mkdir_p cfs "/data";
    for i = 0 to n_files - 1 do
      Fs.write_file cfs (path i) (content ~toggled:false i)
    done;
    ignore (Hac.reindex c ());
    for i = 0 to k - 1 do
      Fs.write_file cfs (path i) (content ~toggled:true i)
    done;
    ignore (Hac.reindex c ());
    for i = n_files / 2 to n_files - 1 do
      Fs.unlink cfs (path i)
    done;
    let counter name =
      match Metrics.find (Hac.metrics c) name with Some (Metrics.Counter_value n) -> n | _ -> 0
    in
    let rebuilds0 = counter "sync.index.rebuilds" and reposted0 = counter "index.compact.reposted" in
    ignore (Hac.reindex c ());
    (counter "index.compact.reposted" - reposted0)
    / max 1 (counter "sync.index.rebuilds" - rebuilds0)
  in
  let speedup = full_s /. delta_s in
  Printf.printf "  corpus: %d files, %d semantic dirs, %d files touched per settle\n\n"
    n_files n_dirs k;
  Printf.printf "  %-34s %12s\n" "settle strategy" "median (ms)";
  Printf.printf "  %-34s %12.3f\n" "full (reindex + sync_all)" (full_s *. 1000.);
  Printf.printf "  %-34s %12.3f\n" "delta (reindex + sync_delta)" (delta_s *. 1000.);
  Printf.printf "  %-34s %12.3f\n" "no-change sync_all (cache warm)" (noop_s *. 1000.);
  Printf.printf "\n  speedup: %.1fx   cache: %d hits / %d misses (%.0f%% hit rate)\n" speedup
    hits misses (hit_rate *. 100.);
  Printf.printf "  delta settle: %d documents verified, %d trusted on their postings\n" verified
    trusted;
  Printf.printf "  delta settle: %d of %d directories re-evaluated\n" dirs_reevaluated n_dirs;
  Printf.printf "  delta settle: %.2f structure files written per changed directory\n"
    files_per_changed;
  Printf.printf "  compaction after %d in-place rewrites: %d documents re-tokenized (%d live)\n" k
    reposted_per_compaction (n_files / 2);
  shape "delta settle reaches the sync_all fixpoint" (after_delta = after_full);
  shape
    (Printf.sprintf "delta settle at least %s full"
       (if smoke || quick then "as fast as" else "5x faster than"))
    (speedup >= if smoke || quick then 1.0 else 5.0);
  shape "no-change sync_all served from the cache" (hits > 0 && misses = 0);
  shape "a result-only settle rewrites one structure file per changed directory"
    (files_per_changed = 1.0);
  shape "a compaction re-tokenizes only the drifted documents" (reposted_per_compaction = k);
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n";
  Printf.bprintf b
    "  \"config\": { \"files\": %d, \"semdirs\": %d, \"touched\": %d, \"reps\": %d, \
     \"mode\": \"%s\" },\n"
    n_files n_dirs k reps
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b "  \"full_settle_s\": %.6f,\n" full_s;
  Printf.bprintf b "  \"delta_settle_s\": %.6f,\n" delta_s;
  Printf.bprintf b "  \"speedup\": %.2f,\n" speedup;
  Printf.bprintf b "  \"noop_sync_all_s\": %.6f,\n" noop_s;
  Printf.bprintf b "  \"fixpoint_match\": %b,\n" (after_delta = after_full);
  Printf.bprintf b "  \"delta_docs\": { \"verified\": %d, \"trusted\": %d },\n" verified trusted;
  Printf.bprintf b "  \"dirs_reevaluated_per_settle\": %d,\n" dirs_reevaluated;
  Printf.bprintf b "  \"structure_files_per_changed_dir\": %.2f,\n" files_per_changed;
  Printf.bprintf b "  \"reposted_per_compaction\": %d,\n" reposted_per_compaction;
  Printf.bprintf b
    "  \"cache\": { \"hits\": %d, \"misses\": %d, \"entries\": %d, \"hit_rate\": %.3f }\n"
    hits misses rc.Hac_core.Rescache.entries hit_rate;
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "trajectory written to %s" json_path)
    (String.length payload > 2
    && payload.[0] = '{'
    && payload.[String.length payload - 2] = '}')

(* ------------------------------------------------------------------- *)
(* Observability: per-stage latency distributions + the overhead guard *)
(* ------------------------------------------------------------------- *)

(* The incremental-settle workload as a reusable builder: [n_files] spread
   over [n_dirs] marker classes; [touch] rewrites [k] files so membership
   in the alternate class really changes on every settle. *)
let settle_workload ~n_files ~n_dirs ~k () =
  let t = Hac.create ~stem:false () in
  let fs = Hac.fs t in
  Fs.mkdir_p fs "/data";
  let path i = Printf.sprintf "/data/f%04d.txt" i in
  let filler = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do" in
  let content ~toggled i =
    let home = i mod n_dirs and alt = (i + 7) mod n_dirs in
    Printf.sprintf "%s wm%03d %s" filler home
      (if toggled then Printf.sprintf "wm%03d" alt else "plain")
  in
  for i = 0 to n_files - 1 do
    Fs.write_file fs (path i) (content ~toggled:false i)
  done;
  for j = 0 to n_dirs - 1 do
    Hac.smkdir t (Printf.sprintf "/s%02d" j) (Printf.sprintf "wm%03d" j)
  done;
  ignore (Hac.reindex_full t ());
  let toggled = ref false in
  let touch () =
    toggled := not !toggled;
    for j = 0 to k - 1 do
      let i = j * ((n_files / k) + 1) mod n_files in
      Fs.write_file fs (path i) (content ~toggled:!toggled i)
    done
  in
  (t, touch)

let obs_section () =
  banner "Observability: per-stage latency distributions (tracing on)";
  Printf.printf
    "  Every settle runs under the tracer; each finished span feeds a\n\
    \  span.<stage>.cpu_s histogram in the metrics registry, dumped below\n\
    \  with p50/p90/p99 per stage.  Writes %s.\n\n"
    obs_json_path;
  let n_files, n_dirs, k, passes =
    if smoke then (60, 6, 3, 6) else if quick then (300, 15, 5, 12) else (1000, 30, 8, 25)
  in
  let t, touch = settle_workload ~n_files ~n_dirs ~k () in
  Trace.set_enabled (Hac.tracer t) true;
  (* Mostly delta settles with a full one mixed in, so sync.delta,
     sync.full, sync.reindex and query.eval all accumulate samples. *)
  for p = 1 to passes do
    touch ();
    if p mod 5 = 0 then ignore (Hac.reindex_full t ()) else ignore (Hac.reindex t ())
  done;
  let m = Hac.metrics t in
  let stages =
    List.filter_map
      (fun (name, d) ->
        match d with
        | Metrics.Histogram_value s
          when String.length name > 11
               && String.sub name 0 5 = "span."
               && Filename.check_suffix name ".cpu_s" ->
            Some (String.sub name 5 (String.length name - 11), s)
        | _ -> None)
      (Metrics.dump m)
  in
  Printf.printf "  %-16s %7s %12s %12s %12s\n" "stage" "count" "p50 (us)" "p90 (us)"
    "p99 (us)";
  List.iter
    (fun (stage, s) ->
      Printf.printf "  %-16s %7d %12.2f %12.2f %12.2f\n" stage s.Metrics.count
        (s.Metrics.p50 *. 1e6) (s.Metrics.p90 *. 1e6) (s.Metrics.p99 *. 1e6))
    stages;
  shape "tracer populated a histogram for every settle stage"
    (List.mem_assoc "sync.reindex" stages
    && List.mem_assoc "sync.delta" stages
    && List.mem_assoc "sync.full" stages
    && List.mem_assoc "query.eval" stages);
  (* Overhead guard: tracing back off (one branch per span site), metrics
     updates on the settle path are a boolean test plus a store each.  An
     instrumented settle must sit within 10% of the same settle with the
     registry disabled; rounds are interleaved to decorrelate noise. *)
  Trace.set_enabled (Hac.tracer t) false;
  let reps = if smoke then 5 else 15 in
  (* Each sample times a batch of touch+settle cycles: a single smoke-size
     settle is ~0.2 ms, far below what wall-clock timing resolves reliably,
     and per-round ratios on such samples are pure noise. *)
  let batch = if smoke then 10 else if quick then 5 else 2 in
  let settle_once enabled =
    Metrics.set_enabled m enabled;
    Gc.major ();
    let s =
      Timer.time_only (fun () ->
          for _ = 1 to batch do
            touch ();
            ignore (Hac.reindex t ())
          done)
    in
    Metrics.set_enabled m true;
    s
  in
  (* One discarded warm-up pair: the first settle after the histogram pass
     hits cold caches and would skew whichever arm runs first. *)
  ignore (settle_once true);
  ignore (settle_once false);
  (* Paired rounds with the arm order alternating, judged by the median of
     the per-round overhead ratios.  A single difference-of-medians across
     unpaired lists flapped (negative overheads past the guard) because
     allocator and frequency drift between the arms dwarfed the effect
     being measured; pairing cancels the drift and the median discards the
     outlier rounds. *)
  let rounds =
    List.init reps (fun i ->
        if i mod 2 = 0 then (
          let on = settle_once true in
          (on, settle_once false))
        else
          let off = settle_once false in
          (settle_once true, off))
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let on_s = median (List.map fst rounds) /. float_of_int batch in
  let off_s = median (List.map snd rounds) /. float_of_int batch in
  let overhead_pct =
    median (List.map (fun (on, off) -> Timer.pct_over ~base:off on) rounds)
  in
  Printf.printf "\n  settle, metrics on  (tracing off): %8.3f ms\n" (on_s *. 1000.);
  Printf.printf "  settle, metrics off (tracing off): %8.3f ms\n" (off_s *. 1000.);
  Printf.printf "  instrumentation overhead: %+.1f%%  (median of %d paired rounds; guard: within 10%%)\n"
    overhead_pct reps;
  shape "tracing-off instrumentation overhead within 10%"
    (overhead_pct <= 10.0 || (on_s -. off_s) *. 1000. < 0.5);
  (* SLO-breach demo: a stalled environment (virtual-clock jump while
     writes queue) blows a deliberately tight write objective.  The
     burn-rate alert must fire, degrade the server with cause "slo", and
     the flight ring must freeze into a decodable image. *)
  let module Server = Hac_serve.Server in
  let module Msg = Hac_serve.Msg in
  let module Slo = Hac_obs.Slo in
  let module Flight = Hac_obs.Flight in
  let module Clock = Hac_fault.Clock in
  let alerts, cause_slo, img_bytes, img_events, decode_ok =
    let t2 = Hac.create ~stem:false () in
    Fs.mkdir_p (Hac.fs t2) "/srv";
    let config =
      {
        Server.default_config with
        slo_objectives = [ { Slo.op = "write"; latency_s = 0.5; goal = 0.9 } ];
      }
    in
    let server = Server.create ~config t2 in
    for i = 0 to 3 do
      ignore
        (Server.submit server
           ~session:(Printf.sprintf "w%d" i)
           (Msg.W (Msg.Write (Printf.sprintf "/srv/slo%d.txt" i, "x\n"))))
    done;
    Clock.advance (Hac.clock t2) 2.0;
    Server.pump server;
    let alerts =
      match Metrics.find (Hac.metrics t2) "slo.write.alerts" with
      | Some (Metrics.Counter_value n) -> n
      | _ -> 0
    in
    let cause_slo = List.mem "slo" (Server.degraded_causes server) in
    let img = Flight.encode ~reason:"bench slo breach" (Hac.flight t2) in
    let decode_ok, img_events =
      match Flight.decode img with
      | Ok d -> (true, List.length d.Hac_obs.Flight.events)
      | Error _ -> (false, 0)
    in
    Server.drain server;
    Server.stop server;
    (alerts, cause_slo, String.length img, img_events, decode_ok)
  in
  Printf.printf
    "\n  slo-breach demo: %d alert(s), degraded cause slo=%b,\n\
    \  flight image %d bytes / %d events, decode %s\n"
    alerts cause_slo img_bytes img_events
    (if decode_ok then "ok" else "FAILED");
  shape "slo breach fires the burn-rate alert with cause slo" (alerts >= 1 && cause_slo);
  shape "flight image decodes with the run-up intact" (decode_ok && img_events > 0);
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b
    "  \"config\": { \"files\": %d, \"semdirs\": %d, \"touched\": %d, \"passes\": %d, \
     \"mode\": \"%s\" },\n"
    n_files n_dirs k passes
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b "  \"stages\": {\n";
  let n_stages = List.length stages in
  List.iteri
    (fun i (stage, s) ->
      Printf.bprintf b
        "    \"%s\": { \"count\": %d, \"sum_s\": %.6f, \"min_s\": %.9f, \"max_s\": %.9f, \
         \"p50_s\": %.9f, \"p90_s\": %.9f, \"p99_s\": %.9f }%s\n"
        (Metrics.json_escape stage) s.Metrics.count s.Metrics.sum s.Metrics.vmin
        s.Metrics.vmax s.Metrics.p50 s.Metrics.p90 s.Metrics.p99
        (if i = n_stages - 1 then "" else ","))
    stages;
  Printf.bprintf b "  },\n";
  Printf.bprintf b
    "  \"overhead\": { \"settle_metrics_on_s\": %.6f, \"settle_metrics_off_s\": %.6f, \
     \"pct\": %.2f, \"reps\": %d, \"guard_pct\": 10.0 },\n"
    on_s off_s overhead_pct reps;
  Printf.bprintf b
    "  \"slo_breach\": { \"alerts\": %d, \"degraded_cause_slo\": %b, \
     \"flight_image_bytes\": %d, \"flight_image_events\": %d, \"decode_ok\": %b }\n"
    alerts cause_slo img_bytes img_events decode_ok;
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out obs_json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "stage distributions written to %s" obs_json_path)
    (n_stages > 0 && String.length payload > 2 && payload.[0] = '{')

(* ----------------------------- *)
(* Bechamel micro-benchmarks     *)
(* ----------------------------- *)

let micro_benchmarks () =
  banner "Bechamel micro-benchmarks (per-operation costs behind each table)";
  let open Bechamel in
  (* Table 1 micro: a directory creation on UNIX vs HAC (phase 1's unit). *)
  let t1_unix =
    let fs = Fs.create () in
    let n = ref 0 in
    Test.make ~name:"table1/mkdir-unix"
      (Staged.stage (fun () ->
           incr n;
           Fs.mkdir fs (Printf.sprintf "/d%d" !n)))
  in
  let t1_hac =
    let t = Hac.create () in
    let n = ref 0 in
    Test.make ~name:"table1/mkdir-hac"
      (Staged.stage (fun () ->
           incr n;
           Hac.mkdir t (Printf.sprintf "/d%d" !n)))
  in
  (* Table 2 micro: one marshalled RPC round trip (the Pseudo FS unit). *)
  let t2_rpc =
    let fs = Fs.create () in
    Fs.write_file fs "/f" "payload";
    let p = Pseudo_fs.create fs in
    let ops = Pseudo_fs.ops p in
    Test.make ~name:"table2/pseudo-rpc-stat" (Staged.stage (fun () -> ops.Fsops.stat "/f"))
  in
  (* Table 3 micro: indexing one document. *)
  let t3_add =
    let corpus = Corpus.make ~seed:3 () in
    let doc = Corpus.document corpus ~words:200 in
    let idx = Index.create () in
    let n = ref 0 in
    Test.make ~name:"table3/index-add-doc"
      (Staged.stage (fun () ->
           incr n;
           ignore (Index.add_document idx ~path:(Printf.sprintf "/f%d" !n) ~content:doc)))
  in
  (* Table 4 micro: one word query over doc-granular postings. *)
  let t4_query =
    let corpus = Corpus.make ~seed:4 () in
    let fs = Fs.create () in
    let files = Corpus.build_tree corpus fs ~root:"/db" Corpus.small_tree in
    ignore (Corpus.plant fs ~paths:files ~word:"zq" ~count:3);
    let idx = Index.create () in
    List.iter
      (fun p -> ignore (Index.add_document idx ~path:p ~content:(Fs.read_file fs p)))
      files;
    let reader = Remote_fs.fs_reader fs in
    Test.make ~name:"table4/verified-query"
      (Staged.stage (fun () -> ignore (Search.search_word idx reader "zq")))
  in
  let tests = [ t1_unix; t1_hac; t2_rpc; t3_add; t4_query ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun key raw ->
          match Analyze.one ols Toolkit.Instance.monotonic_clock raw with
          | ols_result -> (
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Printf.printf "  %-26s %14.1f ns/op\n" key est
              | Some _ | None -> Printf.printf "  %-26s (no estimate)\n" key)
          | exception _ -> Printf.printf "  %-26s (analysis failed)\n" key)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Beyond the paper: remount latency vs journal history (checkpoints)  *)
(* ------------------------------------------------------------------ *)

module Image = Hac_vfs.Image
module Recover = Hac_core.Recover

(* An image whose journal holds [history] records of churn (mkdir+rmdir
   pairs leave live state constant while the log grows), then — under the
   checkpointed variant — a checkpoint + compaction, then [delta] more
   records.  Live state is identical across all variants. *)
let recovery_image ~history ~delta ~checkpointed =
  let t = Hac.create ~stem:false () in
  let fs = Hac.fs t in
  Fs.mkdir_p fs "/data";
  Fs.write_file fs "/data/a.txt" "alpha apple";
  Fs.write_file fs "/data/b.txt" "alpha banana";
  Hac.smkdir t "/sem" "alpha";
  let churn n =
    for _ = 1 to n / 2 do
      Hac.mkdir t "/churn";
      Hac.rmdir t "/churn"
    done
  in
  churn history;
  if checkpointed then begin
    ignore (Hac.checkpoint t);
    ignore (Hac.compact t)
  end;
  churn delta;
  Hac.settle t;
  Hac.shutdown ~graceful:true t;
  Image.dump fs

let remount img =
  match Image.load img with
  | Error e -> failwith e
  | Ok fs ->
      let t = Hac.of_fs fs in
      Recover.reload_report t

let percentile samples q =
  let a = Array.of_list (List.sort compare samples) in
  a.(min (Array.length a - 1) (int_of_float (ceil (q *. float (Array.length a - 1)))))

let recovery_section () =
  banner "Crash recovery: remount latency vs journal history";
  Printf.printf
    "  Remount = image load + journal-chain replay + structure restore.\n\
    \  The churn workload grows the journal without growing live state, so\n\
    \  an uncheckpointed remount pays for history while a checkpointed one\n\
    \  pays only for the post-checkpoint delta.  Writes %s.\n\n"
    rec_json_path;
  let histories = if smoke then [ 20; 60; 120 ] else if quick then [ 100; 400; 1600 ] else [ 100; 1000; 10000 ] in
  let delta = if smoke then 4 else 10 in
  let reps = if smoke then 3 else 7 in
  let points =
    List.concat_map
      (fun history ->
        List.map
          (fun checkpointed ->
            let img = recovery_image ~history ~delta ~checkpointed in
            let r = remount img in
            let samples = List.init reps (fun _ -> Timer.time_only (fun () -> ignore (remount img))) in
            (history, checkpointed, r, percentile samples 0.5, percentile samples 0.9))
          [ false; true ])
      histories
  in
  Printf.printf "  %-10s %-12s %9s %9s %12s %12s\n" "history" "checkpoint" "applied" "segments"
    "p50 (ms)" "p90 (ms)";
  List.iter
    (fun (history, ckpt, (r : Recover.reload_report), p50, p90) ->
      Printf.printf "  %-10d %-12s %9d %9d %12.3f %12.3f\n" history
        (if ckpt then "on" else "off")
        r.Recover.journal.Recover.applied r.Recover.segments_replayed (p50 *. 1000.)
        (p90 *. 1000.))
    points;
  let sel ckpt = List.filter (fun (_, c, _, _, _) -> c = ckpt) points in
  let applied_of (_, _, (r : Recover.reload_report), _, _) = r.Recover.journal.Recover.applied in
  let p50_of (_, _, _, p, _) = p in
  let plain = sel false and ckpt = sel true in
  let last l = List.nth l (List.length l - 1) in
  shape "every remount restores the semantic dir"
    (List.for_all (fun (_, _, (r : Recover.reload_report), _, _) -> r.Recover.restored = 1) points);
  shape "checkpointed chains replay exactly one segment"
    (List.for_all
       (fun (_, _, (r : Recover.reload_report), _, _) ->
         r.Recover.checkpoint_epoch <> None && r.Recover.segments_replayed = 1)
       ckpt);
  (* The acceptance shape: replayed record counts track history without a
     checkpoint and only the (constant) delta with one. *)
  shape "uncheckpointed replay grows with history"
    (applied_of (last plain) > applied_of (List.hd plain));
  shape "checkpointed replay is independent of history"
    (List.for_all (fun p -> applied_of p = applied_of (List.hd ckpt)) ckpt);
  if not (smoke || quick) then
    shape "checkpointed remount beats full replay at max history"
      (p50_of (last ckpt) < p50_of (last plain));
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"config\": { \"delta\": %d, \"reps\": %d, \"mode\": \"%s\" },\n" delta reps
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b "  \"points\": [\n";
  List.iteri
    (fun i (history, c, (r : Recover.reload_report), p50, p90) ->
      Printf.bprintf b
        "    { \"journal_records\": %d, \"checkpoint\": %b, \"applied\": %d, \
         \"segments_replayed\": %d, \"restored\": %d, \"remount_p50_s\": %.6f, \
         \"remount_p90_s\": %.6f }%s\n"
        history c r.Recover.journal.Recover.applied r.Recover.segments_replayed
        r.Recover.restored p50 p90
        (if i = List.length points - 1 then "" else ","))
    points;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b "  \"checkpointed_applied_constant\": %b,\n"
    (List.for_all (fun p -> applied_of p = applied_of (List.hd ckpt)) ckpt);
  Printf.bprintf b "  \"uncheckpointed_applied_grows\": %b\n"
    (applied_of (last plain) > applied_of (List.hd plain));
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out rec_json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "remount curve written to %s" rec_json_path)
    (String.length payload > 2
    && payload.[0] = '{'
    && payload.[String.length payload - 2] = '}')

(* --------------------------------------------------------------------- *)
(* Content-and-structure index: the path-scoped lookup crossover study   *)
(* --------------------------------------------------------------------- *)

let index_section () =
  banner "CAS index: path-scoped lookups vs Glimpse block expansion";
  Printf.printf
    "  A term lookup scoped under a directory intersects the term's one\n\
    \  sorted posting array with the scope's live documents (CAS: the\n\
    \  doc-granular index); the baseline is a block_size 8 index over\n\
    \  the same corpus, whose lookups answer the term's whole blocks and\n\
    \  intersect with the subtree set afterwards.  The block arm verifies\n\
    \  every candidate; the CAS arm only those its postings cannot vouch\n\
    \  for.  Answers are identical; the sweep crosses scope\n\
    \  selectivity with term frequency and reports where each wins.  It\n\
    \  also times posting one document into a 900-document index.  A\n\
    \  cell is the median of batched loops of >= 1 ms on a monotonic\n\
    \  clock.  Writes %s.\n\n"
    index_json_path;
  let top, sub, per_leaf = if smoke then (5, 4, 100) else (10, 10, 1000) in
  let n_docs = top * sub * per_leaf in
  let rare_stride = if smoke then 97 else 997 in
  let idx = Index.create ~stem:false () in
  let blocks = Index.create ~stem:false ~block_size:8 () in
  let contents = Hashtbl.create (2 * n_docs) in
  let doc = ref 0 in
  for a = 0 to top - 1 do
    for b = 0 to sub - 1 do
      for f = 0 to per_leaf - 1 do
        let i = !doc in
        incr doc;
        let path = Printf.sprintf "/d%02d/s%d/f%05d.txt" a b f in
        (* Three frequency classes: [common] is in every document, [decim]
           in every 10th, [sparse] in every [rare_stride]th; the leaf word
           keeps the vocabulary from degenerating to three terms. *)
        let content =
          String.concat " "
            (List.filter
               (fun s -> s <> "")
               [
                 "common";
                 (if i mod 10 = 0 then "decim" else "");
                 (if i mod rare_stride = 0 then "sparse" else "");
                 Printf.sprintf "leaf%02d%d" a b;
               ])
        in
        Hashtbl.replace contents path content;
        ignore (Index.add_document idx ~path ~content);
        ignore (Index.add_document blocks ~path ~content)
      done
    done
  done;
  let reader = { Search.read = Hashtbl.find_opt contents; may_read = Hashtbl.mem contents } in
  let scopes = [ ("/d00/s0", per_leaf); ("/d00", sub * per_leaf); ("/", n_docs) ] in
  let terms = [ ("common", 1); ("decim", 10); ("sparse", rare_stride) ] in
  let reps = if smoke then 7 else 21 in
  let median samples = List.nth (List.sort compare samples) (List.length samples / 2) in
  let scope_docs scope =
    if scope = "/" then Index.universe idx else Index.doc_ids_under idx scope
  in
  (* Seconds per call: [reps] batches, each repeating the call often enough
     to last at least 1 ms on the monotonic clock (the count is calibrated
     once), so no cell sits at clock resolution. *)
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9 in
  let batch n run =
    let t0 = now () in
    for _ = 1 to n do
      run ()
    done;
    now () -. t0
  in
  let per_call run =
    let rec calibrate n = if batch n run >= 1e-3 then n else calibrate (2 * n) in
    let n = calibrate 1 in
    median (List.init reps (fun _ -> batch n run /. float_of_int n))
  in
  (* The timed operation is candidate generation + scope intersection — the
     part the granularity changes.  The block arm passes no scope hint: a
     block lookup answers the whole term.  Verification is checked
     separately below. *)
  let arm ~cas scope =
    if cas then (idx, if scope = "/" then None else Some scope) else (blocks, None)
  in
  let time_lookup ~cas term scope =
    let idx, under = arm ~cas scope in
    let sdocs = scope_docs scope in
    per_call (fun () ->
        ignore (Fileset.cardinal (Fileset.inter (Index.candidate_docs ?under idx term) sdocs)))
  in
  let verified ~cas term scope =
    let idx, under = arm ~cas scope in
    Fileset.inter (Search.search_word ?under idx reader term) (scope_docs scope)
  in
  let cells =
    List.concat_map
      (fun (term, stride) ->
        List.map
          (fun (scope, scope_size) ->
            let old_s = time_lookup ~cas:false term scope in
            let new_s = time_lookup ~cas:true term scope in
            let same = Fileset.equal (verified ~cas:false term scope) (verified ~cas:true term scope) in
            (term, stride, scope, scope_size, old_s, new_s, same))
          scopes)
      terms
  in
  let stats = Index.cas_stats idx in
  Printf.printf "  corpus: %d docs in %d leaf dirs (%d per leaf)\n\n" n_docs (top * sub)
    per_leaf;
  let spd o n = o /. Float.max 1e-9 n in
  Printf.printf "  %-8s %-10s %10s %14s %14s %9s\n" "term" "scope" "scope-docs" "blocks (us)"
    "CAS (us)" "speedup";
  List.iter
    (fun (term, _, scope, scope_size, old_s, new_s, _) ->
      Printf.printf "  %-8s %-10s %10d %14.2f %14.2f %8.1fx\n" term scope scope_size
        (old_s *. 1e6) (new_s *. 1e6) (spd old_s new_s))
    cells;
  let ratio =
    if stats.Hac_index.Cas.bytes = 0 then 1.0
    else
      float_of_int stats.Hac_index.Cas.uncompressed_bytes
      /. float_of_int stats.Hac_index.Cas.bytes
  in
  Printf.printf
    "\n  postings: %d bytes compressed (%d arrays, %d bitmaps, %d runs)\n\
    \  vs %d bytes as one flat bitmap per term: %.1fx smaller\n"
    stats.Hac_index.Cas.bytes stats.Hac_index.Cas.arrays stats.Hac_index.Cas.bitmaps
    stats.Hac_index.Cas.run_containers stats.Hac_index.Cas.uncompressed_bytes ratio;
  (* Crossover narrative.  Every CAS lookup intersects the term's cached
     snapshot with a set: the live documents unscoped, the scope's under a
     directory.  The narrower the scope, the smaller that set and the
     intersection, so the advantage over block expansion decays as the
     scope widens — read off the mid-frequency term, whose answers are
     large enough for the intersection to show. *)
  let cell term scope =
    let _, _, _, _, o, n, _ =
      List.find (fun (t, _, s, _, _, _, _) -> t = term && s = scope) cells
    in
    (o, n)
  in
  let speedup_at scope =
    let o, n = cell "decim" scope in
    spd o n
  in
  let narrow = speedup_at "/d00/s0" and broad = speedup_at "/d00" and whole = speedup_at "/" in
  Printf.printf
    "  crossover (mid-frequency term): %.1fx at /d00/s0, %.1fx at /d00, %.1fx unscoped\n"
    narrow broad whole;
  shape "CAS and block answers verify identically"
    (List.for_all (fun (_, _, _, _, _, _, same) -> same) cells);
  shape "scoped lookup faster at the narrow scope (/d00/s0)"
    (if smoke then narrow > 0. else narrow > 1.0);
  shape "scoped lookup faster at the broad scope (/d00)"
    (if smoke then broad > 0. else broad > 1.0);
  shape "scoped advantage decays as the scope widens (crossover)"
    (if smoke then whole > 0. else narrow > broad && broad >= whole *. 0.5);
  shape "compressed postings smaller than flat per-term bitmaps"
    (stats.Hac_index.Cas.bytes < stats.Hac_index.Cas.uncompressed_bytes);
  (* Posting cost: [Index.update_document] of a new 60-180-word document
     (tokenize and post every token) into a 900-document index over a
     4300-word Zipf vocabulary, stemming off as the served workloads run.
     Each batch posts into a freshly built index, so it starts at 900
     documents whatever the batch length. *)
  let post_corpus = Corpus.make ~vocab_size:4300 ~seed:37 () in
  let post_rng = Random.State.make [| 37 |] in
  let post_doc () = Corpus.document post_corpus ~words:(60 + Random.State.int post_rng 121) in
  let base_docs = Array.init 900 (fun _ -> post_doc ()) in
  let new_docs = Array.init 256 (fun _ -> post_doc ()) in
  let post_batch n =
    let idx = Index.create ~stem:false () in
    Array.iteri
      (fun i content ->
        ignore (Index.add_document idx ~path:(Printf.sprintf "/p/d%d/f%d.txt" (i mod 30) i) ~content))
      base_docs;
    let t0 = now () in
    for i = 0 to n - 1 do
      ignore
        (Index.add_document idx
           ~path:(Printf.sprintf "/p/new/f%d.txt" i)
           ~content:new_docs.(i mod Array.length new_docs))
    done;
    now () -. t0
  in
  let post_n =
    let rec calibrate n = if post_batch n >= 1e-3 then n else calibrate (2 * n) in
    calibrate 1
  in
  let post_doc_s =
    median (List.init reps (fun _ -> post_batch post_n /. float_of_int post_n))
  in
  Printf.printf "  posting one document into a 900-document index: %.1f us\n"
    (post_doc_s *. 1e6);
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b
    "  \"config\": { \"docs\": %d, \"leaf_dirs\": %d, \"per_leaf\": %d, \"reps\": %d, \
     \"mode\": \"%s\" },\n"
    n_docs (top * sub) per_leaf reps
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b
    "  \"memory\": { \"cas_bytes\": %d, \"flat_bitmap_bytes\": %d, \"ratio\": %.2f, \
     \"arrays\": %d, \"bitmaps\": %d, \"runs\": %d, \"terms\": %d, \"posting_arrays\": %d },\n"
    stats.Hac_index.Cas.bytes stats.Hac_index.Cas.uncompressed_bytes ratio
    stats.Hac_index.Cas.arrays stats.Hac_index.Cas.bitmaps stats.Hac_index.Cas.run_containers
    stats.Hac_index.Cas.terms stats.Hac_index.Cas.posting_arrays;
  Printf.bprintf b "  \"post_doc_s\": %.9f,\n" post_doc_s;
  Printf.bprintf b "  \"cells\": [\n";
  List.iteri
    (fun i (term, stride, scope, scope_size, old_s, new_s, same) ->
      Printf.bprintf b
        "    { \"term\": \"%s\", \"stride\": %d, \"scope\": \"%s\", \"scope_docs\": %d, \
         \"blocks_s\": %.9f, \"cas_s\": %.9f, \"speedup\": %.3f, \"verified_equal\": %b }%s\n"
        term stride scope scope_size old_s new_s (spd old_s new_s) same
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b
    "  \"crossover\": { \"narrow_speedup\": %.3f, \"broad_speedup\": %.3f, \
     \"unscoped_speedup\": %.3f }\n"
    narrow broad whole;
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out index_json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "crossover study written to %s" index_json_path)
    (String.length payload > 2
    && payload.[0] = '{'
    && payload.[String.length payload - 2] = '}')

(* --------------------------------------------------------------------- *)
(* Serving layer: group-commit throughput and the degraded-mode tail     *)
(* --------------------------------------------------------------------- *)

let serve_section () =
  let module Clock = Hac_fault.Clock in
  let module Store = Hac_fault.Store in
  let module Msg = Hac_serve.Msg in
  let module Server = Hac_serve.Server in
  let module Admission = Hac_serve.Admission in
  let module Spec = Hac_serve.Spec in
  let module Serveload = Hac_workload.Serveload in
  banner "Serving layer: group commit vs inline settling, degraded tail";
  Printf.printf
    "  A multi-session server batches writes into group commits — one\n\
    \  settle and one durability barrier per batch — and serves reads\n\
    \  from the published snapshot.  Baseline is the same Zipf op trace\n\
    \  applied inline by a single client with a settle after every\n\
    \  mutation.  The faulted run swallows the device's fsync barriers\n\
    \  mid-trace: the server must shed writes with retry hints, serve\n\
    \  reads stale, recover when the device heals, and keep the latency\n\
    \  tail bounded by the admission SLO.  Writes %s.\n\n"
    serve_json_path;
  let seed = 77 in
  let sessions, per_session = if smoke then (3, 12) else if quick then (4, 60) else (6, 200) in
  let reps = if smoke then 1 else 3 in
  let build_rig ?(disk = false) () =
    let fs = Fs.create () in
    let store =
      if disk then begin
        let s = Store.create ~seed () in
        Fs.attach_disk fs s;
        Some s
      end
      else None
    in
    let corpus = Corpus.make ~seed () in
    let files = Corpus.build_tree corpus fs ~root:"/ws" Corpus.small_tree in
    ignore (Corpus.plant fs ~paths:files ~word:"servedoc" ~count:6);
    Fs.mkdir_p fs "/srv";
    let hac = Hac.of_fs fs in
    Hac.smkdir hac "/ws/q-serve" "servedoc";
    Hac.settle hac;
    (hac, corpus, Array.of_list files, store)
  in
  (* One flattened round-robin interleave of the per-session streams: the
     op order every run (inline, served, faulted) replays identically. *)
  let trace corpus files =
    let profile = { Serveload.default with ops_per_session = per_session } in
    let streams =
      Array.init sessions (fun i ->
          ref
            (List.map Msg.of_workload
               (Serveload.session_ops profile ~corpus ~seed ~session:i ~files
                  ~semdirs:[| "/ws/q-serve" |] ~fresh_root:"/srv")))
    in
    let out = ref [] in
    while Array.exists (fun r -> !r <> []) streams do
      Array.iteri
        (fun i r ->
          match !r with
          | [] -> ()
          | op :: rest ->
              r := rest;
              out := (i, op) :: !out)
        streams
    done;
    List.rev !out
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  (* Inline baseline: one client applying ops directly, every mutation
     settled (and its barrier paid) before the next op — the only way a
     single inline client stays durable.  [Hac.of_fs] leaves auto-sync
     off, so the settle is explicit. *)
  let inline_wall ops =
    median
      (List.init reps (fun _ ->
           let hac, _, _, _ = build_rig () in
           Gc.major ();
           Timer.time_only (fun () ->
               List.iter
                 (fun (_, op) ->
                   match op with
                   | Msg.W w -> (
                       match Server.apply_write hac w with
                       | () -> Hac.settle hac
                       | exception _ -> ())
                   | Msg.R r -> ignore (Spec.eval_read hac r))
                 ops)))
  in
  let server_run ops =
    let hac, _, _, _ = build_rig () in
    let config =
      {
        Server.default_config with
        max_batch = 16;
        admission = { Admission.default with queue_bound = 1 lsl 14; slo_s = 1e9; seed };
      }
    in
    let server = Server.create ~config hac in
    let clock = Hac.clock hac in
    let v0 = Clock.now clock in
    Gc.major ();
    let wall =
      Timer.time_only (fun () ->
          List.iter
            (fun (i, op) ->
              ignore (Server.submit server ~session:(Printf.sprintf "s%d" i) op);
              if Server.queue_depth server >= config.max_batch then Server.pump server)
            ops;
          Server.drain server)
    in
    let virtual_s = Clock.now clock -. v0 in
    let st = Server.stats server in
    Server.stop server;
    (wall, virtual_s, st)
  in
  let _, corpus0, files0, _ = build_rig () in
  let ops = trace corpus0 files0 in
  let n_ops = List.length ops in
  let inline_s = inline_wall ops in
  let runs = List.init reps (fun _ -> server_run ops) in
  let server_s = median (List.map (fun (w, _, _) -> w) runs) in
  let server_virtual_s, sstats =
    match List.hd runs with _, v, st -> (v, st)
  in
  (* The modelled device: settles in this engine are in-memory and nearly
     free, so wall clock cannot show what group commit buys on a device
     where the settle's durability barrier dominates.  The virtual clock
     does: the server charges read/write/settle costs per batch; an inline
     client pays the settle (and its barrier) after every mutation. *)
  let cost = Server.default_config in
  let inline_virtual_s =
    List.fold_left
      (fun acc (_, op) ->
        acc
        +.
        match op with
        | Msg.W _ -> cost.Server.write_cost_s +. cost.Server.settle_cost_s
        | Msg.R _ -> cost.Server.read_cost_s)
      0.0 ops
  in
  let inline_tput = float_of_int n_ops /. inline_virtual_s in
  let server_tput = float_of_int n_ops /. server_virtual_s in
  let speedup = server_tput /. inline_tput in
  let wall_speedup = inline_s /. server_s in
  (* The faulted run: mid-trace the device stops honouring barriers. *)
  let slo = 30.0 in
  let hac_f, corpus_f, files_f, store_f = build_rig ~disk:true () in
  let store_f = Option.get store_f in
  let fconfig =
    {
      Server.default_config with
      max_batch = 8;
      fsync_retries = 1;
      admission = { Admission.default with queue_bound = 64; slo_s = slo; seed };
    }
  in
  let fserver = Server.create ~config:fconfig hac_f in
  let fclock = Hac.clock hac_f in
  let fops = trace corpus_f files_f in
  let fn = List.length fops in
  let window_at = fn / 4 in
  let drops = if smoke then 12 else 40 in
  let ftickets = ref [] in
  List.iteri
    (fun k (i, op) ->
      if k = window_at then Store.drop_fsyncs store_f drops;
      ftickets := Server.submit fserver ~session:(Printf.sprintf "s%d" i) op :: !ftickets;
      if k mod 2 = 0 then Server.pump fserver;
      Clock.advance fclock 0.1)
    fops;
  Server.drain fserver;
  Server.stop fserver;
  let ftickets = List.rev !ftickets in
  let fstats = Server.stats fserver in
  let unresolved =
    List.length (List.filter (fun (tk : Msg.ticket) -> tk.Msg.outcome = None) ftickets)
  in
  let degraded_sheds =
    List.length
      (List.filter
         (fun (tk : Msg.ticket) ->
           match tk.Msg.outcome with
           | Some (Msg.Rejected { reason = Msg.Degraded_writes; retry_after_s }) ->
               retry_after_s >= 0.0
           | _ -> false)
         ftickets)
  in
  let latencies =
    List.filter_map
      (fun (tk : Msg.ticket) ->
        match tk.Msg.outcome with
        | Some (Msg.Replied { latency_s; _ }) -> Some latency_s
        | _ -> None)
      ftickets
  in
  let p99 = if latencies = [] then 0.0 else percentile latencies 0.99 in
  let p50 = if latencies = [] then 0.0 else percentile latencies 0.5 in
  let p99_bound = slo +. 5.0 in
  Printf.printf "  trace: %d sessions x %d ops (%d total)\n\n" sessions per_session n_ops;
  Printf.printf "  %-40s %14s %12s %10s\n" "configuration" "modelled (s)" "ops/s" "wall (ms)";
  Printf.printf "  %-40s %14.2f %12.0f %10.2f\n" "inline client, settle per mutation"
    inline_virtual_s inline_tput (inline_s *. 1000.);
  Printf.printf "  %-40s %14.2f %12.0f %10.2f\n"
    (Printf.sprintf "server, group commit (batch %d)" 16)
    server_virtual_s server_tput (server_s *. 1000.);
  Printf.printf
    "\n  group-commit speedup: %.1fx modelled (%d batches for %d commits), %.2fx measured wall\n"
    speedup sstats.Server.batches sstats.Server.commits wall_speedup;
  Printf.printf
    "  faulted: %d submitted, %d shed (%d degraded-write), %d stale reads, virtual \
     p50/p99 %.2f/%.2f s\n"
    fstats.Server.submitted fstats.Server.shed degraded_sheds fstats.Server.stale_reads p50
    p99;
  shape "group commit beats inline settling on the modelled device"
    (server_tput > inline_tput);
  shape "server commits acknowledged" (sstats.Server.acked > 0 && sstats.Server.acked = sstats.Server.commits);
  shape "faulted run resolved every ticket explicitly" (unresolved = 0);
  shape "degraded mode shed writes with retry hints" (degraded_sheds > 0);
  shape "stale reads served during the stall" (fstats.Server.stale_reads > 0);
  shape "degraded p99 bounded by the admission SLO" (p99 <= p99_bound);
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n";
  Printf.bprintf b
    "  \"config\": { \"sessions\": %d, \"ops_per_session\": %d, \"total_ops\": %d, \
     \"reps\": %d, \"mode\": \"%s\" },\n"
    sessions per_session n_ops reps
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b
    "  \"inline\": { \"modelled_s\": %.3f, \"ops_per_s\": %.1f, \"wall_s\": %.6f },\n"
    inline_virtual_s inline_tput inline_s;
  Printf.bprintf b
    "  \"server\": { \"modelled_s\": %.3f, \"ops_per_s\": %.1f, \"wall_s\": %.6f, \
     \"batches\": %d, \"commits\": %d, \"acked\": %d, \"shed\": %d },\n"
    server_virtual_s server_tput server_s sstats.Server.batches sstats.Server.commits
    sstats.Server.acked sstats.Server.shed;
  Printf.bprintf b "  \"group_commit_speedup\": %.2f,\n" speedup;
  Printf.bprintf b "  \"wall_speedup\": %.2f,\n" wall_speedup;
  Printf.bprintf b
    "  \"faulted\": { \"submitted\": %d, \"completed\": %d, \"shed\": %d, \
     \"degraded_write_sheds\": %d, \"stale_reads\": %d, \"p50_latency_s\": %.3f, \
     \"p99_latency_s\": %.3f, \"p99_bound_s\": %.3f, \"unresolved\": %d }\n"
    fstats.Server.submitted fstats.Server.completed fstats.Server.shed degraded_sheds
    fstats.Server.stale_reads p50 p99 p99_bound unresolved;
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out serve_json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "serving study written to %s" serve_json_path)
    (String.length payload > 2
    && payload.[0] = '{'
    && payload.[String.length payload - 2] = '}')

(* ----------------------------- *)

(* --------------------------------------------------------------------- *)
(* Storage tier: checkpointed cold mount vs full journal replay, and the *)
(* block cache's byte bound under a corpus larger than its budget        *)
(* --------------------------------------------------------------------- *)

(* A device with [records] journal records of churn history around a small
   constant live state.  [checkpointed] also enables the tier and commits
   the fast-mount image (checkpoint + compact), so a remount replays only
   the consolidated log; without it a remount replays the whole history. *)
let store_image ~records ~checkpointed =
  let t = Hac.create ~stem:false () in
  let fs = Hac.fs t in
  Fs.mkdir_p fs "/data";
  for i = 0 to 49 do
    Hac.write_file t
      (Printf.sprintf "/data/f%02d.txt" i)
      (Printf.sprintf "alpha document %d with steady words" i)
  done;
  Hac.smkdir t "/sem" "alpha";
  Hac.settle t;
  if checkpointed then Hac.enable_store t;
  for _ = 1 to records / 2 do
    Hac.mkdir t "/churn";
    Hac.rmdir t "/churn"
  done;
  Hac.settle t;
  if checkpointed then begin
    ignore (Hac.checkpoint t);
    ignore (Hac.compact t)
  end;
  (* A small post-checkpoint delta, so the fast path really settles one. *)
  Hac.write_file t "/data/tail.txt" "alpha tail";
  Hac.settle t;
  Hac.shutdown ~graceful:true t;
  Image.dump fs

let store_section () =
  banner "Storage tier: O(delta) cold mount and the bounded block cache";
  Printf.printf
    "  A checkpointed device carries the directory-reconstruction image,\n\
    \  the document table and immutable postings segments; Recover.mount\n\
    \  rebuilds namespace and term directory from those in O(live entries)\n\
    \  and demand-faults postings, instead of replaying the journal.\n\
    \  Writes %s.\n\n"
    store_json_path;
  let sizes =
    if smoke then [ 40; 120 ]
    else if quick then [ 400; 1600 ]
    else [ 1000; 10000; 100000 ]
  in
  let reps = if smoke then 3 else 5 in
  let mount_points =
    List.map
      (fun records ->
        let fast_img = store_image ~records ~checkpointed:true in
        let full_img = store_image ~records ~checkpointed:false in
        let load img =
          match Image.load img with Ok fs -> fs | Error e -> failwith e
        in
        let mode = ref `Full and adopted = ref 0 and reevaluated = ref 0 in
        let fast_once () =
          let t, m = Recover.mount ~stem:false (load fast_img) in
          mode := m;
          (* Per mount: each mount is a fresh instance with fresh counters. *)
          let counter name =
            match Metrics.find (Hac.metrics t) name with
            | Some (Metrics.Counter_value n) -> n
            | _ -> 0
          in
          adopted := counter "recover.results_adopted";
          reevaluated := counter "recover.results_reevaluated";
          Hac.shutdown ~graceful:false t
        in
        let full_once () =
          let t = Hac.of_fs ~stem:false (load full_img) in
          let (_ : Recover.reload_report) = Recover.reload_report t in
          Hac.shutdown ~graceful:false t
        in
        let fast = List.init reps (fun _ -> Timer.time_only fast_once) in
        let full = List.init reps (fun _ -> Timer.time_only full_once) in
        (records, !mode, percentile fast 0.5, percentile full 0.5, (!adopted, !reevaluated)))
      sizes
  in
  Printf.printf "  %-10s %-6s %14s %14s %10s %8s %8s\n" "records" "mode" "fast p50 (ms)"
    "full p50 (ms)" "speedup" "adopted" "re-eval";
  List.iter
    (fun (records, mode, fast, full, (adopted, reevaluated)) ->
      Printf.printf "  %-10d %-6s %14.3f %14.3f %9.1fx %8d %8d\n" records
        (match mode with `Fast -> "fast" | `Full -> "FULL")
        (fast *. 1000.) (full *. 1000.)
        (full /. fast) adopted reevaluated)
    mount_points;
  let all_fast = List.for_all (fun (_, m, _, _, _) -> m = `Fast) mount_points in
  shape "every checkpointed cold mount takes the fast path" all_fast;
  shape "every fast mount adopts its persisted result"
    (List.for_all (fun (_, _, _, _, counts) -> counts = (1, 0)) mount_points);
  let last l = List.nth l (List.length l - 1) in
  let _, _, fast_max, full_max, _ = last mount_points in
  if not (smoke || quick) then
    shape "fast mount >= 5x full replay at max history" (full_max >= 5. *. fast_max);
  (* The cache bound: settle a corpus 4x the byte budget through the tier;
     the resident gauge must never have exceeded the budget. *)
  let budget = if smoke then 2048 else 64 * 1024 in
  let body i = Printf.sprintf "file %05d carries %s padding words" i (String.make 120 'p') in
  let n_docs = (4 * budget / String.length (body 0)) + 4 in
  let t = Hac.create ~stem:false () in
  Fs.mkdir_p (Hac.fs t) "/corpus";
  Hac.enable_store ~budget t;
  for i = 1 to n_docs do
    Hac.write_file t (Printf.sprintf "/corpus/f%05d.txt" i) (body i)
  done;
  Hac.settle t;
  for i = 1 to n_docs do
    ignore (Hac.read_file t (Printf.sprintf "/corpus/f%05d.txt" i) : string)
  done;
  let gauge name =
    match Metrics.find (Hac.metrics t) name with
    | Some (Metrics.Gauge_value v) -> int_of_float v
    | _ -> -1
  in
  let peak = gauge "store.cache.peak_bytes" in
  let resident = gauge "store.cache.bytes" in
  let corpus_bytes = n_docs * String.length (body 0) in
  Printf.printf "\n  cache budget %d B, corpus %d B (%d docs): peak %d B, resident %d B\n"
    budget corpus_bytes n_docs peak resident;
  let within = peak >= 0 && peak <= budget && resident >= 0 && resident <= budget in
  shape "peak resident cache bytes within budget over 4x corpus" within;
  Hac.shutdown ~graceful:false t;
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"config\": { \"reps\": %d, \"live_files\": 50, \"mode\": \"%s\" },\n"
    reps
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b "  \"mounts\": [\n";
  List.iteri
    (fun i (records, mode, fast, full, (adopted, reevaluated)) ->
      Printf.bprintf b
        "    { \"journal_records\": %d, \"fast_path\": %b, \"fast_mount_p50_s\": %.6f, \
         \"full_replay_p50_s\": %.6f, \"mount_speedup\": %.3f, \"results_adopted\": %d, \
         \"results_reevaluated\": %d }%s\n"
        records
        (mode = `Fast)
        fast full (full /. fast) adopted reevaluated
        (if i = List.length mount_points - 1 then "" else ","))
    mount_points;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b "  \"all_mounts_fast\": %b,\n" all_fast;
  if not (smoke || quick) then
    Printf.bprintf b "  \"speedup_ge_5_at_max_speedup\": %b,\n" (full_max >= 5. *. fast_max);
  Printf.bprintf b "  \"cache_budget_bytes\": %d,\n" budget;
  Printf.bprintf b "  \"cache_corpus_docs\": %d,\n" n_docs;
  Printf.bprintf b "  \"cache_peak_bytes\": %d,\n" peak;
  Printf.bprintf b "  \"cache_peak_within_budget\": %b\n" within;
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out store_json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "storage-tier curve written to %s" store_json_path)
    (String.length payload > 2
    && payload.[0] = '{'
    && payload.[String.length payload - 2] = '}')


(* ------------------------------------------------------------------- *)
(* Link surgery: naming and directory work per materialised link        *)
(* ------------------------------------------------------------------- *)

let link_section () =
  banner "Link surgery: naming probes and directory resolutions per link";
  Printf.printf
    "  One semantic directory whose result holds files that share a few\n\
    \  basenames, materialised and removed.  Naming tests candidates from\n\
    \  each basename's memo; each batched directory operation resolves the\n\
    \  directory once.  Writes %s.\n\n"
    link_json_path;
  let n_dirs, basenames = if smoke then (20, 3) else if quick then (100, 5) else (400, 5) in
  let reps = if smoke then 3 else 7 in
  let t = Hac.create ~stem:false () in
  let fs = Hac.fs t in
  for d = 0 to n_dirs - 1 do
    Fs.mkdir_p fs (Printf.sprintf "/data/d%03d" d);
    for k = 0 to basenames - 1 do
      Fs.write_file fs (Printf.sprintf "/data/d%03d/f%d.txt" d k) "lorem linkword ipsum"
    done
  done;
  ignore (Hac.reindex_full t ());
  let counter name =
    match Metrics.find (Hac.metrics t) name with Some (Metrics.Counter_value n) -> n | _ -> 0
  in
  (* Counts of one materialisation, then timings over repeats. *)
  Hac.smkdir t "/s" "linkword";
  let created0 = counter "link.created" and probes0 = counter "link.name_probes" in
  let resolves0 = Fs.resolve_count fs in
  let links = List.length (Hac.links t "/s") in
  let resolves = Fs.resolve_count fs - resolves0 in
  let created = counter "link.created" - created0
  and probes = counter "link.name_probes" - probes0 in
  Hac.srmdir t "/s";
  let probes_per_link = float_of_int probes /. float_of_int (max 1 created) in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let samples =
    List.init reps (fun _ ->
        Hac.smkdir t "/s" "linkword";
        let mat = Timer.time_only (fun () -> ignore (Hac.links t "/s")) in
        let rm = Timer.time_only (fun () -> Hac.srmdir t "/s") in
        (mat, rm))
  in
  let mat_s = median (List.map fst samples) and rm_s = median (List.map snd samples) in
  Printf.printf "  %d links over %d basenames\n\n" links basenames;
  Printf.printf "  %-34s %12.2f\n" "name probes per link" probes_per_link;
  Printf.printf "  %-34s %12d\n" "path resolutions per materialise" resolves;
  Printf.printf "  %-34s %12.3f\n" "materialise (ms)" (mat_s *. 1000.);
  Printf.printf "  %-34s %12.3f\n" "srmdir (ms)" (rm_s *. 1000.);
  shape "every file linked" (links = n_dirs * basenames && created = links);
  shape "naming tests at most two candidates per link" (probes_per_link <= 2.0);
  shape "one resolution per batched directory operation" (resolves <= 2);
  let b = Buffer.create 256 in
  Printf.bprintf b "{\n";
  Printf.bprintf b
    "  \"config\": { \"dirs\": %d, \"basenames\": %d, \"reps\": %d, \"mode\": \"%s\" },\n"
    n_dirs basenames reps
    (if smoke then "smoke" else if quick then "quick" else "full");
  Printf.bprintf b "  \"links\": %d,\n" links;
  Printf.bprintf b "  \"name_probes_per_link\": %.3f,\n" probes_per_link;
  Printf.bprintf b "  \"dir_resolves_per_materialize\": %d,\n" resolves;
  Printf.bprintf b "  \"materialize_s\": %.6f,\n" mat_s;
  Printf.bprintf b "  \"srmdir_s\": %.6f\n" rm_s;
  Printf.bprintf b "}\n";
  let payload = Buffer.contents b in
  let oc = open_out link_json_path in
  output_string oc payload;
  close_out oc;
  shape
    (Printf.sprintf "trajectory written to %s" link_json_path)
    (String.length payload > 2
    && payload.[0] = '{'
    && payload.[String.length payload - 2] = '}')

let () =
  if json_only then begin
    (* Machine-readable mode: only the sections that write (and self-check)
       the BENCH_sync.json and BENCH_obs.json trajectories. *)
    incremental_settle ();
    obs_section ();
    recovery_section ();
    index_section ();
    serve_section ();
    store_section ();
    link_section ();
    Printf.printf "\ndone.\n"
  end
  else begin
    Printf.printf "HAC reproduction benchmark harness%s\n"
      (if quick then " (quick mode)" else "");
    tables_1_and_2 ();
    table_3 ();
    let indexed = table_4 () in
    space_section indexed;
    ablation_block_size ();
    ablation_lazy_links ();
    ablation_stemming ();
    ablation_conjunctions ();
    trace_replay ();
    fault_tolerance ();
    incremental_settle ();
    obs_section ();
    recovery_section ();
    index_section ();
    serve_section ();
    store_section ();
    link_section ();
    micro_benchmarks ();
    Printf.printf "\ndone.\n"
  end
