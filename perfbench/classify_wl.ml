(* The classify workload: saved-search creation on the Hac facade, no
   server.  Each op is smkdir -> links -> srmdir over a 2.7k-file corpus
   with the storage tier on and a block cache of a quarter of the corpus
   bytes, so only this workload evaluates queries over the whole corpus and
   runs verification through a cache smaller than its working set.  Ops
   cycle through a fixed mix of query kinds and selectivities. *)

open Perfbench
module Hac = Hac_core.Hac
module Link = Hac_core.Link

let dirs = 54
let files_per_dir = 50

let spec =
  {
    Corpus.markers =
      [
        { word = "xcommon"; rate = 0.6 };
        { word = "xmid1"; rate = 0.12 };
        { word = "xmid2"; rate = 0.12 };
        { word = "xmid3"; rate = 0.12 };
        { word = "xrare1"; rate = 0.01 };
        { word = "xrare2"; rate = 0.01 };
        { word = "xred"; rate = 0.1 };
        { word = "xgiant"; rate = 0.1 };
        { word = "xtag7"; rate = 0.03 };
        { word = "xtag42"; rate = 0.03 };
        { word = "xkilo"; rate = 0.03 };
        { word = "xkila"; rate = 0.03 };
      ];
    phrases = [ ([ "xred"; "xgiant" ], 0.05) ];
    min_words = 60;
    max_words = 180;
  }

(* Queries the benchmark can evaluate itself (words, phrases, references to
   a plain directory, boolean combinations) and ones it cannot ([Raw]:
   regex and approximate terms). *)
type q =
  | W of string
  | Ph of string list
  | Ref of string  (** [{dir}]: the files below a syntactic directory. *)
  | And of q * q
  | Or of q * q
  | Not of q
  | Raw of string

let rec render = function
  | W w -> w
  | Ph ws -> "\"" ^ String.concat " " ws ^ "\""
  | Ref d -> "{" ^ d ^ "}"
  | And (a, b) -> "(" ^ render a ^ " AND " ^ render b ^ ")"
  | Or (a, b) -> "(" ^ render a ^ " OR " ^ render b ^ ")"
  | Not a -> "NOT " ^ render a
  | Raw s -> s

let rec checkable = function
  | W _ | Ph _ | Ref _ -> true
  | And (a, b) | Or (a, b) -> checkable a && checkable b
  | Not a -> checkable a
  | Raw _ -> false

type doc = { path : string; toks : string array; words : (string, unit) Hashtbl.t }

let has_phrase toks ws =
  let ws = Array.of_list ws in
  let n = Array.length toks and k = Array.length ws in
  let rec at i = i + k <= n && (matches i 0 || at (i + 1))
  and matches i j = j = k || (toks.(i + j) = ws.(j) && matches i (j + 1)) in
  at 0

let rec naive d = function
  | W w -> Hashtbl.mem d.words w
  | Ph ws -> has_phrase d.toks ws
  | Ref dir -> String.starts_with ~prefix:(dir ^ "/") d.path
  | And (a, b) -> naive d a && naive d b
  | Or (a, b) -> naive d a || naive d b
  | Not a -> not (naive d a)
  | Raw _ -> assert false

(* Eleven kinds: with an odd count the p50 and p75 of a segment fall
   inside one kind's cluster of times, not on the boundary between two. *)
let kinds =
  [| "rare"; "mid"; "common"; "and"; "or"; "not"; "phrase"; "regex"; "approx"; "scoped"; "dirref" |]

type op = { kind : string; q : q; parent : string }

(* Op [i] takes kind [i mod 11]; successive passes over the kinds rotate
   through each kind's word variants, so every segment does the same mix
   whatever the seed.  The seed picks the corpus and the scoped and
   referenced directories. *)
let make_op rng i =
  let mids = [| "xmid1"; "xmid2"; "xmid3" |] and rares = [| "xrare1"; "xrare2" |] in
  let c = i / Array.length kinds in
  let kind = kinds.(i mod Array.length kinds) in
  let root q = { kind; q; parent = "" } in
  match kind with
  | "rare" -> root (W rares.(c mod 2))
  | "mid" -> root (W mids.(c mod 3))
  | "common" -> root (W "xcommon")
  | "and" -> root (And (W mids.(c mod 3), W mids.((c + 1) mod 3)))
  | "or" -> root (Or (W rares.(c mod 2), W mids.((c + 1) mod 3)))
  | "not" -> root (And (W mids.(c mod 3), Not (W "xcommon")))
  | "phrase" -> root (Ph [ "xred"; "xgiant" ])
  | "regex" -> root (Raw [| "/xtag[0-9]+/"; "/xtag4[0-9]/" |].(c mod 2))
  | "approx" -> root (Raw [| "~xkilo"; "~xkila" |].(c mod 2))
  | "dirref" -> root (And (Ref (Printf.sprintf "/corpus/d%02d" (Rng.int rng dirs)), W mids.(c mod 3)))
  | _ -> { kind; q = W mids.(c mod 3); parent = Printf.sprintf "/corpus/d%02d" (Rng.int rng dirs) }

let semdir_path op = op.parent ^ "/q"

let key op = op.parent ^ " " ^ render op.q

type state = {
  hac : Hac.t;
  files : (string * string) list;
  budget : int;
  ops_seed : int;
}

let setup ~seed =
  let rng = Rng.make seed in
  let body_rng = Rng.derive rng "corpus" in
  let files =
    List.init (dirs * files_per_dir) (fun i ->
        ( Printf.sprintf "/corpus/d%02d/f%03d.txt" (i / files_per_dir) (i mod files_per_dir),
          Corpus.body spec body_rng ))
  in
  let budget = Engine.corpus_bytes files / 4 in
  let hac = Hac.create ~stem:false () in
  Engine.populate hac ~files ~semdirs:[];
  Hac.enable_store ~budget hac;
  { hac; files; budget; ops_seed = Rng.int rng 1_000_000_000 }

(* One classification: the saved search is created, listed and removed.
   Returns the link targets and the seconds to the first listing. *)
let classify ?(sp = Spans.create ()) hac op =
  let path = semdir_path op in
  let t0 = Mclock.now () in
  Spans.span sp "classify.smkdir" (fun () -> Hac.smkdir hac path (render op.q));
  let links = Spans.span sp "classify.links" (fun () -> Hac.links hac path) in
  let query_s = Mclock.since t0 in
  Spans.span sp "classify.srmdir" (fun () -> Hac.srmdir hac path);
  (List.map (fun (l : Link.t) -> Link.target_key l.target) links, query_s)

type tally = {
  query_ms : Engine.samples;
  by_kind : (string, Engine.samples) Hashtbl.t;
  mutable n : int;
  mutable links : int;
  seen : (string, op * string list) Hashtbl.t;  (** First result per distinct query. *)
  mutable unstable : string list;  (** Queries whose repeat changed count. *)
  mutable failed : int;  (** Ops that raised. *)
}

let tally () = { query_ms = Engine.samples (); by_kind = Hashtbl.create 16; n = 0; links = 0; seen = Hashtbl.create 64; unstable = []; failed = 0 }

let record t op (targets, query_s) =
  Engine.add t.query_ms (query_s *. 1000.0);
  (match Hashtbl.find_opt t.by_kind op.kind with
  | Some s -> Engine.add s (query_s *. 1000.0)
  | None ->
      let s = Engine.samples () in
      Engine.add s (query_s *. 1000.0);
      Hashtbl.add t.by_kind op.kind s);
  t.n <- t.n + 1;
  t.links <- t.links + List.length targets;
  match Hashtbl.find_opt t.seen (key op) with
  | None -> Hashtbl.add t.seen (key op) (op, targets)
  | Some (_, first) ->
      if List.length first <> List.length targets then t.unstable <- key op :: t.unstable

(* A run is a sequence of segments, each the same [segment_ops] ops (the
   seed fixes them): the spread between segments is the host's, and the
   run reports the best segment.  A segment is eight passes over the
   kinds. *)
let segment_ops = 8 * Array.length kinds

let min_segments = 3

(* One segment; returns its query times and its wall time. *)
let run_segment ?sp st t =
  let rng = Rng.make st.ops_seed in
  let seg = Engine.samples () in
  let t0 = Mclock.now () in
  for i = 0 to segment_ops - 1 do
    let op = make_op rng i in
    match classify ?sp st.hac op with
    | (_, query_s) as res ->
        Engine.add seg (query_s *. 1000.0);
        record t op res
    | exception e ->
        (* A failed op counts against the run; the directory goes so the
           next op can reuse the path. *)
        t.failed <- t.failed + 1;
        t.n <- t.n + 1;
        prerr_endline ("classify op failed: " ^ key op ^ ": " ^ Printexc.to_string e);
        (try Hac.srmdir st.hac (semdir_path op) with _ -> ())
  done;
  (seg, Mclock.since t0)

(* Link sets of the first occurrence of every checkable query equal a
   naive scan of the bodies over the directory's scope; every repeat of a
   query returned the same number of links. *)
let gates st t =
  let docs =
    List.map
      (fun (path, body) ->
        let toks = Corpus.tokens body in
        let words = Hashtbl.create 64 in
        Array.iter (fun w -> Hashtbl.replace words w ()) toks;
        { path; toks; words })
      st.files
  in
  let bad = ref [] in
  Hashtbl.iter
    (fun k (op, targets) ->
      if checkable op.q then begin
        let scope = if op.parent = "" then "/" else op.parent ^ "/" in
        let expect =
          List.filter_map
            (fun d ->
              if String.starts_with ~prefix:scope d.path && naive d op.q then Some d.path else None)
            docs
        in
        if List.sort compare targets <> expect then
          bad :=
            Printf.sprintf "%s: %d links, reference scan %d" k (List.length targets)
              (List.length expect)
            :: !bad
      end)
    t.seen;
  !bad @ List.map (fun k -> "link count changed between repeats: " ^ k) t.unstable

let counts_digest t =
  Hashtbl.fold (fun k (_, ts) acc -> (k, List.length ts) :: acc) t.seen []
  |> List.sort compare
  |> List.map (fun (k, n) -> Printf.sprintf "[%s]=%d" k n)
  |> String.concat " "

let kind_medians t =
  Array.to_list kinds
  |> List.filter_map (fun k ->
         Option.map
           (fun s -> Printf.sprintf "%s=%.3f" k (Engine.median (Array.to_list (Engine.contents s))))
           (Hashtbl.find_opt t.by_kind k))
  |> String.concat " "

let untraced (r : Engine.run) =
  let st, setup0 = Mclock.time (fun () -> setup ~seed:r.seed) in
  let t = tally () in
  Engine.settle_heap ();
  let deadline = Mclock.now () +. r.seconds in
  let rec go acc =
    if List.length acc >= min_segments && Mclock.now () >= deadline then List.rev acc
    else go (run_segment st t :: acc)
  in
  let segs = go [] in
  let heap = Engine.peak_heap_mb () in
  let problems = gates st t in
  let setup_s = Engine.setup_median setup0 (fun () -> ignore (setup ~seed:r.seed)) in
  let low f = Engine.best_low (List.map f segs) and high f = Engine.best_high (List.map f segs) in
  let facts =
    [
      ("run_seconds", Engine.fmt_f r.seconds);
      ("segments", string_of_int (List.length segs));
      ("ops_per_segment", string_of_int segment_ops);
      ("segment_seconds", String.concat " " (List.map (fun (_, w) -> Engine.fmt_f w) segs));
      ("segment_p50_ms", String.concat " " (List.map (fun (q, _) -> Engine.fmt_f (Engine.pct q 0.5).value) segs));
      ("segment_p75_ms", String.concat " " (List.map (fun (q, _) -> Engine.fmt_f (Engine.pct q 0.75).value) segs));
      ("ops", string_of_int t.n);
      ("corpus_files", string_of_int (List.length st.files));
      ("corpus_bytes", string_of_int (Engine.corpus_bytes st.files));
      ("block_cache_budget", string_of_int st.budget);
      ("headline_op", "query (smkdir + first links)");
      ("tail_percentile", "p75 of each segment, best segment");
      Engine.describe_pct "query_p50_ms (pooled)" t.query_ms 0.5;
      Engine.describe_pct "query_p90_ms (pooled)" t.query_ms 0.9;
      Engine.describe_highest "query_highest_supported (pooled)" t.query_ms;
      ("query_median_ms_by_kind", kind_medians t);
      ("links_per_op", Engine.fmt_f (Engine.ratio t.links t.n));
      ("link_counts", counts_digest t);
      ("failed_ratio", Engine.fmt_f (Engine.ratio t.failed t.n));
      ("setup_runs", string_of_int Engine.setups);
    ]
  in
  {
    Engine.correct = problems = [];
    attempted = t.n;
    failed = t.failed;
    metrics =
      [
        ("throughput_ops_s", high (fun (_, w) -> float_of_int segment_ops /. w));
        ("p50_ms", low (fun (s, _) -> (Engine.pct s 0.5).value));
        ("tail_ms", low (fun (s, _) -> (Engine.pct s 0.75).value));
        ("setup_s", setup_s);
        ("peak_heap_mb", heap);
      ];
    facts = facts @ List.map (fun p -> ("gate_failure", p)) problems;
    table = [];
  }

let traced (r : Engine.run) =
  (* Untraced segments first, for half the run length: the reference for
     the tracing overhead and the GC figures. *)
  let st_b = setup ~seed:r.seed in
  let t_b = tally () in
  let deadline = Mclock.now () +. (r.seconds /. 2.0) in
  let rec go acc =
    if acc <> [] && Mclock.now () >= deadline then acc
    else begin
      Engine.settle_heap ();
      let g0 = Engine.gc_mark () in
      let _, w = run_segment st_b t_b in
      let g1 = Engine.gc_mark () in
      go ((w, g1.minor -. g0.minor, g1.major - g0.major) :: acc)
    end
  in
  let segs = go [] in
  let wall_b = Engine.median (List.map (fun (w, _, _) -> w) segs) in
  let minor = Engine.median (List.map (fun (_, m, _) -> m) segs) in
  let majors = Engine.median (List.map (fun (_, _, m) -> float_of_int m) segs) in
  (* Traced: the same ops, tracer on, spans around every public call. *)
  let st = setup ~seed:r.seed in
  Hac_obs.Trace.set_enabled (Hac.tracer st.hac) true;
  let sp = Spans.create () in
  Spans.set_enabled sp true;
  let t = tally () in
  let c0 = Engine.read_counters st.hac and s0 = Engine.read_spans st.hac in
  Engine.settle_heap ();
  let _, wall_a = run_segment ~sp st t in
  let c1 = Engine.read_counters st.hac and s1 = Engine.read_spans st.hac in
  let problems = gates st t in
  let ops = t.n in
  let d = Engine.delta c0 c1 in
  let qeval, nevals = Engine.span_delta s0 s1 "query.eval" in
  let tot = Spans.total sp and calls = Spans.calls sp in
  let per name = if calls name = 0 then 0.0 else tot name /. float_of_int (calls name) in
  let share x = 100.0 *. x /. wall_a in
  let smkdir_self = tot "classify.smkdir" -. qeval in
  let unattributed = wall_a -. tot "classify.smkdir" -. tot "classify.links" -. tot "classify.srmdir" in
  let overhead = 100.0 *. (wall_a -. wall_b) /. wall_b in
  let shares =
    [
      ("classify.smkdir_pct", share smkdir_self);
      ("query.eval_pct", share qeval);
      ("classify.links_pct", share (tot "classify.links"));
      ("classify.srmdir_pct", share (tot "classify.srmdir"));
      ("unattributed_pct", share unattributed);
    ]
  in
  let rate h m = Engine.ratio h (h + m) in
  let counts =
    [
      ("trace.overhead_pct", overhead);
      ("search.postings_scanned_per_op", Engine.ratio (d "search.postings_scanned") ops);
      ("search.candidates_per_op", Engine.ratio (d "search.candidates_expanded") ops);
      ("search.docs_verified_per_op", Engine.ratio (d "search.docs_verified") ops);
      ("search.verify_yield", Engine.ratio t.links (d "search.docs_verified"));
      ("planner.reordered_per_op", Engine.ratio (d "planner.optimize.reordered") ops);
      ("store.cache.hit_rate", rate (d "store.cache.hits") (d "store.cache.misses"));
      ("store.cache.evictions_per_op", Engine.ratio (d "store.cache.evictions") ops);
      ("journal.appends_per_write", Engine.ratio (d "journal.appends") ops);
      ("gc.minor_words_per_op", minor /. float_of_int ops);
      ("gc.major_per_kop", 1000.0 *. majors /. float_of_int ops);
    ]
  in
  let ms x = x *. 1e3 in
  let table =
    [
      ("classify.smkdir_ms", ms (per "classify.smkdir"), Printf.sprintf "%d calls" (calls "classify.smkdir"));
      ("query.eval_us", (if nevals = 0 then 0.0 else qeval *. 1e6 /. float_of_int nevals), Printf.sprintf "program span, CPU, %d evals" nevals);
      ("classify.links_ms", ms (per "classify.links"), Printf.sprintf "%d calls" (calls "classify.links"));
      ("classify.srmdir_ms", ms (per "classify.srmdir"), Printf.sprintf "%d calls" (calls "classify.srmdir"));
    ]
    @ List.map (fun (n, v) -> (n, v, "share of traced time")) shares
    @ List.map (fun (n, v) -> (n, v, "")) counts
  in
  let facts =
    [
      ("traced_seconds", Engine.fmt_f wall_a);
      ("untraced_segments", string_of_int (List.length segs));
      ("untraced_segment_seconds_median", Engine.fmt_f wall_b);
      ("ops_per_segment", string_of_int ops);
      ("trace_overhead_pct", Engine.fmt_f overhead);
    ]
    @ List.map (fun p -> ("gate_failure", p)) problems
  in
  {
    Engine.correct = problems = [];
    attempted = t.n + t_b.n;
    failed = t.failed + t_b.failed;
    metrics = shares @ counts;
    facts;
    table;
  }

let run (r : Engine.run) = if r.trace then traced r else untraced r
