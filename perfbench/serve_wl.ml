(* The served workloads, serve-read and serve-ingest: a closed loop of
   sessions against Hac_serve.Server.

   Sixteen logical sessions (the server's [max_batch]) each keep one
   request outstanding; when every session is waiting the driver calls
   [Server.pump], and every session whose ticket resolved submits its next
   op.  Callers of this synchronous server wait for their reply, so a
   closed loop is the faithful load model.  A request's latency runs from
   [Server.submit] to the return of the pump that resolved its ticket. *)

open Perfbench
module Fs = Hac_vfs.Fs
module Hac = Hac_core.Hac
module Msg = Hac_serve.Msg
module Server = Hac_serve.Server
module Snapshot = Hac_serve.Snapshot
module Spec = Hac_serve.Spec
module Slo = Hac_obs.Slo
module Device = Hac_fault.Store

let sessions = Server.default_config.max_batch

type kind = Read_mostly | Ingest

(* -- inputs ------------------------------------------------------------ *)

type inputs = {
  files : (string * string) list;  (** Stable corpus: read, never written. *)
  churn : (string * string) list;  (** Churn files live before the first op. *)
  semdirs : (string * string) list;
  budget : int option;  (** Block-cache budget; [None] keeps the tier off. *)
  gen : Gen.t;
}

let corpus_dirs = 20
let files_per_dir = 35

let read_markers =
  List.init 20 (fun i -> { Corpus.word = Printf.sprintf "xs%02d" (i + 1); rate = 0.06 })

let read_spec = { Corpus.markers = read_markers; phrases = []; min_words = 60; max_words = 180 }

(* Selectivities for the ingest mix: common, mid, rare, a phrase whose
   words also occur apart, regex and approximate targets with near misses. *)
let ingest_spec ~min_words ~max_words =
  {
    Corpus.markers =
      [
        { word = "xcommon"; rate = 0.5 };
        { word = "xmid1"; rate = 0.12 };
        { word = "xmid2"; rate = 0.12 };
        { word = "xmid3"; rate = 0.12 };
        { word = "xrare1"; rate = 0.015 };
        { word = "xrare2"; rate = 0.015 };
        { word = "xred"; rate = 0.1 };
        { word = "xgiant"; rate = 0.1 };
        { word = "xtag7"; rate = 0.03 };
        { word = "xtag42"; rate = 0.03 };
        { word = "xkilo"; rate = 0.03 };
        { word = "xkila"; rate = 0.03 };
      ];
    phrases = [ ([ "xred"; "xgiant" ], 0.05) ];
    min_words;
    max_words;
  }

let ingest_semdirs =
  [
    ("/corpus/s_word", "xmid1");
    ("/corpus/s_word2", "xmid2");
    ("/corpus/s_rare", "xrare1");
    ("/corpus/s_and", "xmid1 AND xmid2");
    ("/corpus/s_or", "xrare1 OR xrare2");
    ("/corpus/s_not", "xmid3 AND NOT xcommon");
    ("/corpus/s_phrase", "\"xred xgiant\"");
    ("/corpus/s_regex", "/xtag[0-9]+/");
    ("/corpus/s_approx", "~xkilo");
    ("/corpus/s_ref", "{/corpus/s_word} AND xmid3");
    ("/corpus/s_nest", "xmid2 OR xmid3");
    ("/corpus/s_nest/inner", "xred");
  ]

let make_inputs kind ~seed =
  let rng = Rng.make seed in
  let body_rng = Rng.derive rng "corpus" in
  let spec = match kind with Read_mostly -> read_spec | Ingest -> ingest_spec ~min_words:60 ~max_words:180 in
  let files =
    List.init (corpus_dirs * files_per_dir) (fun i ->
        ( Printf.sprintf "/corpus/d%02d/f%03d.txt" (i / files_per_dir) (i mod files_per_dir),
          Corpus.body spec body_rng ))
  in
  (* Popularity is independent of placement: a seeded shuffle ranks the
     files for the Zipf draw. *)
  let ranked = Array.of_list (List.map fst files) in
  let shuffle = Rng.derive rng "popularity" in
  for i = Array.length ranked - 1 downto 1 do
    let j = Rng.int shuffle (i + 1) in
    let x = ranked.(i) in
    ranked.(i) <- ranked.(j);
    ranked.(j) <- x
  done;
  let semdirs =
    match kind with
    | Read_mostly -> List.map (fun m -> ("/corpus/q_" ^ m.Corpus.word, m.Corpus.word)) read_markers
    | Ingest -> ingest_semdirs
  in
  let dirs =
    Array.of_list
      ("/corpus" :: List.init corpus_dirs (fun d -> Printf.sprintf "/corpus/d%02d" d))
  in
  let small = ingest_spec ~min_words:10 ~max_words:30 in
  let cfg =
    match kind with
    | Read_mostly ->
        {
          Gen.read_share = 0.95;
          file_share = 0.7;
          readdir_share = 0.15;
          files = ranked;
          zipf_s = 1.0;
          dirs;
          semdirs = Array.of_list (List.map fst semdirs);
          churn_dir = "/scratch";
          slots = 200;
          live_target = 100;
          append_share = 0.3;
          body = Corpus.body read_spec;
          append_body = Corpus.body { read_spec with min_words = 10; max_words = 30 };
        }
    | Ingest ->
        {
          Gen.read_share = 0.2;
          file_share = 0.6;
          readdir_share = 0.1;
          files = ranked;
          zipf_s = 1.0;
          dirs;
          semdirs = Array.of_list (List.map fst semdirs);
          churn_dir = "/corpus/churn";
          slots = 400;
          live_target = 200;
          append_share = 0.2;
          body = Corpus.body spec;
          append_body = Corpus.body small;
        }
  in
  let gen = Gen.create cfg ~seed:(Rng.int rng 1_000_000_000) in
  let churn = Gen.initial_files gen in
  let bytes = Engine.corpus_bytes files + Engine.corpus_bytes churn in
  let budget = match kind with Read_mostly -> None | Ingest -> Some (2 * bytes) in
  { files; churn; semdirs; budget; gen }

(* The engine a served run starts from: corpus, churn files, saved
   searches, then (ingest) the storage tier.  [device] attaches a simulated
   disk so journal fsyncs and device bytes are real work. *)
let build_engine ?(device = true) ?(store = true) inp =
  let hac = Hac.create ~stem:false () in
  Hac.mkdir_p hac "/scratch";
  Engine.populate hac ~files:(inp.files @ inp.churn) ~semdirs:inp.semdirs;
  (match inp.budget with Some b when store -> Hac.enable_store ~budget:b hac | _ -> ());
  if device then Fs.attach_disk (Hac.fs hac) (Device.create ());
  hac

let to_msg = function
  | Gen.Read p -> Msg.R (Msg.Read p)
  | Gen.Readdir p -> Msg.R (Msg.Readdir p)
  | Gen.Links p -> Msg.R (Msg.Links p)
  | Gen.Create (p, b) -> Msg.W (Msg.Write (p, b))
  | Gen.Append (p, b) -> Msg.W (Msg.Append (p, b))
  | Gen.Unlink p -> Msg.W (Msg.Unlink p)

(* -- the closed loop --------------------------------------------------- *)

type session = { id : string; mutable tk : Msg.ticket option; mutable at : float }

type loop = {
  srv : Server.t;
  hac : Hac.t;
  gen : Gen.t;
  ss : session array;
  spans : Spans.t;
  reads_ms : Engine.samples;
  writes_ms : Engine.samples;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable unresolved : int;
  mutable pumps : int;
  mutable writes : int;
  mutable user_bytes : int;
  mutable observations : Spec.observation list;
  mutable batch : Msg.ticket list;  (** Submitted since the last pump, in order. *)
}

let new_loop srv hac gen spans =
  {
    srv;
    hac;
    gen;
    ss = Array.init sessions (fun i -> { id = Printf.sprintf "s%02d" i; tk = None; at = 0.0 });
    spans;
    reads_ms = Engine.samples ();
    writes_ms = Engine.samples ();
    submitted = 0;
    completed = 0;
    failed = 0;
    unresolved = 0;
    pumps = 0;
    writes = 0;
    user_bytes = 0;
    observations = [];
    batch = [];
  }

let submit lp s =
  let op = Gen.next lp.gen in
  if Gen.is_write op then begin
    lp.writes <- lp.writes + 1;
    lp.user_bytes <- lp.user_bytes + Gen.user_bytes op
  end;
  s.at <- Mclock.now ();
  let tk = Server.submit lp.srv ~session:s.id (to_msg op) in
  lp.submitted <- lp.submitted + 1;
  lp.batch <- tk :: lp.batch;
  s.tk <- Some tk

(* Submit for up to [quota ()] idle sessions, as one burst. *)
let refill lp quota =
  let idle = Array.to_list lp.ss |> List.filter (fun s -> s.tk = None) in
  let n = min (List.length idle) (quota ()) in
  if n > 0 then
    Spans.span lp.spans "serve.submit" ~calls:n (fun () ->
        List.iteri (fun i s -> if i < n then submit lp s) idle)

(* Collect every ticket the last pump resolved. *)
let harvest lp done_at =
  Array.iter
    (fun s ->
      match s.tk with
      | Some ({ Msg.outcome = Some o; _ } as tk) ->
          let ms = (done_at -. s.at) *. 1000.0 in
          let ok =
            match o with Msg.Replied { reply = Msg.Nack _; _ } | Msg.Rejected _ -> false | _ -> true
          in
          lp.completed <- lp.completed + 1;
          if not ok then lp.failed <- lp.failed + 1;
          if Msg.is_write tk.op then Engine.add lp.writes_ms ms else Engine.add lp.reads_ms ms;
          (match Spec.observe tk with Some ob -> lp.observations <- ob :: lp.observations | None -> ());
          s.tk <- None
      | Some _ | None -> ())
    lp.ss

(* Run until [quota ()] allows no further submissions and every
   outstanding ticket is resolved.  [after_pump] sees each pump's batch. *)
let run_loop lp ~quota ~after_pump =
  refill lp quota;
  let outstanding () = Array.exists (fun s -> s.tk <> None) lp.ss in
  let stalls = ref 0 in
  while outstanding () && !stalls < 64 do
    let batch = List.rev lp.batch in
    lp.batch <- [];
    Spans.span lp.spans "serve.pump" (fun () -> Server.pump lp.srv);
    let done_at = Mclock.now () in
    lp.pumps <- lp.pumps + 1;
    after_pump batch;
    let before = lp.completed in
    harvest lp done_at;
    if lp.completed = before then incr stalls else stalls := 0;
    refill lp quota
  done;
  Array.iter (fun s -> if s.tk <> None then lp.unresolved <- lp.unresolved + 1) lp.ss

let until deadline () = if Mclock.now () < deadline then max_int else 0

(* -- correctness gates ------------------------------------------------- *)

let gates inp lp =
  let st = Server.stats lp.srv in
  let violations =
    Spec.check
      ~build:(fun () -> build_engine ~device:false ~store:false inp)
      ~writes:(Server.committed_writes lp.srv) ~observations:lp.observations ()
  in
  let problems =
    (if lp.unresolved > 0 then [ Printf.sprintf "%d tickets unresolved" lp.unresolved ] else [])
    @ (if st.Server.acked <> st.Server.commits then
         [ Printf.sprintf "acked %d <> commits %d" st.Server.acked st.Server.commits ]
       else [])
    @ List.map (fun v -> "spec: " ^ v) (List.filteri (fun i _ -> i < 5) violations)
  in
  (problems, List.length violations)

(* -- the traced replay of pump's layers -------------------------------- *)

(* The layers below [Server.pump] — snapshot reads, write application,
   settle, snapshot publication, the fsync barrier, the SLO monitor — are
   reachable only inside it.  After the traced served phase, every batch
   is replayed through those same public calls, in pump's order, on a twin
   engine built from the same inputs; the twin's replies must equal the
   served ones.  Replaying afterwards keeps the twin's work out of the
   served phase's timings. *)
type twin = {
  t_hac : Hac.t;
  mutable snap : Snapshot.t;
  mutable seq : int;
  vnow : float ref;  (** The served clock when the batch's pump returned. *)
  slo : Slo.t;
  mutable mismatches : int;
  mutable first_mismatch : string option;
}

let make_twin inp =
  let hac = build_engine inp in
  Hac_obs.Trace.set_enabled (Hac.tracer hac) true;
  (* What [Server.create] does before the first pump. *)
  Hac.set_auto_sync hac false;
  Hac.set_durability hac `Batch;
  Hac.settle hac;
  let snap = Snapshot.capture hac ~seq:0 ~now:0.0 in
  Fs.fsync (Hac.fs hac) "/";
  let vnow = ref 0.0 in
  {
    t_hac = hac;
    snap;
    seq = 0;
    vnow;
    slo =
      Slo.create ~metrics:(Hac_obs.Metrics.create ())
        ~now:(fun () -> !vnow)
        Server.default_config.slo_objectives;
    mismatches = 0;
    first_mismatch = None;
  }

let mismatch tw what =
  tw.mismatches <- tw.mismatches + 1;
  if tw.first_mismatch = None then tw.first_mismatch <- Some what

let replay sp tw ((batch : Msg.ticket list), vnow) =
  tw.vnow := vnow;
  let reads, writes = List.partition (fun (tk : Msg.ticket) -> not (Msg.is_write tk.op)) batch in
  let served (tk : Msg.ticket) =
    match tk.outcome with Some (Msg.Replied { reply; _ }) -> Some reply | _ -> None
  in
  let replies =
    Spans.span sp "snapshot.read" ~calls:(List.length reads) (fun () ->
        List.map
          (fun (tk : Msg.ticket) ->
            match tk.op with Msg.R r -> Snapshot.read tw.snap r | Msg.W _ -> assert false)
          reads)
  in
  List.iter2
    (fun (tk : Msg.ticket) r ->
      if served tk <> Some r then mismatch tw ("read " ^ Msg.describe tk.op))
    reads replies;
  let applied =
    Spans.span sp "hac.apply" ~calls:(List.length writes) (fun () ->
        List.map
          (fun (tk : Msg.ticket) ->
            match tk.op with
            | Msg.W w -> ( match Server.apply_write tw.t_hac w with () -> Some w | exception _ -> None)
            | Msg.R _ -> assert false)
          writes)
  in
  List.iter2
    (fun (tk : Msg.ticket) a ->
      match (served tk, a) with
      | Some Msg.Done, Some _ | Some (Msg.Nack _), None -> ()
      | _ -> mismatch tw ("write " ^ Msg.describe tk.op))
    writes applied;
  let committed = List.filter_map Fun.id applied in
  if writes <> [] then begin
    Spans.span sp "hac.settle" (fun () -> Hac.settle tw.t_hac);
    tw.seq <- tw.seq + List.length committed;
    let touched =
      List.map
        (function
          | Msg.Mkdir p | Msg.Write (p, _) | Msg.Append (p, _) | Msg.Unlink p | Msg.Smkdir (p, _) -> p)
        committed
    in
    tw.snap <-
      Spans.span sp "snapshot.advance" (fun () ->
          Snapshot.advance tw.snap tw.t_hac ~seq:tw.seq ~now:vnow ~touched);
    Spans.span sp "device.fsync" (fun () -> Fs.fsync (Hac.fs tw.t_hac) "/")
  end;
  (* Resolution order: reads in the wave, then acks. *)
  Spans.span sp "slo.observe" ~calls:(List.length batch) (fun () ->
      List.iter
        (fun (tk : Msg.ticket) ->
          match tk.outcome with
          | Some (Msg.Replied { reply; latency_s; _ }) ->
              let ok = match reply with Msg.Nack _ -> false | _ -> true in
              Slo.observe tw.slo ~op:(Msg.op_class tk.op) ~latency_s ~ok
          | _ -> ())
        (reads @ writes));
  Spans.span sp "slo.evaluate" ~calls:2 (fun () ->
      ignore (Slo.evaluate tw.slo);
      ignore (Slo.evaluate tw.slo))

(* -- runs -------------------------------------------------------------- *)

let serve_server hac = Server.create hac

let device_of hac = match Fs.disk (Hac.fs hac) with Some d -> d | None -> assert false

let payload_bytes dev ~from =
  let ops = Device.ops dev in
  List.fold_left
    (fun (i, acc) op -> (i + 1, if i >= from then acc + Device.payload_length op else acc))
    (0, 0) ops
  |> snd

let linkcounts hac inp =
  String.concat " "
    (List.map
       (fun (p, _) -> Printf.sprintf "%s=%d" (Filename.basename p) (List.length (Hac.links hac p)))
       inp.semdirs)

(* A run is a sequence of segments, each a fresh server driven through the
   same fixed number of ops from the same seed: identical work, so the
   spread between segments is the host's, and the run reports the best
   segment ({!Engine.best_low}).  Every segment's set-up is timed; their
   median is [setup_s]. *)
let segment_ops = function Read_mostly -> 6000 | Ingest -> 2000

let min_segments = 3

(* What a segment leaves behind: figures only, so its engine is garbage
   before the next segment builds one. *)
type segment = {
  wall : float;
  reads : float array;  (** Read latencies, ms. *)
  writes : float array;  (** Write-ack latencies, ms. *)
  submitted : int;
  completed : int;
  failed : int;
  pumps : int;
  links : string;  (** Link counts per semantic directory at the end. *)
  setup_s : float;
  problems : string list;
  digest : string;  (** Of every read reply: segments must agree. *)
  minor_words : float;  (** Allocated by the timed loop. *)
  majors : int;
}

let reply_digest lp =
  let b = Buffer.create 4096 in
  List.iter
    (fun (ob : Spec.observation) ->
      Buffer.add_string b (Msg.describe (Msg.R ob.ob_read));
      Buffer.add_string b (string_of_int ob.ob_seq);
      (match ob.ob_reply with
      | Msg.Data c -> Buffer.add_string b (Digest.string c)
      | Msg.Entries es -> List.iter (Buffer.add_string b) es
      | Msg.Linkset rows -> List.iter (fun (r : Msg.linkrow) -> Buffer.add_string b (r.l_name ^ r.l_target)) rows
      | Msg.Done -> Buffer.add_string b "done"
      | Msg.Nack m -> Buffer.add_string b m);
      Buffer.add_char b '\n')
    lp.observations;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One untraced segment.  The first gets the full gates, including the
   serial-spec check; later ones must reproduce its replies exactly.  [sp]
   times submit bursts and pumps (two clock reads each); [on_batch] sees
   every pump's batch with the virtual time the pump returned at. *)
let run_segment ?(sp = Spans.create ()) ?(on_batch = ignore) kind (r : Engine.run) ~full_gates =
  let (inp, hac, srv), setup_s =
    Mclock.time (fun () ->
        let inp = make_inputs kind ~seed:r.seed in
        let hac = build_engine inp in
        (inp, hac, serve_server hac))
  in
  let lp = new_loop srv hac inp.gen sp in
  let n = segment_ops kind in
  Engine.settle_heap ();
  let g0 = Engine.gc_mark () in
  let t0 = Mclock.now () in
  run_loop lp
    ~quota:(fun () -> n - lp.submitted)
    ~after_pump:(fun batch -> on_batch (batch, Hac_fault.Clock.now (Hac.clock hac)));
  let wall = Mclock.since t0 in
  let g1 = Engine.gc_mark () in
  let problems =
    if full_gates then fst (gates inp lp)
    else
      let st = Server.stats srv in
      (if lp.unresolved > 0 then [ "tickets unresolved" ] else [])
      @ if st.Server.acked <> st.Server.commits then [ "acked <> commits" ] else []
  in
  {
    wall;
    reads = Engine.contents lp.reads_ms;
    writes = Engine.contents lp.writes_ms;
    submitted = lp.submitted;
    completed = lp.completed;
    failed = lp.failed;
    pumps = lp.pumps;
    links = linkcounts hac inp;
    setup_s;
    problems;
    digest = reply_digest lp;
    minor_words = g1.minor -. g0.minor;
    majors = g1.major - g0.major;
  }

let untraced kind (r : Engine.run) =
  let deadline = Mclock.now () +. r.seconds in
  let rec go acc =
    if List.length acc >= min_segments && Mclock.now () >= deadline then List.rev acc
    else go (run_segment kind r ~full_gates:(acc = []) :: acc)
  in
  let segs = go [] in
  let heap = Engine.peak_heap_mb () in
  let first = List.hd segs in
  let problems =
    List.concat_map (fun sg -> sg.problems) segs
    @ List.filter_map
        (fun sg -> if sg.digest <> first.digest then Some "a segment's replies differ from the first's" else None)
        segs
  in
  let med f = Engine.median (List.map f segs) in
  let low f = Engine.best_low (List.map f segs) and high f = Engine.best_high (List.map f segs) in
  let sample a =
    let s = Engine.samples () in
    Array.iter (Engine.add s) a;
    s
  in
  let head sg = sample (match kind with Read_mostly -> sg.reads | Ingest -> sg.writes) in
  let pooled get = sample (Array.concat (List.map get segs)) in
  let reads = pooled (fun sg -> sg.reads) and writes = pooled (fun sg -> sg.writes) in
  let sum f = List.fold_left (fun acc sg -> acc + f sg) 0 segs in
  let submitted = sum (fun sg -> sg.submitted) and failed = sum (fun sg -> sg.failed) in
  let seg_p p = String.concat " " (List.map (fun sg -> Engine.fmt_f (Engine.pct (head sg) p).value) segs) in
  let inp = make_inputs kind ~seed:r.seed in
  let facts =
    [
      ("run_seconds", Engine.fmt_f r.seconds);
      ("segments", string_of_int (List.length segs));
      ("ops_per_segment", string_of_int (segment_ops kind));
      ("segment_seconds", String.concat " " (List.map (fun sg -> Engine.fmt_f sg.wall) segs));
      ("closed_loop_sessions", string_of_int sessions);
      ("ops_submitted", string_of_int submitted);
      ("reads", string_of_int reads.n);
      ("writes", string_of_int writes.n);
      ("segment_p50_ms", seg_p 0.5);
      ("segment_p99_ms", seg_p 0.99);
      ("segment_setup_s", String.concat " " (List.map (fun sg -> Engine.fmt_f sg.setup_s) segs));
      ("batches_per_segment", string_of_int first.pumps);
      ("corpus_files", string_of_int (List.length inp.files + List.length inp.churn));
      ("corpus_bytes", string_of_int (Engine.corpus_bytes inp.files + Engine.corpus_bytes inp.churn));
      ("semantic_dirs", string_of_int (List.length inp.semdirs));
      ( "block_cache_budget",
        match inp.budget with Some b -> string_of_int b | None -> "off (storage tier disabled)" );
      ("headline_op", match kind with Read_mostly -> "read" | Ingest -> "write ack");
      ("tail_percentile", "p99 of each segment, best segment");
      Engine.describe_pct "read_p50_ms (pooled)" reads 0.5;
      Engine.describe_pct "read_p99_ms (pooled)" reads 0.99;
      Engine.describe_pct "write_ack_p50_ms (pooled)" writes 0.5;
      Engine.describe_pct "write_ack_p99_ms (pooled)" writes 0.99;
      Engine.describe_highest "headline_highest_supported (pooled)"
        (match kind with Read_mostly -> reads | Ingest -> writes);
      ("failed_ratio", Engine.fmt_f (Engine.ratio failed submitted));
      ("links_at_end_of_first_segment", first.links);
      ("reply_digest", first.digest);
    ]
  in
  {
    Engine.correct = problems = [];
    attempted = submitted;
    failed;
    metrics =
      [
        ("throughput_ops_s", high (fun sg -> float_of_int sg.completed /. sg.wall));
        ("p50_ms", low (fun sg -> (Engine.pct (head sg) 0.5).value));
        ("tail_ms", low (fun sg -> (Engine.pct (head sg) 0.99).value));
        ("setup_s", med (fun sg -> sg.setup_s));
        ("peak_heap_mb", heap);
      ];
    facts = facts @ List.map (fun p -> ("gate_failure", p)) (List.sort_uniq compare problems);
    table = [];
  }

let traced kind (r : Engine.run) =
  (* Untraced segments first, for half the run length: the reference for
     the tracing overhead and the GC figures.  The last one's submit and
     pump times, and its batches, are kept for the attribution. *)
  let deadline = Mclock.now () +. (r.seconds /. 2.0) in
  let last = ref (Spans.create (), []) in
  let rec go acc =
    if acc <> [] && Mclock.now () >= deadline then List.rev acc
    else begin
      let sp = Spans.create () and batches = ref [] in
      Spans.set_enabled sp true;
      let sg =
        run_segment ~sp ~on_batch:(fun b -> batches := b :: !batches) kind r ~full_gates:false
      in
      last := (sp, List.rev !batches);
      go (sg :: acc)
    end
  in
  let segs = go [] in
  let sp_b, batches_b = !last in
  let seg_b = List.nth segs (List.length segs - 1) in
  let wall_b = Engine.median (List.map (fun sg -> sg.wall) segs) in
  let ops = segment_ops kind in
  let problems_b = List.concat_map (fun sg -> sg.problems) segs in
  let attempted_b = List.fold_left (fun acc sg -> acc + sg.submitted) 0 segs in
  let failed_b = List.fold_left (fun acc sg -> acc + sg.failed) 0 segs in
  (* Traced: the same ops with the program's tracer on, for the overhead,
     the program's own spans and the engine's counters. *)
  let inp = make_inputs kind ~seed:r.seed in
  let hac = build_engine inp in
  Hac_obs.Trace.set_enabled (Hac.tracer hac) true;
  let srv = serve_server hac in
  let sp = Spans.create () in
  Spans.set_enabled sp true;
  let lp = new_loop srv hac inp.gen sp in
  let dev = device_of hac in
  let dev_ops0 = Device.op_count dev and fsyncs0 = Device.fsync_count dev in
  let c0 = Engine.read_counters hac and ss0 = Engine.read_spans hac in
  Engine.settle_heap ();
  let t0 = Mclock.now () in
  run_loop lp ~quota:(fun () -> ops - lp.submitted) ~after_pump:ignore;
  let wall_a = Mclock.since t0 in
  let c1 = Engine.read_counters hac and ss1 = Engine.read_spans hac in
  let fsyncs = Device.fsync_count dev - fsyncs0 in
  let dev_bytes = payload_bytes dev ~from:dev_ops0 in
  let problems_a, _ = gates inp lp in
  (* The replay of pump's layers, over the last untraced segment. *)
  let tw = make_twin inp in
  let rp = Spans.create () in
  Spans.set_enabled rp true;
  Engine.settle_heap ();
  let ts0 = Engine.read_spans tw.t_hac and tc0 = Engine.read_counters tw.t_hac in
  List.iter (replay rp tw) batches_b;
  let ts1 = Engine.read_spans tw.t_hac and tc1 = Engine.read_counters tw.t_hac in
  let problems =
    problems_a @ problems_b
    @
    match tw.first_mismatch with
    | Some m -> [ Printf.sprintf "replay differs from the served run (%d): %s" tw.mismatches m ]
    | None -> []
  in
  (* Attribution of the untraced segment's time: submit and pump as
     measured, pump's inside from the replay. *)
  let e2e = seg_b.wall in
  let share x = 100.0 *. x /. e2e in
  let tot name = Spans.total sp_b name +. Spans.total rp name in
  let ncalls name = Spans.calls sp_b name + Spans.calls rp name in
  let per_call name = if ncalls name = 0 then 0.0 else tot name /. float_of_int (ncalls name) in
  let settles = ncalls "hac.settle" in
  let tspan name = fst (Engine.span_delta ts0 ts1 name) in
  let tcount name = snd (Engine.span_delta ts0 ts1 name) in
  let reindex = tspan "sync.reindex" and sdelta = tspan "sync.delta" +. tspan "sync.full" in
  let qeval = tspan "query.eval" in
  let settle_self = tot "hac.settle" -. reindex -. sdelta in
  let slo = tot "slo.observe" +. tot "slo.evaluate" in
  let pump_layers =
    tot "snapshot.read" +. tot "hac.apply" +. tot "hac.settle" +. tot "snapshot.advance"
    +. tot "device.fsync" +. slo
  in
  let bookkeeping = tot "serve.pump" -. pump_layers in
  let unattributed = e2e -. tot "serve.submit" -. tot "serve.pump" in
  let d = Engine.delta c0 c1 and td = Engine.delta tc0 tc1 in
  let rate h m = Engine.ratio h (h + m) in
  let writes = lp.writes_ms.n in
  let shares =
    [
      ("serve.submit_pct", share (tot "serve.submit"));
      ("serve.pump_bookkeeping_pct", share bookkeeping);
      ("snapshot.read_pct", share (tot "snapshot.read"));
      ("slo.observe_pct", share slo);
      ("hac.apply_pct", share (tot "hac.apply"));
      ("hac.settle_pct", share settle_self);
      ("sync.reindex_pct", share reindex);
      ("sync.delta_pct", share (sdelta -. qeval));
      ("query.eval_pct", share qeval);
      ("snapshot.advance_pct", share (tot "snapshot.advance"));
      ("device.fsync_pct", share (tot "device.fsync"));
      ("unattributed_pct", share unattributed);
    ]
  in
  let overhead = 100.0 *. (wall_a -. wall_b) /. wall_b in
  let counts =
    [
      ("trace.overhead_pct", overhead);
      ("serve.batch_ops", Engine.ratio ops lp.pumps);
      ("sync.dirs_reevaluated_per_settle", Engine.ratio (td "sync.dirs_reevaluated") settles);
      ("rescache.hit_rate", rate (td "rescache.hits") (td "rescache.misses"));
      ("pass.term_memo.hit_rate", rate (td "pass.term_memo.hits") (td "pass.term_memo.misses"));
      ("pass.doc_cache.hit_rate", rate (td "pass.doc_cache.hits") (td "pass.doc_cache.misses"));
      ("journal.appends_per_write", Engine.ratio (d "journal.appends") writes);
      ("device.fsyncs_per_batch", Engine.ratio fsyncs lp.pumps);
      ("device.bytes_per_user_byte", Engine.ratio dev_bytes lp.user_bytes);
      ("search.postings_scanned_per_op", Engine.ratio (d "search.postings_scanned") ops);
      ("search.candidates_per_op", Engine.ratio (d "search.candidates_expanded") ops);
      ("search.docs_verified_per_op", Engine.ratio (d "search.docs_verified") ops);
      ("planner.reordered_per_op", Engine.ratio (d "planner.optimize.reordered") ops);
      ("store.cache.hit_rate", rate (d "store.cache.hits") (d "store.cache.misses"));
      ("store.cache.evictions_per_op", Engine.ratio (d "store.cache.evictions") ops);
      ("gc.minor_words_per_op", Engine.median (List.map (fun sg -> sg.minor_words) segs) /. float_of_int ops);
      ( "gc.major_per_kop",
        1000.0 *. Engine.median (List.map (fun sg -> float_of_int sg.majors) segs) /. float_of_int ops );
    ]
  in
  let us x = x *. 1e6 and ms x = x *. 1e3 in
  let calls name = Printf.sprintf "%d calls" (ncalls name) in
  let wave_cpu, waves = Engine.span_delta ss0 ss1 "serve.read_wave" in
  let per_settle x = if settles = 0 then 0.0 else ms (x /. float_of_int settles) in
  let table =
    [
      ("serve.submit_us", us (per_call "serve.submit"), calls "serve.submit");
      ("serve.pump_ms", ms (per_call "serve.pump"), Printf.sprintf "%d pumps" lp.pumps);
      ("serve.batch_ops", Engine.ratio ops lp.pumps, "ops per pump");
      ( "serve.read_wave_us",
        (if waves = 0 then 0.0 else us (wave_cpu /. float_of_int waves)),
        Printf.sprintf "program span, CPU, %d waves" waves );
      ("slo.observe_us", us (per_call "slo.observe"), calls "slo.observe");
      ("slo.evaluate_us", us (per_call "slo.evaluate"), calls "slo.evaluate");
      ("snapshot.read_us", us (per_call "snapshot.read"), calls "snapshot.read");
      ("snapshot.advance_ms", ms (per_call "snapshot.advance"), calls "snapshot.advance");
      ("hac.apply_us", us (per_call "hac.apply"), calls "hac.apply");
      ("hac.settle_ms", ms (per_call "hac.settle"), Printf.sprintf "%d settles" settles);
      ("sync.reindex_ms", per_settle reindex, "program span, CPU, per settle");
      ("sync.delta_ms", per_settle sdelta, "program span, CPU, per settle");
      ( "query.eval_us",
        (let n = tcount "query.eval" in
         if n = 0 then 0.0 else us (qeval /. float_of_int n)),
        Printf.sprintf "program span, CPU, %d evals" (tcount "query.eval") );
      ("device.fsync_us", us (per_call "device.fsync"), calls "device.fsync");
      ("pump.bookkeeping_ms", ms (bookkeeping /. float_of_int (max 1 lp.pumps)), "pump minus replayed layers, per pump");
      ("replay.reply_mismatches", float_of_int tw.mismatches, "must be 0");
    ]
    @ List.map (fun (n, v) -> (n, v, "share of served time")) shares
    @ List.map (fun (n, v) -> (n, v, "")) counts
  in
  let facts =
    [
      ("untraced_segments", string_of_int (List.length segs));
      ("untraced_segment_seconds_median", Engine.fmt_f wall_b);
      ("traced_segment_seconds", Engine.fmt_f wall_a);
      ("attributed_segment_seconds", Engine.fmt_f e2e);
      ("ops_per_segment", string_of_int ops);
      ("trace_overhead_pct", Engine.fmt_f overhead);
    ]
    @ List.map (fun p -> ("gate_failure", p)) problems
  in
  {
    Engine.correct = problems = [];
    attempted = lp.submitted + attempted_b;
    failed = lp.failed + failed_b;
    metrics = shares @ counts;
    facts;
    table;
  }

let run kind (r : Engine.run) = if r.trace then traced kind r else untraced kind r
