(* The cold-mount workload: restart after a clean shutdown.

   The device is store-enabled and checkpointed, carries journal history
   before the checkpoint and a dirty delta after it.  Each op loads the
   device image (untimed: it stands in for the disk), then times
   Recover.mount -> Server.create -> one served Links batch over every
   semantic directory, i.e. from the loaded device to the first served
   reply. *)

open Perfbench
module Image = Hac_vfs.Image
module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Recover = Hac_core.Recover
module Msg = Hac_serve.Msg
module Server = Hac_serve.Server
module Snapshot = Hac_serve.Snapshot

let dirs = 20
let files_per_dir = 34

let semdirs =
  Serve_wl.ingest_semdirs
  @ List.init 8 (fun i ->
        let w = [| "xmid1"; "xmid2"; "xmid3"; "xred"; "xgiant"; "xtag7"; "xkilo"; "xrare2" |].(i) in
        (Printf.sprintf "/corpus/w%d" i, w))

type device = {
  image : string;
  expected : (string * string list) list;  (** Link targets per semdir at shutdown. *)
  files : int;
  bytes : int;  (** User file bytes, appends included. *)
  journal_records : int;
}

let targets links = List.sort compare (List.map (fun (l : Link.t) -> Link.target_key l.target) links)

let build_device ~seed =
  let rng = Rng.make seed in
  let body_rng = Rng.derive rng "corpus" in
  let spec = Serve_wl.ingest_spec ~min_words:60 ~max_words:180 in
  let files =
    List.init (dirs * files_per_dir) (fun i ->
        ( Printf.sprintf "/corpus/d%02d/f%03d.txt" (i / files_per_dir) (i mod files_per_dir),
          Corpus.body spec body_rng ))
  in
  let hac = Hac.create ~stem:false () in
  Engine.populate hac ~files ~semdirs;
  Hac.enable_store hac;
  (* Journal history before the checkpoint: directory churn and rewrites. *)
  for _ = 1 to 100 do
    Hac.mkdir hac "/corpus/tmp";
    Hac.rmdir hac "/corpus/tmp"
  done;
  let pick () = fst (List.nth files (Rng.int body_rng (List.length files))) in
  let small = Serve_wl.ingest_spec ~min_words:10 ~max_words:30 in
  let bytes = ref (Engine.corpus_bytes files) in
  let add p body =
    bytes := !bytes + String.length body;
    Hac.append_file hac p body
  in
  for _ = 1 to 40 do
    add (pick ()) (Corpus.body small body_rng)
  done;
  Hac.settle hac;
  ignore (Hac.checkpoint hac);
  ignore (Hac.compact hac);
  (* The post-checkpoint dirty delta a fast mount must settle. *)
  for _ = 1 to 20 do
    add (pick ()) (Corpus.body small body_rng)
  done;
  Hac.mkdir hac "/corpus/new";
  for i = 1 to 10 do
    add (Printf.sprintf "/corpus/new/n%02d.txt" i) (Corpus.body spec body_rng)
  done;
  Hac.settle hac;
  let expected = List.map (fun (p, _) -> (p, targets (Hac.links hac p))) semdirs in
  let journal_records = Engine.counter hac "journal.appends" in
  Hac.shutdown ~graceful:true hac;
  {
    image = Image.dump (Hac.fs hac);
    expected;
    files = List.length files + 10;
    bytes = !bytes;
    journal_records;
  }

let load dev = match Image.load dev.image with Ok fs -> fs | Error e -> Engine.failf "image: %s" e

(* Serve one Links request per semantic directory and pump until every
   ticket is resolved. *)
let first_links srv =
  let tks = List.map (fun (p, _) -> (p, Server.submit srv ~session:"restart" (Msg.R (Msg.Links p)))) semdirs in
  let pumps = ref 0 in
  while List.exists (fun (_, (tk : Msg.ticket)) -> tk.outcome = None) tks && !pumps < 64 do
    Server.pump srv;
    incr pumps
  done;
  List.map
    (fun (p, (tk : Msg.ticket)) ->
      match tk.outcome with
      | Some (Msg.Replied { reply = Msg.Linkset rows; _ }) ->
          (p, Some (List.sort compare (List.map (fun (r : Msg.linkrow) -> r.l_target) rows)))
      | _ -> (p, None))
    tks

type op_result = { mode : [ `Fast | `Full ]; links : (string * string list option) list; seg_loads : int; reconstruct_ms : float }

(* One restart from a loaded tree.  With [sp] enabled, the work
   Server.create would otherwise do inside one call is split out first:
   the settle over the journaled delta, and the materialization of the
   semantic directories' links that its snapshot capture triggers.  A
   replica capture afterwards, as warm as the server's own, stands in for
   the capture's cost. *)
let restart ?(sp = Spans.create ()) fs =
  let hac, mode = Spans.span sp "recover.mount" (fun () -> Recover.mount ~stem:false fs) in
  if sp.Spans.on then begin
    Spans.span sp "hac.settle" (fun () -> Hac.settle hac);
    Spans.span sp "link.materialize" ~calls:(List.length semdirs) (fun () ->
        List.iter (fun (p, _) -> ignore (Hac.links hac p)) semdirs)
  end;
  let srv = Spans.span sp "server.create" (fun () -> Server.create hac) in
  if sp.Spans.on then
    Spans.span sp "capture.replica" (fun () -> ignore (Snapshot.capture hac ~seq:0 ~now:0.0));
  let links = Spans.span sp "mount.first_links" (fun () -> first_links srv) in
  (hac, srv, { mode; links; seg_loads = Engine.counter hac "store.seg.loads"; reconstruct_ms = Engine.gauge hac "store.mount.reconstruct_ms" })

let close (hac, srv) =
  Server.stop srv;
  Hac.shutdown ~graceful:false hac

type tally = {
  restart_ms : Engine.samples;
  mutable n : int;
  mutable failed : int;
  mutable problems : string list;
  mutable seg_loads : int;
  mutable reconstruct_ms : float;
}

let tally () = { restart_ms = Engine.samples (); n = 0; failed = 0; problems = []; seg_loads = 0; reconstruct_ms = 0.0 }

let check dev t r =
  if r.mode <> `Fast then t.problems <- "mount fell back to full replay" :: t.problems;
  List.iter2
    (fun (p, exp) (p', got) ->
      assert (p = p');
      match got with
      | None ->
          t.failed <- t.failed + 1;
          t.problems <- ("no link set served for " ^ p) :: t.problems
      | Some got ->
          if got <> exp then
            t.problems <-
              Printf.sprintf "%s: %d links after restart, %d before shutdown" p (List.length got) (List.length exp)
              :: t.problems)
    dev.expected r.links

(* A run is a sequence of segments of [segment_restarts] restarts of the
   same device, enough for each segment's p75 to have ten restarts beyond
   it. *)
let segment_restarts = 40

let min_segments = 3

(* Restart repeatedly while [quota] allows; [sp] times the layers. *)
let run_ops ?sp ?on_load dev t ~quota =
  while quota t.n do
    let fs = match on_load with Some f -> f (fun () -> load dev) | None -> load dev in
    let t0 = Mclock.now () in
    let hac, srv, r = restart ?sp fs in
    let d = Mclock.since t0 in
    Engine.add t.restart_ms (d *. 1000.0);
    t.n <- t.n + 1;
    t.seg_loads <- t.seg_loads + r.seg_loads;
    t.reconstruct_ms <- t.reconstruct_ms +. r.reconstruct_ms;
    check dev t r;
    close (hac, srv)
  done

let uniq l = List.sort_uniq compare l

let untraced (r : Engine.run) =
  let dev, setup0 = Mclock.time (fun () -> build_device ~seed:r.seed) in
  let t = tally () in
  Engine.settle_heap ();
  let deadline = Mclock.now () +. r.seconds in
  let rec go acc =
    if List.length acc >= min_segments && Mclock.now () >= deadline then List.rev acc
    else begin
      let start = t.n and t0 = Mclock.now () in
      run_ops dev t ~quota:(fun n -> n < start + segment_restarts);
      let wall = Mclock.since t0 in
      let seg = Engine.samples () in
      Array.iter (Engine.add seg) (Array.sub (Engine.contents t.restart_ms) start segment_restarts);
      go ((seg, wall) :: acc)
    end
  in
  let segs = go [] in
  let heap = Engine.peak_heap_mb () in
  let setup_s = Engine.setup_median setup0 (fun () -> ignore (build_device ~seed:r.seed)) in
  let low f = Engine.best_low (List.map f segs) and high f = Engine.best_high (List.map f segs) in
  let facts =
    [
      ("run_seconds", Engine.fmt_f r.seconds);
      ("segments", string_of_int (List.length segs));
      ("restarts_per_segment", string_of_int segment_restarts);
      ("segment_seconds", String.concat " " (List.map (fun (_, w) -> Engine.fmt_f w) segs));
      ("segment_p50_ms", String.concat " " (List.map (fun (q, _) -> Engine.fmt_f (Engine.pct q 0.5).value) segs));
      ("segment_p75_ms", String.concat " " (List.map (fun (q, _) -> Engine.fmt_f (Engine.pct q 0.75).value) segs));
      ("restarts", string_of_int t.n);
      ("tail_percentile", "p75 of each segment, best segment");
      ("corpus_files", string_of_int dev.files);
      ("corpus_bytes", string_of_int dev.bytes);
      ("image_bytes", string_of_int (String.length dev.image));
      ("semantic_dirs", string_of_int (List.length semdirs));
      ("journal_records_written", string_of_int dev.journal_records);
      ("block_cache_budget", "default (4 MiB)");
      ("headline_op", "restart (mount + server + first Links batch)");
      Engine.describe_pct "restart_p50_ms" t.restart_ms 0.5;
      Engine.describe_pct "restart_p75_ms" t.restart_ms 0.75;
      Engine.describe_pct "restart_p90_ms" t.restart_ms 0.9;
      Engine.describe_highest "restart_highest_supported" t.restart_ms;
      ("failed_ratio", Engine.fmt_f (Engine.ratio t.failed t.n));
      ("setup_runs", string_of_int Engine.setups);
    ]
  in
  {
    Engine.correct = t.problems = [];
    attempted = t.n;
    failed = t.failed;
    metrics =
      [
        ("throughput_ops_s", high (fun (_, w) -> float_of_int segment_restarts /. w));
        ("p50_ms", low (fun (s, _) -> (Engine.pct s 0.5).value));
        ("tail_ms", low (fun (s, _) -> (Engine.pct s 0.75).value));
        ("setup_s", setup_s);
        ("peak_heap_mb", heap);
      ];
    facts = facts @ List.map (fun p -> ("gate_failure", p)) (uniq t.problems);
    table = [];
  }

let sum_s s = Array.fold_left ( +. ) 0.0 (Engine.contents s) /. 1000.0

let traced (r : Engine.run) =
  let dev = build_device ~seed:r.seed in
  (* Untraced first, for half the run length: the reference for the
     tracing overhead and the GC figures. *)
  let t_b = tally () in
  Engine.settle_heap ();
  let g0 = Engine.gc_mark () in
  let deadline = Mclock.now () +. (r.seconds /. 2.0) in
  run_ops dev t_b ~quota:(fun _ -> Mclock.now () < deadline);
  let g1 = Engine.gc_mark () in
  let restarts = t_b.n in
  let path_b = sum_s t_b.restart_ms in
  (* Traced: the same number of restarts, spans around every public call. *)
  let sp = Spans.create () in
  Spans.set_enabled sp true;
  let t = tally () in
  let on_load f = Spans.span sp "vfs.image_load" f in
  Engine.settle_heap ();
  run_ops ~sp ~on_load dev t ~quota:(fun n -> n < restarts);
  let tot = Spans.total sp and calls = Spans.calls sp in
  (* The served path: what an untraced restart does, without the replica
     capture taken for attribution (the image load is outside it). *)
  let path = sum_s t.restart_ms -. tot "capture.replica" in
  let share x = 100.0 *. x /. path in
  let create_self = tot "server.create" -. tot "capture.replica" in
  let named = tot "recover.mount" +. tot "hac.settle" +. tot "link.materialize" +. tot "server.create" +. tot "mount.first_links" in
  let overhead = 100.0 *. (path -. path_b) /. path_b in
  let shares =
    [
      ("recover.mount_pct", share (tot "recover.mount"));
      ("hac.settle_pct", share (tot "hac.settle"));
      ("link.materialize_pct", share (tot "link.materialize"));
      ("snapshot.capture_pct", share (tot "capture.replica"));
      ("server.create_pct", share create_self);
      ("mount.first_links_pct", share (tot "mount.first_links"));
      ("unattributed_pct", share (path -. named));
    ]
  in
  let counts =
    [
      ("trace.overhead_pct", overhead);
      ("store.seg.loads_per_restart", Engine.ratio t.seg_loads restarts);
      ("gc.minor_words_per_op", (g1.minor -. g0.minor) /. float_of_int restarts);
      ("gc.major_per_kop", 1000.0 *. Engine.ratio (g1.major - g0.major) restarts);
    ]
  in
  let per name = if calls name = 0 then 0.0 else 1000.0 *. tot name /. float_of_int (calls name) in
  let per_restart x = 1000.0 *. x /. float_of_int (max 1 restarts) in
  let table =
    [
      ("vfs.image_load_ms", per "vfs.image_load", "excluded from restart time");
      ("recover.mount_ms", per "recover.mount", Printf.sprintf "%d restarts" restarts);
      ("store.mount.reconstruct_ms", t.reconstruct_ms /. float_of_int (max 1 restarts), "program gauge");
      ("hac.settle_ms", per "hac.settle", "first settle after mount");
      ("link.materialize_ms", per_restart (tot "link.materialize"), Printf.sprintf "%d semantic dirs" (List.length semdirs));
      ("server.create_ms", per_restart create_self, "minus its snapshot capture");
      ("snapshot.capture_ms", per "capture.replica", "replica capture after Server.create");
      ("mount.first_links_ms", per "mount.first_links", "one Links request per semantic dir");
    ]
    @ List.map (fun (n, v) -> (n, v, "share of restart time")) shares
    @ List.map (fun (n, v) -> (n, v, "")) counts
  in
  let facts =
    [
      ("untraced_restart_seconds", Engine.fmt_f path_b);
      ("traced_restart_seconds_same_ops", Engine.fmt_f path);
      ("restarts_per_phase", string_of_int restarts);
      ("trace_overhead_pct", Engine.fmt_f overhead);
    ]
    @ List.map (fun p -> ("gate_failure", p)) (uniq (t.problems @ t_b.problems))
  in
  {
    Engine.correct = t.problems = [] && t_b.problems = [];
    attempted = t.n + t_b.n;
    failed = t.failed + t_b.failed;
    metrics = shares @ counts;
    facts;
    table;
  }

let run (r : Engine.run) = if r.trace then traced r else untraced r
