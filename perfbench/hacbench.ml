(* hacbench: run one workload against HAC's public API and print its
   metrics.

     hacbench.exe --workload W --seed N --seconds S --trace 0|1
                  [--nproc N] [--commit ID] [--source-digest HEX]

   Untraced (--trace 0) prints the end-to-end metrics; traced (--trace 1)
   the per-layer table.  Run facts and the table come first, one per line;
   the last line of stdout is the JSON result:

     {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

   Correctness gates run before anything is printed; a failed gate prints
   its reason and reports "correct": false. *)

let workloads = [ "serve-read"; "serve-ingest"; "classify"; "cold-mount" ]

let end_to_end =
  [ ("throughput_ops_s", "1/s"); ("p50_ms", "ms"); ("tail_ms", "ms"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

(* Every workload prints every per-layer metric; a layer a workload never
   reaches reads 0. *)
let per_layer =
  [
    ("serve.submit_pct", "%");
    ("serve.pump_bookkeeping_pct", "%");
    ("snapshot.read_pct", "%");
    ("slo.observe_pct", "%");
    ("hac.apply_pct", "%");
    ("hac.settle_pct", "%");
    ("sync.reindex_pct", "%");
    ("sync.delta_pct", "%");
    ("query.eval_pct", "%");
    ("snapshot.advance_pct", "%");
    ("device.fsync_pct", "%");
    ("classify.smkdir_pct", "%");
    ("classify.links_pct", "%");
    ("classify.srmdir_pct", "%");
    ("recover.mount_pct", "%");
    ("link.materialize_pct", "%");
    ("snapshot.capture_pct", "%");
    ("server.create_pct", "%");
    ("mount.first_links_pct", "%");
    ("unattributed_pct", "%");
    ("trace.overhead_pct", "%");
    ("serve.batch_ops", "count");
    ("sync.dirs_reevaluated_per_settle", "count");
    ("rescache.hit_rate", "ratio");
    ("pass.term_memo.hit_rate", "ratio");
    ("pass.doc_cache.hit_rate", "ratio");
    ("journal.appends_per_write", "count");
    ("device.fsyncs_per_batch", "count");
    ("device.bytes_per_user_byte", "ratio");
    ("search.postings_scanned_per_op", "count");
    ("search.candidates_per_op", "count");
    ("search.docs_verified_per_op", "count");
    ("search.verify_yield", "ratio");
    ("planner.reordered_per_op", "count");
    ("store.cache.hit_rate", "ratio");
    ("store.cache.evictions_per_op", "count");
    ("store.seg.loads_per_restart", "count");
    ("gc.minor_words_per_op", "count");
    ("gc.major_per_kop", "count");
  ]

let usage () =
  prerr_endline
    "usage: hacbench.exe --workload serve-read|serve-ingest|classify|cold-mount --seed N --seconds S \
     --trace 0|1 [--nproc N] [--commit ID] [--source-digest HEX]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let opt k d = Option.value (Hashtbl.find_opt tbl k) ~default:d in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  ( workload,
    { Engine.seed = int_arg "seed"; seconds; trace },
    [ ("nproc", opt "nproc" "unknown"); ("commit", opt "commit" "unknown"); ("source_digest", opt "source-digest" "unknown") ] )

(* A fixed memory-bound kernel (random updates over a 16 MiB array, the
   kind of traffic the workloads' heaps make) timed before and after the
   workload: not a metric, a record of how fast the host was during the
   run, so a reader comparing two runs can tell a slow host from a slow
   program. *)
let host_reference_ms () =
  (* Off the OCaml heap, so it never shows in [peak_heap_mb]. *)
  let a = Bigarray.(Array1.create int c_layout (1 lsl 21)) in
  Bigarray.Array1.fill a 0;
  let once () =
    let t0 = Perfbench.Mclock.now () in
    let x = ref 88172645463325252 in
    for i = 0 to 1_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let j = !x land ((1 lsl 21) - 1) in
      a.{j} <- a.{j} + i
    done;
    Perfbench.Mclock.since t0 *. 1000.0
  in
  List.fold_left Float.min infinity (List.init 3 (fun _ -> once ()))

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let () =
  let workload, run, given = parse Sys.argv in
  let host_before = host_reference_ms () in
  let result =
    match workload with
    | "serve-read" -> Serve_wl.run Serve_wl.Read_mostly run
    | "serve-ingest" -> Serve_wl.run Serve_wl.Ingest run
    | "classify" -> Classify_wl.run run
    | _ -> Mount_wl.run run
  in
  let host_after = host_reference_ms () in
  let facts =
    [
      ("workload", workload);
      ("host_reference_ms", Printf.sprintf "before %.3f after %.3f" host_before host_after);
      ("seed", string_of_int run.seed);
      ("trace", if run.trace then "1" else "0");
      ("ocaml", Sys.ocaml_version);
      ("domains", "1");
    ]
    @ given @ result.facts
  in
  List.iter (fun (k, v) -> Printf.printf "fact %s: %s\n" k v) facts;
  List.iter (fun (k, v, note) -> Printf.printf "layer %-36s %14.4f  %s\n" k v note) result.table;
  let names = if run.trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name result.metrics) ~default:0.0 in
        if not (Float.is_finite v) then Engine.failf "metric %s is not finite" name;
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
      names
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then Engine.failf "workload reported unknown metric %s" n)
    result.metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" result.correct
    result.attempted result.failed (String.concat ", " metrics)
