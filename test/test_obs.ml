(* Tests for the observability layer: the metrics registry (counters,
   gauges, log-bucketed histograms and their percentiles), the tracer
   (nesting, ordering and eviction under the virtual clock), the wiring of
   both through the stack (result cache, resilient namespaces, settle
   spans), and the differential guarantee that turning tracing on never
   changes what HAC computes. *)

module Metrics = Hac_obs.Metrics
module Trace = Hac_obs.Trace
module Ctx = Hac_obs.Ctx
module Flight = Hac_obs.Flight
module Slo = Hac_obs.Slo
module Export = Hac_obs.Export
module Clock = Hac_fault.Clock
module Breaker = Hac_fault.Breaker
module Fault = Hac_fault.Fault
module Namespace = Hac_remote.Namespace
module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Rescache = Hac_core.Rescache
module Fs = Hac_vfs.Fs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let counter_value m name =
  match Metrics.find m name with
  | Some (Metrics.Counter_value n) -> n
  | _ -> Alcotest.failf "no counter %s" name

let gauge_value m name =
  match Metrics.find m name with
  | Some (Metrics.Gauge_value v) -> v
  | _ -> Alcotest.failf "no gauge %s" name

let histogram_value m name =
  match Metrics.find m name with
  | Some (Metrics.Histogram_value s) -> s
  | _ -> Alcotest.failf "no histogram %s" name

(* -- registry basics ------------------------------------------------------- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.count c);
  (* Same name returns the same instrument, not a fresh one. *)
  Metrics.incr (Metrics.counter m "a.count");
  check_int "find-or-create aliases" 6 (Metrics.count c);
  let g = Metrics.gauge m "a.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge holds last value" 2.5 (Metrics.value g);
  (match Metrics.gauge m "a.count" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not rejected");
  Metrics.reset m;
  check_int "reset zeroes counters in place" 0 (Metrics.count c);
  Alcotest.(check (float 0.0)) "reset zeroes gauges" 0.0 (Metrics.value g)

let test_disable_is_noop () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  let g = Metrics.gauge m "g" in
  let h = Metrics.histogram m "h" in
  Metrics.set_enabled m false;
  Metrics.incr c;
  Metrics.set g 7.0;
  Metrics.observe h 0.5;
  check_int "disabled counter unchanged" 0 (Metrics.count c);
  Alcotest.(check (float 0.0)) "disabled gauge unchanged" 0.0 (Metrics.value g);
  check_int "disabled histogram unchanged" 0 (Metrics.summary h).Metrics.count;
  Metrics.set_enabled m true;
  Metrics.incr c;
  check_int "re-enabled counter counts" 1 (Metrics.count c)

(* -- histograms ------------------------------------------------------------ *)

let test_histogram_buckets () =
  check_int "underflow lands in bucket 0" 0 (Metrics.bucket_of 0.0);
  check_int "lo itself lands in bucket 0" 0 (Metrics.bucket_of 1e-9);
  check_int "just above lo lands in bucket 1" 1 (Metrics.bucket_of 2e-9);
  (* Bucket upper bounds are consistent with bucket assignment. *)
  List.iter
    (fun i ->
      check_int
        (Printf.sprintf "upper bound of bucket %d maps back" i)
        i
        (Metrics.bucket_of (Metrics.bucket_upper i)))
    [ 1; 5; 20; 40 ];
  check_int "huge values saturate in the last bucket" (Metrics.buckets - 1)
    (Metrics.bucket_of 1e30);
  check_bool "last bucket is unbounded" true
    (Metrics.bucket_upper (Metrics.buckets - 1) = infinity)

let test_histogram_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (* A single repeated value: every percentile is clamped onto it. *)
  for _ = 1 to 10 do
    Metrics.observe h 0.003
  done;
  let s = Metrics.summary h in
  check_int "count" 10 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 0.03 s.Metrics.sum;
  Alcotest.(check (float 0.0)) "p50 clamps to the one value" 0.003 s.Metrics.p50;
  Alcotest.(check (float 0.0)) "p99 clamps to the one value" 0.003 s.Metrics.p99;
  (* A skewed distribution: the p50/p90 ranks sit in the small-value
     bucket (within one log2 bucket of 1 ms) while p99 reaches the single
     large observation, clamped to the true max. *)
  let h2 = Metrics.histogram m "lat2" in
  for _ = 1 to 9 do
    Metrics.observe h2 0.001
  done;
  Metrics.observe h2 1.0;
  let s2 = Metrics.summary h2 in
  check_bool "p50 within a bucket of the bulk" true
    (s2.Metrics.p50 >= 0.001 && s2.Metrics.p50 <= 0.0021);
  check_bool "p90 still in the bulk" true (s2.Metrics.p90 <= 0.0021);
  Alcotest.(check (float 0.0)) "p99 reaches the outlier, clamped to max" 1.0
    s2.Metrics.p99;
  Alcotest.(check (float 0.0)) "min tracked exactly" 0.001 s2.Metrics.vmin;
  Alcotest.(check (float 0.0)) "max tracked exactly" 1.0 s2.Metrics.vmax

(* -- tracer ---------------------------------------------------------------- *)

let make_tracer ?capacity ?on_close () =
  let clock = Clock.create () in
  let tr = Trace.create ?capacity ?on_close ~now:(fun () -> Clock.now clock) () in
  (clock, tr)

let test_span_nesting_and_order () =
  let clock, tr = make_tracer () in
  Trace.set_enabled tr true;
  Trace.with_span tr ~name:"outer" (fun () ->
      Clock.advance clock 1.0;
      Trace.with_span tr ~name:"inner" (fun () ->
          Trace.set_attr_int tr "k" 7;
          Clock.advance clock 0.5);
      Trace.with_span tr ~name:"inner2" (fun () -> ()));
  (match Trace.finished tr with
  | [ i1; i2; outer ] ->
      (* Children close before their parent; open order is the seq order. *)
      Alcotest.(check string) "first closed" "inner" i1.Trace.name;
      Alcotest.(check string) "second closed" "inner2" i2.Trace.name;
      Alcotest.(check string) "root closed last" "outer" outer.Trace.name;
      check_bool "seq follows open order" true
        (outer.Trace.seq < i1.Trace.seq && i1.Trace.seq < i2.Trace.seq);
      check_int "root depth" 0 outer.Trace.depth;
      check_int "child depth" 1 i1.Trace.depth;
      check_bool "child links to parent" true (i1.Trace.parent = Some outer.Trace.id);
      Alcotest.(check (float 0.0)) "child opens at virtual 1.0" 1.0 i1.Trace.vstart;
      Alcotest.(check (float 1e-9)) "child virtual duration" 0.5 (Trace.v_duration i1);
      Alcotest.(check (float 1e-9)) "root spans the whole window" 1.5
        (Trace.v_duration outer);
      check_bool "attr recorded on the innermost span" true
        (List.mem_assoc "k" i1.Trace.attrs && List.assoc "k" i1.Trace.attrs = "7")
  | spans -> Alcotest.failf "expected 3 finished spans, got %d" (List.length spans));
  check_int "jsonl has one line per span" 3
    (List.length
       (List.filter (fun l -> l <> "")
          (String.split_on_char '\n' (Trace.to_jsonl tr))))

let test_span_disabled_and_failed () =
  let _, tr = make_tracer () in
  check_int "disabled with_span is passthrough" 42
    (Trace.with_span tr ~name:"ghost" (fun () -> 42));
  check_int "disabled leaves no spans" 0 (Trace.total tr);
  Trace.set_enabled tr true;
  (match Trace.with_span tr ~name:"boom" (fun () -> failwith "no") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  (match Trace.finished tr with
  | [ sp ] ->
      check_bool "escaping exception marks the span failed" true sp.Trace.failed
  | _ -> Alcotest.fail "failed span not recorded");
  (* The active stack unwound: the next span is a fresh root. *)
  Trace.with_span tr ~name:"after" (fun () -> ());
  match Trace.finished tr with
  | [ _; after ] ->
      check_bool "stack unwound after failure" true
        (after.Trace.parent = None && after.Trace.depth = 0)
  | _ -> Alcotest.fail "expected two spans"

let test_ring_eviction () =
  let _, tr = make_tracer ~capacity:4 () in
  Trace.set_enabled tr true;
  for i = 1 to 6 do
    Trace.with_span tr ~name:(Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun sp -> sp.Trace.name) (Trace.finished tr) in
  Alcotest.(check (list string)) "ring keeps the newest, oldest first"
    [ "s3"; "s4"; "s5"; "s6" ] names;
  check_int "evictions counted" 2 (Trace.dropped tr);
  check_int "total unaffected by eviction" 6 (Trace.total tr);
  Trace.clear tr;
  check_int "clear empties the ring" 0 (List.length (Trace.finished tr));
  check_int "clear resets dropped" 0 (Trace.dropped tr);
  check_int "clear resets total" 0 (Trace.total tr)

let test_on_close_feeds_histograms () =
  let t = Hac.create () in
  Trace.set_enabled (Hac.tracer t) true;
  Hac.write_file t "/a.txt" "alpha beta";
  Hac.smkdir t "/q" "alpha";
  ignore (Hac.reindex t ());
  let s = histogram_value (Hac.metrics t) "span.sync.reindex.cpu_s" in
  check_bool "every finished span feeds span.<name>.cpu_s" true (s.Metrics.count > 0);
  let s2 = histogram_value (Hac.metrics t) "span.query.eval.cpu_s" in
  check_bool "query evaluation histogrammed" true (s2.Metrics.count > 0)

(* -- differential: tracing must not change behaviour ----------------------- *)

let run_workload ~traced =
  let t = Hac.create ~stem:false () in
  if traced then Trace.set_enabled (Hac.tracer t) true;
  let fs = Hac.fs t in
  Fs.mkdir_p fs "/docs";
  for i = 0 to 19 do
    Fs.write_file fs
      (Printf.sprintf "/docs/f%02d.txt" i)
      (Printf.sprintf "file number %d %s" i (if i mod 3 = 0 then "triple" else "plain"))
  done;
  Hac.smkdir t "/threes" "triple";
  Hac.smkdir t "/both" "triple AND number";
  ignore (Hac.reindex t ());
  Fs.write_file fs "/docs/f01.txt" "file number 1 triple now";
  Fs.write_file fs "/docs/f03.txt" "file number 3 plain now";
  ignore (Hac.reindex t ());
  Hac.schquery t "/both" "plain AND number";
  ignore (Hac.reindex t ());
  let links d = List.sort compare (List.map (fun l -> l.Link.name) (Hac.links t d)) in
  (Hac.semantic_dirs t, links "/threes", links "/both", Hac.dirty_count t)

let test_differential_tracing () =
  let plain = run_workload ~traced:false in
  let traced = run_workload ~traced:true in
  check_bool "tracing on and off compute identical results" true (plain = traced)

(* -- breaker + namespace metrics ------------------------------------------- *)

let test_breaker_metrics () =
  let clock = Clock.create () in
  let m = Metrics.create () in
  let ns =
    Namespace.static ~ns_id:"flaky"
      [ ("doc.ps", "dlib://flaky/doc.ps", "sorting networks survey") ]
  in
  let inj = Fault.create ~seed:11 ~clock () in
  let wrapped = Namespace.with_policy ~metrics:m ~clock (Namespace.with_faults inj ns) in
  ignore (wrapped.Namespace.search "sorting");
  check_int "healthy call counted" 1 (counter_value m "ns.flaky.calls");
  check_int "no failures yet" 0 (counter_value m "ns.flaky.failures");
  Alcotest.(check (float 0.0)) "breaker gauge starts closed" 0.0
    (gauge_value m "ns.flaky.breaker.state");
  check_bool "slack histogram observed on success" true
    ((histogram_value m "ns.flaky.deadline_slack_s").Metrics.count > 0);
  Fault.set_plans inj [ Fault.Outage ];
  for _ = 1 to 4 do
    (try ignore (wrapped.Namespace.search "sorting") with Namespace.Unavailable _ -> ())
  done;
  Alcotest.(check (float 0.0)) "breaker gauge open under persistent failure" 2.0
    (gauge_value m "ns.flaky.breaker.state");
  check_bool "transitions counted" true
    (counter_value m "ns.flaky.breaker.transitions" >= 1);
  check_bool "failures counted" true (counter_value m "ns.flaky.failures" > 0);
  check_bool "retries counted" true (counter_value m "ns.flaky.retries" > 0);
  (* Health is a reader over the same instruments — single source of truth. *)
  (match Namespace.health wrapped with
  | Some h ->
      check_int "health.total_calls reads the registry"
        (counter_value m "ns.flaky.calls")
        h.Namespace.total_calls;
      check_int "health.total_failures reads the registry"
        (counter_value m "ns.flaky.failures")
        h.Namespace.total_failures;
      check_int "health.total_retries reads the registry"
        (counter_value m "ns.flaky.retries")
        h.Namespace.total_retries;
      check_bool "health sees the open breaker" true (h.Namespace.breaker = Breaker.Open)
  | None -> Alcotest.fail "policy-wrapped namespace has no health");
  Fault.clear inj;
  Clock.advance clock 60.0;
  ignore (wrapped.Namespace.search "sorting");
  Alcotest.(check (float 0.0)) "recovery closes the breaker gauge" 0.0
    (gauge_value m "ns.flaky.breaker.state");
  check_bool "open -> half-open -> closed adds transitions" true
    (counter_value m "ns.flaky.breaker.transitions" >= 3)

(* -- result cache thin reader ---------------------------------------------- *)

let test_rescache_thin_reader () =
  let t = Hac.create () in
  Hac.write_file t "/a.txt" "needle in haystack";
  Hac.smkdir t "/q" "needle";
  ignore (Hac.reindex t ());
  Hac.sync_all t;
  Hac.sync_all t;
  let st = Hac.result_cache_stats t in
  let m = Hac.metrics t in
  check_int "stats.hits is the rescache.hits counter"
    (counter_value m "rescache.hits")
    st.Rescache.hits;
  check_int "stats.misses is the rescache.misses counter"
    (counter_value m "rescache.misses")
    st.Rescache.misses;
  check_int "stats.drops is the rescache.drops counter"
    (counter_value m "rescache.drops")
    st.Rescache.drops;
  check_bool "entries gauge mirrors the table" true
    (gauge_value m "rescache.entries" = float_of_int st.Rescache.entries);
  check_bool "warm no-change sync_all hits" true (st.Rescache.hits > 0);
  Hac.reset_result_cache_stats t;
  check_int "reset zeroes the registry counters too" 0
    (counter_value m "rescache.hits" + counter_value m "rescache.misses"
   + counter_value m "rescache.drops")

(* -- request trace context -------------------------------------------------- *)

let test_ctx_telescoping () =
  let g = Ctx.gen ~seed:7 in
  let c = Ctx.make ~id:(Ctx.fresh g) ~now:10.0 in
  Ctx.record_until c "admission" 10.25;
  Ctx.record_until c "queue" 10.75;
  Ctx.record_until c "eval" 11.0;
  (* A repeated stage accumulates under its first occurrence. *)
  Ctx.record_until c "queue" 11.5;
  Alcotest.(check (list string))
    "first-occurrence order"
    [ "admission"; "queue"; "eval" ]
    (List.map fst (Ctx.stages c));
  Alcotest.(check (float 1e-9)) "repeat accumulates" 1.0 (Option.get (Ctx.find c "queue"));
  Alcotest.(check (float 1e-9)) "stages telescope to the full interval" 1.5 (Ctx.total c);
  check_int "hex id is 16 digits" 16 (String.length (Ctx.id_hex c))

let test_ctx_ids_unique_across_rings () =
  (* The satellite guarantee: seeded 64-bit ids, no collisions within a
     stream, across differently seeded streams, across [clear], or across
     multiple tracer rings. *)
  let seen = Hashtbl.create 4096 in
  let g1 = Ctx.gen ~seed:1 and g2 = Ctx.gen ~seed:2 in
  for _ = 1 to 1000 do
    let a = Ctx.fresh g1 and b = Ctx.fresh g2 in
    check_bool "ids non-negative" true (a >= 0 && b >= 0);
    check_bool "no id collision" false (Hashtbl.mem seen a || Hashtbl.mem seen b);
    Hashtbl.replace seen a ();
    Hashtbl.replace seen b ()
  done;
  let clock = Clock.create () in
  let now () = Clock.now clock in
  let t1 = Trace.create ~now () and t2 = Trace.create ~now () in
  Trace.set_enabled t1 true;
  Trace.set_enabled t2 true;
  let id_of tr =
    Trace.with_span tr ~name:"s" (fun () -> ());
    match Trace.finished tr with
    | sp :: _ -> sp.Trace.id
    | [] -> Alcotest.fail "no finished span"
  in
  let a = id_of t1 in
  Trace.clear t1;
  let b = id_of t1 in
  let c = id_of t2 in
  check_bool "span ids unique across clear" true (a <> b);
  check_bool "span ids unique across rings" true (a <> c && b <> c)

(* -- SLO burn-rate monitor --------------------------------------------------- *)

let test_slo_burn_boundary () =
  let clock = Clock.create () in
  let m = Metrics.create () in
  let slo =
    Slo.create ~metrics:m
      ~now:(fun () -> Clock.now clock)
      [ { Slo.op = "read"; latency_s = 1.0; goal = 0.9 } ]
  in
  (* 1 bad of 10 consumes the 10% budget exactly: burn = 1.0 on both
     windows, and the >= threshold fires at the closed boundary. *)
  for _ = 1 to 9 do
    Slo.observe slo ~op:"read" ~latency_s:0.2 ~ok:true
  done;
  Slo.observe slo ~op:"read" ~latency_s:5.0 ~ok:true;
  (match Slo.evaluate slo with
  | [ a ] ->
      Alcotest.(check string) "alert names the op" "read" a.Slo.a_op;
      Alcotest.(check (float 1e-9)) "burn at exactly 1.0" 1.0 a.Slo.fast_burn
  | l -> Alcotest.failf "expected exactly one alert, got %d" (List.length l));
  check_bool "breached while active" true (Slo.breached slo);
  Alcotest.(check (list string)) "breached op listed" [ "read" ] (Slo.breached_ops slo);
  check_int "alert counter" 1 (counter_value m "slo.read.alerts");
  Alcotest.(check (float 0.0)) "breached gauge" 1.0 (gauge_value m "slo.read.breached");
  (* Rising edge only: re-evaluating the same state is silent. *)
  check_int "no re-fire without a new edge" 0 (List.length (Slo.evaluate slo));
  (* One more good sample tips the fraction below the budget: 1/11 < 10%. *)
  Slo.observe slo ~op:"read" ~latency_s:0.2 ~ok:true;
  check_int "below the boundary does not fire" 0 (List.length (Slo.evaluate slo));
  check_bool "alert cleared" false (Slo.breached slo)

let test_slo_below_boundary_does_not_fire () =
  let clock = Clock.create () in
  let slo =
    Slo.create
      ~now:(fun () -> Clock.now clock)
      [ { Slo.op = "read"; latency_s = 1.0; goal = 0.9 } ]
  in
  for _ = 1 to 10 do
    Slo.observe slo ~op:"read" ~latency_s:0.2 ~ok:true
  done;
  Slo.observe slo ~op:"read" ~latency_s:5.0 ~ok:true;
  check_int "1 bad of 11 stays under the budget" 0 (List.length (Slo.evaluate slo))

let test_slo_windows_and_recovery () =
  let clock = Clock.create () in
  let m = Metrics.create () in
  let alerts = ref [] in
  let slo =
    Slo.create ~metrics:m
      ~on_alert:(fun a -> alerts := a :: !alerts)
      ~now:(fun () -> Clock.now clock)
      [ { Slo.op = "write"; latency_s = 1.0; goal = 0.5 } ]
  in
  (* Errors are bad even under the latency target. *)
  for _ = 1 to 4 do
    Slo.observe slo ~op:"write" ~latency_s:0.1 ~ok:false
  done;
  check_int "alert fired" 1 (List.length (Slo.evaluate slo));
  check_int "on_alert callback fired" 1 (List.length !alerts);
  (* Past the fast window the burst ages out of it: the alert clears even
     though the slow window still remembers the burn. *)
  Clock.advance clock 301.0;
  Slo.observe slo ~op:"write" ~latency_s:0.1 ~ok:true;
  check_int "no rising edge while clearing" 0 (List.length (Slo.evaluate slo));
  check_bool "cleared once the fast window is clean" false (Slo.breached slo);
  (match Slo.burn slo ~op:"write" with
  | Some (fast, slow) ->
      check_bool "fast window forgot the burst" true (fast < 1.0);
      check_bool "slow window still remembers" true (slow >= 1.0)
  | None -> Alcotest.fail "tracked op must report burn rates");
  (* A fresh burst re-fires: the rising edge is counted again. *)
  for _ = 1 to 4 do
    Slo.observe slo ~op:"write" ~latency_s:0.1 ~ok:false
  done;
  check_int "re-fired" 1 (List.length (Slo.evaluate slo));
  check_int "alerts counter accumulates" 2 (counter_value m "slo.write.alerts")

(* The monitor against a naive model of its rules: every observation kept
   in a list forever, each window counting those with [at >= now - window],
   an alert on the rising edge of [>= threshold] on both windows. *)
module Slo_model = struct
  type t = {
    config : Slo.config;
    objectives : Slo.objective list;
    mutable events : (string * float * bool) list;  (** (op, at, bad) *)
    mutable active : string list;
  }

  let create config objectives = { config; objectives; events = []; active = [] }

  let record m ~now ~op ~latency_s ~ok =
    match List.find_opt (fun (o : Slo.objective) -> o.op = op) m.objectives with
    | None -> not ok
    | Some o ->
        let bad = (not ok) || latency_s > o.latency_s in
        m.events <- (op, now, bad) :: m.events;
        bad

  let burn_over m ~now (o : Slo.objective) window =
    let horizon = now -. window in
    let inside = List.filter (fun (op, at, _) -> op = o.op && at >= horizon) m.events in
    let total = List.length inside in
    let bad = List.length (List.filter (fun (_, _, b) -> b) inside) in
    if total = 0 then 0.0
    else
      let budget = 1.0 -. o.goal in
      if budget <= 0.0 then if bad > 0 then infinity else 0.0
      else float_of_int bad /. float_of_int total /. budget

  let burn m ~now op =
    List.find_opt (fun (o : Slo.objective) -> o.op = op) m.objectives
    |> Option.map (fun o ->
           (burn_over m ~now o m.config.fast_window_s, burn_over m ~now o m.config.slow_window_s))

  (* The alerts that fire, as (op, fast, slow). *)
  let evaluate m ~now =
    List.filter_map
      (fun (o : Slo.objective) ->
        let fast = burn_over m ~now o m.config.fast_window_s in
        let slow = burn_over m ~now o m.config.slow_window_s in
        let breached = fast >= m.config.burn_threshold && slow >= m.config.burn_threshold in
        let was = List.mem o.op m.active in
        m.active <-
          (if breached then o.op :: List.filter (( <> ) o.op) m.active
           else List.filter (( <> ) o.op) m.active);
        if breached && not was then Some (o.op, fast, slow) else None)
      m.objectives
end

type slo_op =
  | Observe of string * float * bool  (** op, latency, ok *)
  | Advance of float
  | Evaluate
  | Burn of string

let slo_objectives =
  [
    { Slo.op = "read"; latency_s = 1.0; goal = 0.9 };
    { Slo.op = "write"; latency_s = 2.0; goal = 0.5 };
    { Slo.op = "strict"; latency_s = 1.0; goal = 1.0 };
  ]

let slo_configs =
  [
    { Slo.fast_window_s = 30.0; slow_window_s = 120.0; burn_threshold = 1.0 };
    (* A fast window longer than the slow one. *)
    { Slo.fast_window_s = 120.0; slow_window_s = 30.0; burn_threshold = 2.0 };
  ]

let describe_slo_op = function
  | Observe (op, l, ok) -> Printf.sprintf "observe %s %.2f %b" op l ok
  | Advance dt -> Printf.sprintf "advance %.2f" dt
  | Evaluate -> "evaluate"
  | Burn op -> "burn " ^ op

let arb_slo_run =
  let open QCheck.Gen in
  (* "other" has no objective.  Latencies sit below, at and above the
     targets; advances include 0 and exactly one window length, so
     observations land on a window's closing edge. *)
  let op_name = oneofl [ "read"; "write"; "strict"; "other" ] in
  let gen_op config =
    frequency
      [
        ( 6,
          map3
            (fun op l ok -> Observe (op, l, ok))
            op_name
            (oneofl [ 0.5; 1.0; 1.5; 2.0; 3.0 ])
            (frequency [ (4, return true); (1, return false) ]) );
        ( 3,
          map
            (fun dt -> Advance dt)
            (oneofl
               [ 0.0; 0.25; 1.0; 7.5; config.Slo.fast_window_s; config.Slo.slow_window_s ]) );
        (2, return Evaluate);
        (1, map (fun op -> Burn op) op_name);
      ]
  in
  let gen =
    int_bound (List.length slo_configs - 1) >>= fun k ->
    let config = List.nth slo_configs k in
    list_size (int_range 1 80) (gen_op config) >|= fun ops -> (k, ops)
  in
  QCheck.make
    ~print:(fun (k, ops) ->
      Printf.sprintf "config %d: %s" k (String.concat "; " (List.map describe_slo_op ops)))
    gen

let prop_slo_matches_model =
  QCheck.Test.make ~name:"slo matches the naive list model" ~count:500 arb_slo_run
    (fun (k, ops) ->
      let config = List.nth slo_configs k in
      let clock = Clock.create () in
      let now () = Clock.now clock in
      let slo = Slo.create ~config ~now slo_objectives in
      let model = Slo_model.create config slo_objectives in
      List.iteri
        (fun i op ->
          let fail what = QCheck.Test.fail_reportf "step %d (%s): %s" i (describe_slo_op op) what in
          match op with
          | Observe (name, latency_s, ok) ->
              let bad = Slo.record slo ~op:name ~latency_s ~ok in
              if bad <> Slo_model.record model ~now:(now ()) ~op:name ~latency_s ~ok then
                fail "verdict differs"
          | Advance dt -> Clock.advance clock dt
          | Evaluate ->
              let got =
                List.map (fun (a : Slo.alert) -> (a.a_op, a.fast_burn, a.slow_burn)) (Slo.evaluate slo)
              in
              if got <> Slo_model.evaluate model ~now:(now ()) then fail "alerts differ";
              if List.sort compare (Slo.breached_ops slo) <> List.sort compare model.active then
                fail "breached ops differ"
          | Burn name ->
              if Slo.burn slo ~op:name <> Slo_model.burn model ~now:(now ()) name then
                fail "burn rates differ")
        ops;
      true)

(* -- flight recorder --------------------------------------------------------- *)

let test_flight_ring_roundtrip () =
  let clock = Clock.create () in
  let m = Metrics.create () in
  let fl = Flight.create ~capacity:4 ~metrics:m ~now:(fun () -> Clock.now clock) () in
  for i = 1 to 3 do
    Clock.advance clock 1.0;
    Flight.metric fl ~name:(Printf.sprintf "m%d" i) ~value:(float_of_int i)
  done;
  Flight.span fl ~name:"settle" ~vstart:1.0 ~vstop:2.5 ~failed:false;
  Flight.transition fl ~subsystem:"server" ~from_:"ok" ~to_:"degraded" ~reason:"slo burn";
  Flight.metric fl ~name:"m4" ~value:4.0;
  check_int "ring bounded" 4 (Flight.stored fl);
  check_int "evictions counted" 2 (Flight.dropped fl);
  check_int "everything counted" 6 (Flight.total fl);
  check_int "events counter" 6 (counter_value m "flight.events");
  let names =
    List.map
      (fun (e : Flight.entry) ->
        match e.Flight.ev with
        | Flight.Metric { name; _ } -> name
        | Flight.Span { name; _ } -> name
        | Flight.Transition { subsystem; _ } -> subsystem)
      (Flight.entries fl)
  in
  Alcotest.(check (list string))
    "oldest evicted, oldest-first order" [ "m3"; "settle"; "server"; "m4" ] names;
  let img = Flight.encode ~reason:"unit test" fl in
  (match Flight.decode img with
  | Ok d ->
      Alcotest.(check string) "reason survives" "unit test" d.Flight.reason;
      check_bool "entries survive the round trip" true (d.Flight.events = Flight.entries fl)
  | Error e -> Alcotest.fail ("decode: " ^ e));
  (match Flight.decode "not a flight dump" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode");
  match Flight.decode (String.sub img 0 (String.length img - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated image must not decode"

let tmp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_flight_breach_dumps () =
  let clock = Clock.create () in
  let fl = Flight.create ~now:(fun () -> Clock.now clock) () in
  Flight.metric fl ~name:"x" ~value:1.0;
  check_bool "no auto-dump dir, no file" true (Flight.breach fl ~reason:"r" = None);
  let dir = tmp_dir "hacflight" in
  Flight.set_auto_dump fl (Some dir);
  (match Flight.breach fl ~reason:"slo breach: read" with
  | Some path -> (
      check_bool "dump file exists" true (Sys.file_exists path);
      match Flight.load path with
      | Ok d ->
          Alcotest.(check string) "reason preserved" "slo breach: read" d.Flight.reason;
          check_int "ring content dumped" 1 (List.length d.Flight.events)
      | Error e -> Alcotest.fail ("load: " ^ e))
  | None -> Alcotest.fail "breach with an auto-dump dir must write");
  (match Flight.breach fl ~reason:"again" with
  | Some _ -> check_int "two distinct dumps on disk" 2 (Array.length (Sys.readdir dir))
  | None -> Alcotest.fail "second breach must write");
  check_int "dumps counted" 2 (Flight.dumps fl);
  rm_rf dir

(* -- exporters ---------------------------------------------------------------- *)

let has_sub hay sub =
  let n = String.length sub and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let test_prom_exposition () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "serve.ops-total");
  Metrics.set (Metrics.gauge m "slo.read.burn_fast") 1.25;
  let h = Metrics.histogram m "span.settle.cpu_s" in
  Metrics.observe h 0.001;
  Metrics.observe h 0.004;
  let text = Export.render_prom m in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let name_ok n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n
  in
  let types = Hashtbl.create 8 and helps = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if String.length line > 7 && String.sub line 0 7 = "# TYPE " then (
        match String.split_on_char ' ' line with
        | [ _; _; fam; kind ] ->
            check_bool ("family name valid: " ^ fam) true (name_ok fam);
            check_bool ("known kind: " ^ kind) true
              (List.mem kind [ "counter"; "gauge"; "summary" ]);
            check_bool ("one TYPE per family: " ^ fam) false (Hashtbl.mem types fam);
            Hashtbl.replace types fam kind
        | _ -> Alcotest.fail ("malformed TYPE line: " ^ line))
      else if String.length line > 7 && String.sub line 0 7 = "# HELP " then (
        match String.split_on_char ' ' line with
        | _ :: _ :: fam :: _ ->
            check_bool ("one HELP per family: " ^ fam) false (Hashtbl.mem helps fam);
            Hashtbl.replace helps fam ()
        | _ -> Alcotest.fail ("malformed HELP line: " ^ line))
      else if line.[0] <> '#' then (
        let name =
          match String.index_opt line '{' with
          | Some i -> String.sub line 0 i
          | None -> (
              match String.index_opt line ' ' with
              | Some i -> String.sub line 0 i
              | None -> line)
        in
        check_bool ("sample name valid: " ^ name) true (name_ok name);
        check_bool ("hac_ prefixed: " ^ name) true
          (String.length name > 4 && String.sub name 0 4 = "hac_")))
    lines;
  check_int "every family typed" (Hashtbl.length helps) (Hashtbl.length types);
  check_bool "counter sample" true (has_sub text "hac_serve_ops_total 3");
  check_bool "gauge sample" true (has_sub text "hac_slo_read_burn_fast 1.25");
  check_bool "summary quantiles" true
    (has_sub text "hac_span_settle_cpu_s{quantile=\"0.99\"}");
  check_bool "summary count" true (has_sub text "hac_span_settle_cpu_s_count 2");
  Alcotest.(check string) "sanitize keeps colons, replaces the rest" "hac_a_b_c:d"
    (Export.sanitize "a-b.c:d")

let test_jsonl_export () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "a");
  Metrics.set (Metrics.gauge m "b") 0.5;
  Metrics.observe (Metrics.histogram m "c") 0.25;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Export.to_jsonl m))
  in
  check_int "one line per instrument" 3 (List.length lines);
  List.iter
    (fun l ->
      check_bool "one object per line" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}');
      check_bool "kind tagged" true (has_sub l "\"kind\":"))
    lines

(* -- json export ----------------------------------------------------------- *)

let test_json_export () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "x.calls");
  Metrics.set (Metrics.gauge m "x.level") 1.5;
  Metrics.observe (Metrics.histogram m "x.lat") 0.25;
  let j = Metrics.to_json m in
  let has sub =
    let n = String.length sub and l = String.length j in
    let rec go i = i + n <= l && (String.sub j i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "counter serialised" true (has "\"x.calls\": { \"type\": \"counter\"");
  check_bool "gauge serialised" true (has "\"x.level\": { \"type\": \"gauge\"");
  check_bool "histogram serialised with percentiles" true
    (has "\"x.lat\": { \"type\": \"histogram\"" && has "\"p99\"")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "disable is a no-op" `Quick test_disable_is_noop;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "json export" `Quick test_json_export;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting_and_order;
          Alcotest.test_case "disabled and failed spans" `Quick
            test_span_disabled_and_failed;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "on_close feeds histograms" `Quick
            test_on_close_feeds_histograms;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "telescoping stage breakdown" `Quick test_ctx_telescoping;
          Alcotest.test_case "ids unique across rings" `Quick
            test_ctx_ids_unique_across_rings;
        ] );
      ( "slo",
        [
          Alcotest.test_case "fires at the exact boundary" `Quick test_slo_burn_boundary;
          Alcotest.test_case "below the boundary is quiet" `Quick
            test_slo_below_boundary_does_not_fire;
          Alcotest.test_case "windows and recovery" `Quick test_slo_windows_and_recovery;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 15 |])
            prop_slo_matches_model;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring eviction and round trip" `Quick
            test_flight_ring_roundtrip;
          Alcotest.test_case "breach dumps" `Quick test_flight_breach_dumps;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
          Alcotest.test_case "jsonl snapshot" `Quick test_jsonl_export;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "tracing is behaviour-neutral" `Quick
            test_differential_tracing;
          Alcotest.test_case "breaker gauge and transitions" `Quick test_breaker_metrics;
          Alcotest.test_case "rescache thin reader" `Quick test_rescache_thin_reader;
        ] );
    ]
