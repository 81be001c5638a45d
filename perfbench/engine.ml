(* Shared plumbing: building an engine from generated inputs, reading the
   program's own instruments back, and the result every workload returns. *)

module Hac = Hac_core.Hac
module Metrics = Hac_obs.Metrics

type run = { seed : int; seconds : float; trace : bool }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** Untraced: the end-to-end metrics.  Traced: the per-layer ones
          this workload reaches (the caller zero-fills the rest). *)
  facts : (string * string) list;  (** Run facts, printed before the result. *)
  table : (string * float * string) list;
      (** The traced run's layer table: row name, value, annotation. *)
}

let failf fmt = Printf.ksprintf failwith fmt

(* A tree of files and semantic directories, the way a user would build
   it: directories, then file contents, then saved searches, then one
   settle. *)
let populate hac ~files ~semdirs =
  List.iter
    (fun (p, body) ->
      Hac.mkdir_p hac (Filename.dirname p);
      Hac.write_file hac p body)
    files;
  List.iter (fun (p, q) -> Hac.smkdir hac p q) semdirs;
  Hac.settle hac

let corpus_bytes files = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 files

(* -- the program's instruments ---------------------------------------- *)

let counter hac name =
  match Metrics.find (Hac.metrics hac) name with Some (Metrics.Counter_value n) -> n | _ -> 0

let gauge hac name =
  match Metrics.find (Hac.metrics hac) name with Some (Metrics.Gauge_value v) -> v | _ -> 0.0

(* CPU seconds and count of the tracer's [span.<name>.cpu_s] histogram. *)
let span_cpu hac name =
  match Metrics.find (Hac.metrics hac) ("span." ^ name ^ ".cpu_s") with
  | Some (Metrics.Histogram_value s) -> (s.Metrics.sum, s.Metrics.count)
  | _ -> (0.0, 0)

(* A before/after reading of a set of counters. *)
type counters = (string * int) list

let counter_names =
  [
    "search.postings_scanned";
    "search.candidates_expanded";
    "search.docs_verified";
    "planner.optimize.reordered";
    "sync.dirs_reevaluated";
    "rescache.hits";
    "rescache.misses";
    "pass.term_memo.hits";
    "pass.term_memo.misses";
    "pass.doc_cache.hits";
    "pass.doc_cache.misses";
    "journal.appends";
    "store.cache.hits";
    "store.cache.misses";
    "store.cache.evictions";
    "store.seg.loads";
  ]

let read_counters hac : counters = List.map (fun n -> (n, counter hac n)) counter_names

let delta (before : counters) (after : counters) name =
  List.assoc name after - List.assoc name before

let span_names = [ "sync.reindex"; "sync.delta"; "sync.full"; "query.eval"; "serve.read_wave" ]

let read_spans hac = List.map (fun n -> (n, span_cpu hac n)) span_names

let span_delta before after name =
  let s1, c1 = List.assoc name after and s0, c0 = List.assoc name before in
  (s1 -. s0, c1 - c0)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* -- runtime figures --------------------------------------------------- *)

(* Every timed phase starts from a fully collected heap, so the garbage of
   set-up or of an earlier phase does not decide when its major slices run. *)
let settle_heap () = Gc.compact ()

type gc_mark = { minor : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; major = s.Gc.major_collections }

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Segments of one run repeat identical work, and interference from other
   tenants of the host only ever slows a segment down; the best segment is
   therefore the steadiest estimate of the program's own cost (the minimum
   estimator of Chen and Revels, "Robust benchmarking in noisy
   environments", 2016).  Latencies take the lowest segment value,
   throughput the highest. *)
let best_low l = List.fold_left Float.min infinity l

let best_high l = List.fold_left Float.max neg_infinity l

let fmt_f x = Printf.sprintf "%.6g" x

(* Set-up is timed [setups] times and reported as the median.  The run
   keeps the first instance; the extra set-ups happen after the timed
   phase, so their garbage never inflates the peak heap it reports. *)
let setups = 5

let setup_median first_s setup =
  let rest = List.init (setups - 1) (fun _ -> snd (Perfbench.Mclock.time setup)) in
  median (first_s :: rest)

(* A growable sample of latencies, in milliseconds. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let contents s = Array.sub s.a 0 s.n

(* A percentile the sample must support; an unsupported tail is a failed
   run, never a silently reported maximum. *)
let pct s p =
  match Perfbench.Pct.quantile (contents s) p with
  | Ok e -> e
  | Error why -> failf "cannot report p%g: %s" (p *. 100.) why

(* The highest percentile the sample supports, as the issue's run facts
   ask: a reader sees how far into the tail the run can speak. *)
let describe_highest name s =
  match Perfbench.Pct.highest (contents s) with
  | Some e -> (name, Printf.sprintf "%s = %.4f ms (n=%d, %d beyond)" (Perfbench.Pct.label e) e.value e.n e.beyond)
  | None -> (name, Printf.sprintf "none (n=%d)" s.n)

let describe_pct name s p =
  match Perfbench.Pct.quantile (contents s) p with
  | Ok e -> (name, Printf.sprintf "%.4f ms (n=%d, %d beyond)" e.value e.n e.beyond)
  | Error why -> (name, "unsupported: " ^ why)
