module Metrics = Hac_obs.Metrics
module Trace = Hac_obs.Trace
module Flight = Hac_obs.Flight

type t = {
  metrics : Metrics.t;
  tracer : Trace.t;
  flight : Flight.t;
  (* Handles resolved once at instance creation so hot paths never touch
     the registry's hashtable. *)
  journal_appends : Metrics.counter;
  journal_replay_applied : Metrics.counter;
  journal_replay_corrupt : Metrics.counter;
  journal_replay_malformed : Metrics.counter;
  journal_epoch : Metrics.gauge;
  journal_checkpoints : Metrics.counter;
  journal_compactions : Metrics.counter;
  recover_segments_replayed : Metrics.gauge;
  recover_checkpoint_age : Metrics.gauge;
  recover_records_skipped : Metrics.counter;
  recover_dirs_skipped : Metrics.counter;
  recover_results_adopted : Metrics.counter;
  recover_results_reevaluated : Metrics.counter;
  planner_chains : Metrics.counter;
  planner_reordered : Metrics.counter;
  planner_cost_saved : Metrics.counter;
  planner_scoped_chains : Metrics.counter;
  index_containers_arrays : Metrics.gauge;
  index_containers_bitmaps : Metrics.gauge;
  index_containers_runs : Metrics.gauge;
  index_postings_bytes : Metrics.gauge;
  index_postings_uncompressed : Metrics.gauge;
  rescache_bytes : Metrics.gauge;
  search_terms : Metrics.counter;
  search_postings : Metrics.counter;
  search_candidates : Metrics.counter;
  search_verified : Metrics.counter;
  search_trusted : Metrics.counter;
  search_words_walked : Metrics.counter;
  sync_full : Metrics.counter;
  sync_delta : Metrics.counter;
  sync_fallback : Metrics.counter;
  sync_from : Metrics.counter;
  sync_dirs : Metrics.counter;
  sync_changed : Metrics.counter;
  reindex_files : Metrics.counter;
  index_rebuilds : Metrics.counter;
  compact_reposted : Metrics.counter;
  persist_files : Metrics.counter;
  memo_hits : Metrics.counter;
  memo_misses : Metrics.counter;
  doc_cache_hits : Metrics.counter;
  doc_cache_misses : Metrics.counter;
  doc_cache_uncached : Metrics.counter;
  generation : Metrics.gauge;
  pass_dirs : Metrics.histogram;
  link_created : Metrics.counter;
  link_removed : Metrics.counter;
  link_name_probes : Metrics.counter;
}

let create ~now () =
  let m = Metrics.create () in
  let flight = Flight.create ~capacity:1024 ~metrics:m ~now () in
  let tracer =
    (* Every finished span feeds a per-stage CPU-time histogram — what the
       bench reports as the settle latency breakdown — and the flight
       recorder's ring of recent spans. *)
    Trace.create ~now
      ~on_close:(fun sp ->
        Metrics.observe
          (Metrics.histogram m ("span." ^ sp.Trace.name ^ ".cpu_s"))
          (Trace.cpu_duration sp);
        Flight.span flight ~name:sp.Trace.name ~vstart:sp.Trace.vstart
          ~vstop:sp.Trace.vstop ~failed:sp.Trace.failed)
      ()
  in
  {
    metrics = m;
    tracer;
    flight;
    journal_appends = Metrics.counter m "journal.appends";
    journal_replay_applied = Metrics.counter m "journal.replay.applied";
    journal_replay_corrupt = Metrics.counter m "journal.replay.corrupt";
    journal_replay_malformed = Metrics.counter m "journal.replay.malformed";
    journal_epoch = Metrics.gauge m "journal.epoch";
    journal_checkpoints = Metrics.counter m "journal.checkpoints";
    journal_compactions = Metrics.counter m "journal.compactions";
    recover_segments_replayed = Metrics.gauge m "recover.segments_replayed";
    recover_checkpoint_age = Metrics.gauge m "recover.checkpoint_age";
    recover_records_skipped = Metrics.counter m "recover.records_skipped";
    recover_dirs_skipped = Metrics.counter m "recover.dirs_skipped";
    recover_results_adopted = Metrics.counter m "recover.results_adopted";
    recover_results_reevaluated = Metrics.counter m "recover.results_reevaluated";
    planner_chains = Metrics.counter m "planner.optimize.chains";
    planner_reordered = Metrics.counter m "planner.optimize.reordered";
    planner_cost_saved = Metrics.counter m "planner.optimize.cost_saved";
    planner_scoped_chains = Metrics.counter m "planner.cost.scoped_chains";
    index_containers_arrays = Metrics.gauge m "index.containers.arrays";
    index_containers_bitmaps = Metrics.gauge m "index.containers.bitmaps";
    index_containers_runs = Metrics.gauge m "index.containers.runs";
    index_postings_bytes = Metrics.gauge m "index.postings.bytes";
    index_postings_uncompressed = Metrics.gauge m "index.postings.uncompressed_bytes";
    rescache_bytes = Metrics.gauge m "rescache.bytes";
    search_terms = Metrics.counter m "search.terms";
    search_postings = Metrics.counter m "search.postings_scanned";
    search_candidates = Metrics.counter m "search.candidates_expanded";
    search_verified = Metrics.counter m "search.docs_verified";
    search_trusted = Metrics.counter m "search.docs_trusted";
    search_words_walked = Metrics.counter m "search.words_walked";
    sync_full = Metrics.counter m "sync.full.count";
    sync_delta = Metrics.counter m "sync.delta.count";
    sync_fallback = Metrics.counter m "sync.delta.fallback";
    sync_from = Metrics.counter m "sync.from.count";
    sync_dirs = Metrics.counter m "sync.dirs_reevaluated";
    sync_changed = Metrics.counter m "sync.dirs_changed";
    reindex_files = Metrics.counter m "sync.reindex.files";
    index_rebuilds = Metrics.counter m "sync.index.rebuilds";
    compact_reposted = Metrics.counter m "index.compact.reposted";
    persist_files = Metrics.counter m "sync.persist.files";
    memo_hits = Metrics.counter m "pass.term_memo.hits";
    memo_misses = Metrics.counter m "pass.term_memo.misses";
    doc_cache_hits = Metrics.counter m "pass.doc_cache.hits";
    doc_cache_misses = Metrics.counter m "pass.doc_cache.misses";
    doc_cache_uncached = Metrics.counter m "pass.doc_cache.uncached";
    generation = Metrics.gauge m "scope.generation";
    pass_dirs = Metrics.histogram m "sync.pass.dirs";
    link_created = Metrics.counter m "link.created";
    link_removed = Metrics.counter m "link.removed";
    link_name_probes = Metrics.counter m "link.name_probes";
  }

(* Fold a finished search probe into the registry. *)
let flush_probe t (p : Hac_index.Search.probe) =
  Metrics.incr ~by:p.Hac_index.Search.terms t.search_terms;
  Metrics.incr ~by:p.Hac_index.Search.postings_scanned t.search_postings;
  Metrics.incr ~by:p.Hac_index.Search.candidates_expanded t.search_candidates;
  Metrics.incr ~by:p.Hac_index.Search.docs_verified t.search_verified;
  Metrics.incr ~by:p.Hac_index.Search.docs_trusted t.search_trusted;
  Metrics.incr ~by:p.Hac_index.Search.words_walked t.search_words_walked
