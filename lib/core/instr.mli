(** Per-instance observability handles.

    One {!t} lives in every {!Ctx.t}: the instance's metrics registry, its
    tracer (timestamps from the instance's virtual clock; every finished
    span also feeds a [span.<name>.cpu_s] histogram), and counter/gauge/
    histogram handles pre-resolved for the hot paths so instrumented code
    never performs a registry lookup.

    Instrument names follow [<subsystem>.<what>] — see
    [docs/observability.md] for the full catalogue. *)

type t = {
  metrics : Hac_obs.Metrics.t;
  tracer : Hac_obs.Trace.t;
  flight : Hac_obs.Flight.t;
      (** Always-on flight recorder: recent spans, metric deltas and
          subsystem transitions, dumped on breach (see
          [docs/observability.md]). *)
  journal_appends : Hac_obs.Metrics.counter;
  journal_replay_applied : Hac_obs.Metrics.counter;
  journal_replay_corrupt : Hac_obs.Metrics.counter;
  journal_replay_malformed : Hac_obs.Metrics.counter;
  journal_epoch : Hac_obs.Metrics.gauge;
      (** Epoch of the segment currently appended to. *)
  journal_checkpoints : Hac_obs.Metrics.counter;
      (** Checkpoints committed by this instance. *)
  journal_compactions : Hac_obs.Metrics.counter;
      (** Compaction passes that removed at least one file. *)
  recover_segments_replayed : Hac_obs.Metrics.gauge;
      (** Post-checkpoint segments the last recovery replayed. *)
  recover_checkpoint_age : Hac_obs.Metrics.gauge;
      (** Records the last recovery replayed beyond its checkpoint (the
          delta the checkpoint did not cover). *)
  recover_records_skipped : Hac_obs.Metrics.counter;
      (** Corrupt or malformed journal records skipped during replay. *)
  recover_dirs_skipped : Hac_obs.Metrics.counter;
      (** Recovery-plan directories that could not be restored. *)
  recover_results_adopted : Hac_obs.Metrics.counter;
      (** Directories a fast mount restored on their persisted result, with
          no re-evaluation. *)
  recover_results_reevaluated : Hac_obs.Metrics.counter;
      (** Directories a fast mount restored whose result it re-evaluated:
          the images could not vouch for it, or it depends on a semantic
          directory. *)
  planner_chains : Hac_obs.Metrics.counter;
  planner_reordered : Hac_obs.Metrics.counter;
  planner_cost_saved : Hac_obs.Metrics.counter;
  planner_scoped_chains : Hac_obs.Metrics.counter;
      (** AND chains planned with a subtree scope hint (scope-counted,
          calibrated costs rather than whole-index estimates). *)
  index_containers_arrays : Hac_obs.Metrics.gauge;
      (** Array containers across all CAS postings (set at stats time). *)
  index_containers_bitmaps : Hac_obs.Metrics.gauge;
      (** Bitmap containers across all CAS postings (set at stats time). *)
  index_containers_runs : Hac_obs.Metrics.gauge;
      (** Run containers across all CAS postings (set at stats time). *)
  index_postings_bytes : Hac_obs.Metrics.gauge;
      (** Compressed CAS postings footprint in bytes (set at stats time). *)
  index_postings_uncompressed : Hac_obs.Metrics.gauge;
      (** What flat per-term bitmaps over the doc-id space would cost. *)
  rescache_bytes : Hac_obs.Metrics.gauge;
      (** Bytes held by cached per-directory result sets. *)
  search_terms : Hac_obs.Metrics.counter;
  search_postings : Hac_obs.Metrics.counter;
  search_candidates : Hac_obs.Metrics.counter;
  search_verified : Hac_obs.Metrics.counter;
  search_trusted : Hac_obs.Metrics.counter;
      (** Candidates accepted on exact postings without a content read. *)
  search_words_walked : Hac_obs.Metrics.counter;
      (** Vocabulary words regex and approximate terms swept for
          candidates. *)
  sync_full : Hac_obs.Metrics.counter;
  sync_delta : Hac_obs.Metrics.counter;
  sync_fallback : Hac_obs.Metrics.counter;
  sync_from : Hac_obs.Metrics.counter;
  sync_dirs : Hac_obs.Metrics.counter;
  sync_changed : Hac_obs.Metrics.counter;
  reindex_files : Hac_obs.Metrics.counter;
  index_rebuilds : Hac_obs.Metrics.counter;
  compact_reposted : Hac_obs.Metrics.counter;
      (** Documents a compaction re-tokenized: its live drifted ones. *)
  persist_files : Hac_obs.Metrics.counter;
      (** Structure files ([sd-N.*]) written. *)
  memo_hits : Hac_obs.Metrics.counter;  (** Per-pass term-memo hits. *)
  memo_misses : Hac_obs.Metrics.counter;  (** Per-pass term-memo misses. *)
  doc_cache_hits : Hac_obs.Metrics.counter;  (** Per-pass doc-cache hits. *)
  doc_cache_misses : Hac_obs.Metrics.counter;
      (** Per-pass doc-cache misses (first read of a path in a pass). *)
  doc_cache_uncached : Hac_obs.Metrics.counter;
      (** Doc-cache lookups served uncached (past the byte budget). *)
  generation : Hac_obs.Metrics.gauge;
  pass_dirs : Hac_obs.Metrics.histogram;
  link_created : Hac_obs.Metrics.counter;
      (** Transient links HAC's link surgery created. *)
  link_removed : Hac_obs.Metrics.counter;
      (** Links HAC's link surgery removed (re-evaluation and [srmdir]). *)
  link_name_probes : Hac_obs.Metrics.counter;
      (** Candidate names tested while naming new transient links. *)
}

val create : now:(unit -> float) -> unit -> t
(** Fresh registry + tracer ([now] supplies the tracer's virtual
    timestamps; tracing starts disabled, metrics enabled). *)

val flush_probe : t -> Hac_index.Search.probe -> unit
(** Add a finished per-evaluation probe's totals to the search counters. *)
