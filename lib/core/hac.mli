(** HAC — the Hierarchy And Content file system.

    The public facade: a hierarchical file system (all of {!Hac_vfs.Fs}'s
    operations work, through {!fs} or the wrappers here) extended with
    content-based access.  Semantic directories are created with {!smkdir},
    kept scope-consistent automatically, and manipulated with the [s*]
    commands the paper describes ([ssync], [sact], [smount], ...).

    HAC observes {e every} mutation of the underlying file system through
    its event stream, so applications may also mutate {!fs} directly —
    deleting a symbolic link from a semantic directory with the plain
    [unlink] still marks its target prohibited. *)

type t
(** One HAC file system. *)

exception Hac_error of string
(** Raised by the [s*] operations on user errors (bad query, unknown
    directory, dependency cycle, ...). *)

(** {1 Construction} *)

val create :
  ?block_size:int ->
  ?stem:bool ->
  ?transducer:Hac_index.Transducer.t ->
  ?auto_sync:bool ->
  ?reindex_every:int ->
  unit ->
  t
(** A fresh HAC over an empty file system.  [auto_sync] (default [false])
    reindexes and re-evaluates after every mutation — convenient
    interactively, costly on bulk loads.  [reindex_every] triggers the
    paper's periodic data-consistency pass after that many mutations.
    [block_size] (Glimpse's block view, default 1) and [stem] configure the
    content index. *)

val of_fs :
  ?block_size:int ->
  ?stem:bool ->
  ?transducer:Hac_index.Transducer.t ->
  ?auto_sync:bool ->
  ?reindex_every:int ->
  Hac_vfs.Fs.t ->
  t
(** Adopt an existing file system: registers every directory in the global
    uid map and indexes every regular file. *)

type adopted = {
  hac : t;  (** The instance, storage tier attached. *)
  chain : Journal.chain;  (** The journal chain, read once. *)
  replay : Journal.replay;
      (** Its replay: the uid map, the semantic flags, the dirty paths. *)
  delta : Sync.delta;
      (** The journaled dirty delta, already indexed — what the scope pass
          ending the mount must settle ({!adopt_results}). *)
}
(** What {!fast_adopt} rebuilt, for the caller to finish the mount. *)

val fast_adopt :
  ?block_size:int ->
  ?stem:bool ->
  ?transducer:Hac_index.Transducer.t ->
  ?auto_sync:bool ->
  ?reindex_every:int ->
  ?budget:int ->
  Hac_vfs.Fs.t ->
  (adopted, string) result
(** O(delta) adoption of a tree a previous store-enabled life checkpointed:
    rebuilds the namespace from the journal's uid map and the index
    skeleton from the store's document table, touching only metadata —
    file bodies are never read or re-tokenized, and postings stay on disk,
    demand-faulted per term ({!Hac_index.Index.set_cold}).  Paths the
    journal flagged dirty ([F] records) and files the table does not know
    are re-read and indexed before it returns.  The caller restores the
    semantic structures of the replay's semantic entries
    ({!restore_semdir}), then finishes with {!adopt_results}
    ({!Recover.mount} drives this and falls back to {!of_fs} +
    {!Recover.reload_report} on [Error]).  Refuses — [Error reason] — when
    there is no readable checkpoint, the tail carries damaged or
    namespace-surgery records, or the document table or store manifest is
    missing, damaged, or from another epoch/lineage.  [budget] bounds the
    block cache as in {!enable_store}. *)

val adopt_results : t -> Sync.delta -> unit
(** Finish a fast mount whose semantic directories are restored: adopt the
    persisted result of every directory its images vouch for
    ({!Sync.adopt_result}, counted in [recover.results_adopted]),
    re-evaluate the others dependencies first
    ([recover.results_reevaluated]), then settle the delta {!fast_adopt}
    indexed and fsync the journal, as {!settle} ends. *)

val shutdown : ?graceful:bool -> t -> unit
(** Stop this instance: it no longer observes the file system (simulating
    the user-level library going away).  With [graceful] (default) pending
    data consistency is settled first, as at a clean exit; pass [false] to
    simulate a crash.  Either way the persisted metadata in [/.hac] remains
    for {!Recover.reload} by a future instance. *)

val fs : t -> Hac_vfs.Fs.t
(** The underlying file system (safe to use directly). *)

val index : t -> Hac_index.Index.t
(** The content index (the CBA mechanism). *)

val intercept : t -> string -> unit
(** The per-call interposition work the paper's user-level DLL performs on
    {e every} file system call before delegating to UNIX: normalize the
    path, consult the global directory map, and check whether the containing
    directory is semantic (and hence needs consistency hooks).  The wrappers
    below call this; external layers driving {!fs} directly can call it to
    model the same cost. *)

(** {1 Plain file-system operations}

    Thin wrappers over {!Hac_vfs.Fs} on the wrapped instance; each performs
    the {!intercept} work first, like the paper's interposed calls. *)

val mkdir : t -> string -> unit
val mkdir_p : t -> string -> unit
val rmdir : t -> string -> unit
val write_file : t -> string -> string -> unit
val append_file : t -> string -> string -> unit
val read_file : t -> string -> string
val unlink : t -> string -> unit
val rename : t -> src:string -> dst:string -> unit
val symlink : t -> target:string -> link:string -> unit
val readlink : t -> string -> string
val readdir : t -> string -> string list
val exists : t -> string -> bool
val is_dir : t -> string -> bool

(** {1 Semantic directories} *)

val smkdir : t -> string -> string -> unit
(** [smkdir t path query] creates a semantic directory: makes the directory,
    parses and installs the query (directory references become uids), wires
    dependency edges and evaluates the query.  The result is stored compactly
    (the paper's N/8-byte bitmap); the transient symbolic links materialise
    on first access through HAC ({!links}, {!readdir}, {!read_file}, ...).
    Raises {!Hac_error} on parse errors, unknown referenced directories or
    dependency cycles (the directory is not created). *)

val srmdir : t -> string -> unit
(** Remove a semantic directory: deletes its HAC-managed links, then the
    directory itself (which must otherwise be empty), its semantic state,
    uid and dependency edges. *)

val schquery : t -> string -> string -> unit
(** Replace the query of a directory and re-evaluate it and its dependents.
    On a plain directory this {e makes} it semantic (retro-fit).  Raises
    {!Hac_error} on parse errors or cycles (state unchanged). *)

val sreadin : t -> string -> string option
(** The query of a directory, rendered with current referenced-directory
    paths; [None] for syntactic directories. *)

val squery_ast : t -> string -> Hac_query.Ast.t option
(** The installed query AST ([Ref_uid] form). *)

val is_semantic : t -> string -> bool
(** Whether the directory has a query. *)

val semantic_dirs : t -> string list
(** Paths of every semantic directory, sorted. *)

val semdir_stamps : t -> (string * int) list
(** Every semantic directory's path and change stamp ({!Semdir.t.stamp}),
    sorted by path.  A view built from a directory is current while its
    stamp is unchanged. *)

val settle : ?durability:[ `Always | `Batch ] -> t -> unit
(** Settle everything now: data consistency (reindex the dirty paths), then
    scope consistency (incremental, falling back to a full pass after
    structural events).  Directories are re-evaluated one at a time,
    dependencies first; one pass shares its scopes, term results and
    document tokens across every directory it visits (see [docs/perf.md]).

    Every settle ends with a durability barrier: the journal tail is
    fsynced to the simulated disk before the settle returns, so nothing a
    settle acknowledged can be lost to a later crash.  [?durability] sets
    the (sticky) append-flush policy: [`Always] additionally fsyncs each
    journal append as it happens, [`Batch] (default) relies on the
    per-settle barrier alone.  See {!set_durability}. *)

val set_durability : t -> [ `Always | `Batch ] -> unit
(** Set the journal append-flush policy (see {!settle}). *)

val durability : t -> [ `Always | `Batch ]
(** The current append-flush policy. *)

val ssync : t -> string -> unit
(** Re-evaluate the directory's query and those of all directories that
    directly or indirectly depend on it (the paper's [ssync]). *)

val sync_all : t -> unit
(** Settle scope consistency everywhere (dependencies first). *)

val reindex : t -> ?under:string -> unit -> int
(** Settle data consistency now (optionally only below [under]) and then
    restore scope consistency {e incrementally}: queries are re-evaluated
    only over the documents the reindex touched or removed
    ({!Sync.sync_delta}).  Structural events since the last settle force a
    full re-evaluation instead.  Returns the number of files whose index
    entries were refreshed. *)

val reindex_full : t -> ?under:string -> unit -> int
(** Like {!reindex} but always re-evaluates every semantic directory from
    scratch ({!Sync.sync_all}) — the non-incremental baseline, useful for
    benchmarking and as a property-test oracle. *)

val dirty_count : t -> int
(** Files whose index entry is currently stale. *)

val set_auto_sync : t -> bool -> unit
(** Enable/disable settling after every mutation.  A server batching writes
    into group commits turns this off so [tick] stops settling inline, calls
    {!settle} once per batch, and restores the previous setting when it
    stops. *)

val auto_sync_enabled : t -> bool
(** Current setting of {!set_auto_sync}. *)

val index_report : t -> Hac_index.Cas.stats
(** Container histogram and memory accounting of the CAS postings, also
    published to the [index.containers.*] / [index.postings.*] gauges.
    Forces partition snapshots — a stats-time cost, cheap next to a settle
    but not free. *)

(** {1 Links} *)

val links : t -> string -> Link.t list
(** Present links of a semantic directory (sorted by name); [[]] for
    syntactic directories. *)

val prohibited : t -> string -> string list
(** Prohibited target keys of a semantic directory. *)

val add_permanent : t -> dir:string -> target:string -> string
(** Explicitly add a permanent link in [dir] to [target] (a local path or a
    remote uri); lifts any prohibition on the target.  Returns the link
    name created. *)

val remove_link : t -> dir:string -> name:string -> unit
(** Delete a link by name — the target becomes prohibited, exactly as if
    the user ran [rm] on it. *)

val unprohibit : t -> dir:string -> target:string -> unit
(** Forget a prohibition (the paper's special API for sophisticated users);
    the target may reappear at the next re-evaluation. *)

val prohibit_target : t -> dir:string -> target:string -> unit
(** Directly prohibit a target (the other half of the paper's special API):
    any present link to it is removed, and it will never be re-added
    implicitly. *)

val restore_semdir :
  t -> string -> query:string -> permanent:string list -> prohibited:string list -> unit
(** Reinstall a semantic directory from recovered metadata (see
    {!Recover.reload}): the directory must already exist physically;
    symlinks named in [permanent] are adopted as permanent, other present
    symlinks as transient (their local targets form the result),
    [prohibited] target keys are restored, and the query and its dependency
    edges are installed.  Nothing is evaluated: once every directory is
    restored the caller re-evaluates them ({!sync_all}) or, at a fast mount,
    adopts what the images vouch for ({!adopt_results}).  Raises
    {!Hac_error} if the directory is already semantic, the query is bad or
    it would close a dependency cycle. *)

val sact : t -> string -> (int * string) list
(** [sact t link_path] retrieves the information in the linked file that
    matches the directory's query: (line number, line) pairs containing
    query words.  Works for local and remote targets. *)

val resolve_link : t -> string -> string option
(** Contents of the file a link (or plain path) designates, fetching from
    the remote namespace when the target is remote. *)

(** {1 Checkpoints and compaction}

    The directory journal is a chain of epoch-stamped segments plus
    atomically-published checkpoints (see {!Journal} and
    [docs/recovery.md]).  A checkpoint bounds remount cost by the delta
    since it was taken; compaction reclaims the history it supersedes. *)

val checkpoint : ?durability:[ `Always | `Batch ] -> t -> int
(** Settle, then commit an atomic checkpoint of the full semantic state
    (consolidated journal + every semantic directory's structure files,
    one checksummed image blob published by write-new/fsync/rename).
    Returns the epoch the checkpoint covers; subsequent journal appends
    open the next epoch's segment.  Crash-safe at every point: recovery
    sees either the old chain or the new one. *)

val compact : t -> int
(** Delete what the newest {e readable} checkpoint supersedes: older
    segments and checkpoints, uncommitted checkpoint scratch, and stale
    structure files no longer reachable from the chain.  Returns how many
    files were removed.  A no-op (except scratch cleanup) when no valid
    checkpoint exists — compaction never truncates history it cannot
    prove covered. *)

val journal_epoch : t -> int
(** Epoch of the segment journal appends currently go to. *)

(** {1 The durable storage tier}

    Off by default (every structure memory-resident, exactly the classic
    behaviour).  Enabled, the tier backs every live document with a
    content-addressed block under [/.hac/store] — verification reads are
    served through a byte-bounded LRU cache — and each checkpoint
    additionally persists the postings as immutable segments plus the
    document table that {!fast_adopt} rebuilds from. *)

val enable_store : ?budget:int -> t -> unit
(** Turn the tier on (idempotent): creates the block store, opens a fresh
    segment lineage, and eagerly seeds a block for every currently-live
    document.  [budget] bounds the block cache in payload bytes (default
    4 MiB). *)

val store_enabled : t -> bool
(** Whether the storage tier is on. *)

val store : t -> Hac_store.Store.t option
(** The tier itself, for introspection (cache and segment accounting). *)

val checkpoint_metadata : t -> unit
(** Re-key the on-"disk" metadata area around this instance's uids by
    committing a checkpoint of current state ({!checkpoint} without the
    settle).  {!Recover.reload} calls this after restoring so the old
    instance's identifiers cannot shadow the new ones. *)

(** {1 Mount points} *)

val smount : t -> string -> Hac_remote.Namespace.t -> unit
(** Attach a namespace as a semantic mount at the directory (several may be
    attached: multiple semantic mount points, section 3.2).  Re-evaluates
    affected semantic directories. *)

val sumount : t -> string -> ns_id:string -> unit
(** Detach one namespace and re-evaluate. *)

val mounted_at : t -> string -> string list
(** [ns_id]s mounted at the directory. *)

val refresh_mounts : t -> unit
(** Re-run every semantic directory whose scope includes a mount point —
    the "saved search" refresh over remote systems. *)

val smount_fs : t -> string -> Hac_vfs.Fs.t -> unit
(** Graft a foreign file system at the directory — a {e syntactic} mount
    point (section 3): paths below it resolve in the foreign system,
    read-only ([EROFS] on mutation), shadowing any local content.  This is
    how coworkers browse each other's classifications by name; combine with
    {!smount} of a {!Hac_remote.Remote_fs} namespace over the same file
    system for content-based access to it. *)

val sumount_fs : t -> string -> unit
(** Detach a syntactic mount (local content reappears). *)

val syntactic_mount_points : t -> string list
(** Paths carrying syntactic mounts, sorted. *)

(** {1 Fault tolerance}

    Remote namespaces fail; HAC degrades rather than breaks.  Wrap a
    namespace with {!Hac_remote.Namespace.with_policy} over this instance's
    {!clock} before mounting it and re-evaluations get bounded retries, a
    per-call deadline and a circuit breaker; when a namespace is unavailable
    anyway, its last-good entries are re-served marked stale (see
    {!Semdir.remote_result}).  See [docs/fault-model.md]. *)

val clock : t -> Hac_fault.Clock.t
(** The instance's virtual wall clock.  Advance it to make time pass for
    backoff delays and breaker probe intervals (nothing ever sleeps). *)

type mount_health = {
  mh_path : string;  (** Mount-point directory. *)
  mh_ns : string;  (** Namespace id. *)
  mh_health : Hac_remote.Namespace.health option;
      (** Live resilience counters; [None] when the namespace was mounted
          without {!Hac_remote.Namespace.with_policy}. *)
}
(** One row of {!mount_status}. *)

val mount_status : t -> mount_health list
(** Health of every mounted namespace, grouped by mount point (sorted). *)

val stale_remotes : t -> string -> Semdir.remote_result list
(** The entries of a semantic directory currently served stale — present
    only because their namespace failed during the last re-evaluation. *)

val remote_failures : t -> int
(** Total failed namespace calls observed during re-evaluations. *)

val stale_serves : t -> int
(** Total last-good entries re-served in place of a failing namespace. *)

(** {1 Incremental maintenance} *)

val result_cache_stats : t -> Rescache.stats
(** Hit/miss/entry/drop counters of the per-directory query-result cache. *)

val reset_result_cache_stats : t -> unit
(** Zero the hit/miss/drop counters (entries are kept). *)

val scope_generation : t -> int
(** Current value of the cache-freshness clock; it advances whenever a
    mutation could change some query's result. *)

(** {1 Observability} *)

val metrics : t -> Hac_obs.Metrics.t
(** The instance's metrics registry.  Every subsystem (planner, search,
    sync, result cache, journal, resilience-wrapped namespaces created
    with this registry) accounts here; see [docs/observability.md] for
    the instrument catalogue. *)

val tracer : t -> Hac_obs.Trace.t
(** The instance's tracer.  Disabled by default; enable it to collect
    nested spans ([hac.settle] > [sync.reindex] / [sync.delta] >
    [query.eval], ...) with virtual-clock timestamps and CPU durations.
    Every finished span also feeds a [span.<name>.cpu_s] histogram in
    {!metrics}. *)

val flight : t -> Hac_obs.Flight.t
(** The instance's flight recorder: an always-on bounded ring of recent
    spans, metric deltas and subsystem transitions, dumped to
    [flight-NNNN.dump] on breach (crash-recovery damage, spec violation,
    SLO breach).  Automatic dumps are off until a directory is set with
    [Hac_obs.Flight.set_auto_dump]. *)

val instr : t -> Instr.t
(** The pre-resolved instrument handles (advanced use: extending the
    core's own instrumentation). *)

(** {1 Accounting} *)

type space = {
  semdir_bytes : int;  (** Link sets, queries, prohibitions. *)
  uidmap_bytes : int;  (** The global identifier map. *)
  depgraph_bytes : int;  (** Dependency edges. *)
  index_bytes : int;  (** The content index. *)
  fs_metadata_bytes : int;  (** The underlying file system's metadata. *)
}
(** Byte-level space report (the paper's 222 KB vs 210 KB comparison). *)

val space : t -> space
(** Measure current space use. *)

val hac_overhead_bytes : space -> int
(** HAC-only structures: semdirs + uidmap + depgraph (excludes the index,
    reported separately in the paper's Table 3). *)

val semdir_count : t -> int
(** Number of semantic directories. *)
