(** Shared mutable state of one HAC file system instance.

    Owned by {!Hac}; {!Sync} reads and updates it.  Not part of the stable
    public API — use {!Hac} unless you are extending the core. *)

type t = {
  fs : Hac_vfs.Fs.t;  (** The underlying hierarchical file system. *)
  index : Hac_index.Index.t;  (** The CBA mechanism (Glimpse stand-in). *)
  uids : Uidmap.t;  (** Global directory-identifier map. *)
  semdirs : (int, Semdir.t) Hashtbl.t;  (** Semantic state by directory uid. *)
  deps : Hac_depgraph.Depgraph.t;  (** Dependency DAG over directory uids. *)
  mounts : Hac_remote.Mount_table.t;  (** Semantic mount points. *)
  namespaces : (string, Hac_remote.Namespace.t) Hashtbl.t;
      (** Every namespace ever mounted, by ns_id, for fetching remote links. *)
  syn_mounts : (int, Hac_vfs.Fs.t) Hashtbl.t;
      (** Syntactic mount points (section 3): foreign file systems grafted
          read-only at a local directory, keyed by its uid. *)
  file_meta : (string, Hac_vfs.Fs.stat) Hashtbl.t;
      (** Per-file bookkeeping initialised at creation time — the paper's
          HAC sets up the open file-descriptor slot and attribute-cache
          entry for every new file (its Andrew phase-2 overhead). *)
  skeletons : (int, Semdir.t) Hashtbl.t;
      (** Pre-initialised (empty) semantic state for {e every} directory —
          the paper's HAC creates and stores query/link-set structures at
          [mkdir] time, which is the dominant Andrew phase-1 overhead.  A
          skeleton is promoted into {!semdirs} by [smkdir]/[schquery]. *)
  dirty : (string, unit) Hashtbl.t;
      (** Paths whose index entry is stale (data consistency, section 2.4).
          Add to it through {!mark_dirty}. *)
  mutable alive : bool;
      (** False once the instance is shut down; its event subscription (which
          cannot be physically removed from the bus) goes inert. *)
  mutable maintenance : bool;
      (** True while HAC itself mutates the fs; suppresses event handling. *)
  mutable auto_sync : bool;
      (** Eagerly reindex and re-evaluate after every mutation. *)
  mutable reindex_every : int option;
      (** Periodic data consistency: reindex after this many mutations. *)
  mutable ops_since_reindex : int;  (** Mutations since the last reindex. *)
  mutable sync_stamp : int;  (** Logical clock of re-evaluations. *)
  clock : Hac_fault.Clock.t;
      (** Virtual wall clock shared with resilience policies: backoff delays
          and breaker probe intervals advance/read it, never real time. *)
  mutable remote_failures : int;
      (** Failed namespace calls observed during re-evaluations. *)
  mutable stale_serves : int;
      (** Last-good remote entries re-served because their namespace was
          unavailable (graceful degradation). *)
  rescache : Rescache.t;
      (** Per-directory query-result cache; entries are validated against
          [scope_generation]. *)
  mutable scope_generation : int;
      (** Bumped on every mutation that can change any query result (index
          updates, renames, link/prohibition edits, mounts, resyncs) — the
          cache-freshness clock. *)
  mutable needs_full_sync : bool;
      (** Set by structural events (renames, link edits, mount changes,
          directory removal) whose effect on query results is not captured
          by the reindex delta; the next settle falls back to a full
          {!Sync.sync_all} and clears it. *)
  mutable durability : [ `Always | `Batch ];
      (** When journal appends are flushed to the simulated disk: [`Always]
          fsyncs each append as it happens, [`Batch] (the default) fsyncs
          once per settle, before the settle acknowledges completion. *)
  mutable journal_epoch : int;
      (** Epoch of the segment journal appends go to; [-1] until first
          resolved from the on-disk chain (see {!Journal.current_epoch}). *)
  mutable store : Hac_store.Store.t option;
      (** The durable storage tier, when enabled ({!Hac.enable_store}):
          content block store behind a byte-bounded cache, on-disk postings
          segments, and the fast-mount image.  [None] (the default) keeps
          every structure memory-resident as before. *)
  instr : Instr.t;
      (** This instance's observability surface: metrics registry, tracer
          (virtual-clock timestamps) and pre-resolved instrument handles. *)
}

val create :
  ?block_size:int ->
  ?stem:bool ->
  ?transducer:Hac_index.Transducer.t ->
  ?auto_sync:bool ->
  ?reindex_every:int ->
  Hac_vfs.Fs.t ->
  t
(** Fresh state over the given file system (no subscriptions are set up —
    {!Hac.of_fs} does that). *)

val reader : t -> Hac_index.Search.reader
(** The reader query evaluation verifies with: the file system's own
    ({!Hac_remote.Remote_fs.fs_reader}), except that with the storage tier
    on, [read] serves clean (non-dirty) indexed paths the current user may
    read from the block store through its cache; dirty paths, unknown paths
    and damaged blocks read the file itself. *)

val mark_dirty : t -> string -> unit
(** Add the path to [dirty] and report it to the index, which stops
    vouching for its postings ({!Hac_index.Index.note_dirty}). *)

val semdir_of_uid : t -> int -> Semdir.t option
(** Semantic state of a directory, if it has a query. *)

val semdir_of_path : t -> string -> Semdir.t option
(** Same, by path. *)

val with_maintenance : t -> (unit -> 'a) -> 'a
(** Run HAC's own fs mutations with event handling suppressed. *)

val bump_generation : t -> unit
(** Invalidate all cached query results (cheap: increments the clock). *)

val force_full_sync : t -> unit
(** Mark the instance as needing a full re-evaluation on the next settle
    (also bumps the generation — a structural change invalidates cached
    results too). *)
