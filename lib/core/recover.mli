(** Crash recovery from the on-"disk" metadata area.

    The paper's HAC stores every directory's structures on disk (section 4);
    the point of paying that I/O is that the system state survives the
    user-level library going away.  This module rebuilds the semantic state
    of a file system from the metadata HAC persisted into [/.hac]:

    + replay the directory journal ([dirs.log]: created / moved / removed)
      to learn which uids named which paths at shutdown;
    + for every surviving directory with persisted structures, reinstall its
      query, reclassify its physical links (permanent vs transient) and
      restore its prohibitions via {!Hac.restore_semdir};
    + re-evaluate everything in one pass — or, at a fast {!mount}, adopt
      the persisted results the images vouch for and re-evaluate the rest.

    Typical use: [let t = Hac.of_fs fs in Recover.reload t]. *)

val reload : Hac.t -> int
(** Restore every recoverable semantic directory; returns how many were
    restored.  Directories whose metadata is missing or whose path no longer
    exists are skipped silently; a directory that is already semantic (e.g.
    restored twice) is skipped too. *)

type journal_report = {
  applied : int;  (** Intact records replayed. *)
  corrupt : int;  (** Lines dropped: checksum missing or wrong (torn write,
                      truncation, bit rot). *)
  malformed : int;  (** Checksum fine but the body didn't parse. *)
}
(** Integrity accounting of one journal replay.  Journal records are sealed
    with a per-line checksum ({!Journal.seal}); replay restores every intact
    record and never raises, whatever the file contains. *)

type reload_report = {
  restored : int;  (** Semantic directories reinstalled. *)
  skipped : int;  (** Recovery-plan entries not restored (already semantic,
                      or unparseable/cyclic after the crash). *)
  journal : journal_report;  (** Journal integrity during this reload. *)
  segments_replayed : int;
      (** Journal segments replayed beyond the checkpoint base — with a
          fresh checkpoint this is at most one (the open segment), however
          long the history before it. *)
  checkpoint_epoch : int option;
      (** Epoch of the checkpoint recovery started from, when one proved
          readable. *)
}

val reload_report : ?chain:Journal.chain -> Hac.t -> reload_report
(** Like {!reload} but returns the full accounting — what the shell's
    [srecover -v] prints.  [chain] is the tree's journal chain when the
    caller has read it since the tree last changed (as {!mount} does);
    otherwise it is read here. *)

val journal_report : Hac.t -> journal_report
(** Verify the directory journal chain (checkpoint base plus every newer
    segment) without restoring anything.  A probe: it does not count toward
    [recover.records_skipped] — only an actual recovery
    ({!reload_report} / {!mount}) does, once per damaged record, however
    many times the chain ends up replayed. *)

val mount :
  ?block_size:int ->
  ?stem:bool ->
  ?transducer:Hac_index.Transducer.t ->
  ?auto_sync:bool ->
  ?reindex_every:int ->
  ?budget:int ->
  Hac_vfs.Fs.t ->
  Hac.t * [ `Fast | `Full ]
(** Bring a tree back up with the storage tier enabled.  [`Fast] is the
    O(delta) path ({!Hac.fast_adopt}): namespace and index skeleton rebuilt
    from the checkpoint's reconstruction images and the journaled dirty
    delta indexed, semantic structures restored (live files preferred,
    checkpoint copies as fallback), then {!Hac.adopt_results}: every
    directory whose persisted [sd-N.result] the images vouch for keeps it
    unevaluated ([recover.results_adopted]) — its header digests the
    installed query, permanent links and prohibitions, its bitmap agrees
    with its links outside the delta, and it depends on no semantic
    directory — the others are re-evaluated dependencies first
    ([recover.results_reevaluated]), and one scope pass settles the delta
    over all of them.  No document is re-read beyond that delta, no query
    runs over the whole corpus for an adopted directory, and postings load
    lazily from the store's segments.
    [`Full] is the fallback oracle — {!Hac.of_fs} + {!reload_report}, then
    {!Hac.enable_store} on a fresh lineage — taken whenever the images
    cannot vouch for the tree (no readable checkpoint, damaged tail
    records, post-checkpoint renames, missing/stale document table or
    manifest).  Sets [store.mount.reconstruct_ms] and counts
    [store.mount.fallbacks]. *)

val replay_journal : string -> (int, string) Hashtbl.t
(** Replay raw journal text to the uid → path map it describes, skipping
    corrupt lines — exposed for tests. *)

val journal_paths : Hac.t -> (int * string) list
(** The uid → path map recovered from the directory journal (after replaying
    moves and removals), sorted by uid — exposed for inspection and tests. *)
