(** The scope- and data-consistency engine (sections 2.3–2.5).

    Scope consistency: for every semantic directory [sd] with parent [p],
    the transient links of [sd] are exactly the files of [p]'s provided
    scope that satisfy [sd]'s query, minus prohibited and permanent targets.
    [resync_dir] re-establishes this for one directory; [sync_from]
    propagates along the dependency DAG in topological order; [sync_all]
    settles the whole file system.

    Data consistency: [reindex] brings the content index up to date with the
    dirty-path set accumulated from file system events. *)

type scope = {
  local : Hac_bitset.Fileset.t;  (** Local indexed documents in scope. *)
  remote : Link.target list;  (** Remote targets inherited via parent links. *)
  mount_uids : int list;  (** Semantic mount points visible in the scope. *)
}
(** What a directory provides to its semantic children. *)

val provided_scope : Ctx.t -> int -> scope
(** The scope provided by a directory (section 2.3): for the root, every
    indexed file; for a syntactic directory, the indexed files of its
    subtree; for a semantic directory, the targets of its present links plus
    the indexed physical files of its subtree.  Mount points anywhere in the
    subtree are visible. *)

val eval_query :
  Ctx.t -> ?restrict_to:Hac_bitset.Fileset.t -> Hac_query.Ast.t -> Hac_bitset.Fileset.t
(** Evaluate a query against the local index with directory references
    resolved through {!provided_scope}.  [?restrict_to] evaluates only over
    the given documents (candidate expansion and content verification stay
    inside the set); without it no scope restriction is applied. *)

val render_for : Hac_remote.Namespace.lang -> Hac_query.Ast.t -> string list
(** Query strings to submit to a namespace speaking the given language.  For
    [Keywords] this is a union of conjunctive keyword queries (one per OR
    branch); an empty string means "enumerate everything" ([*]). *)

val meta_root : string
(** ["/.hac"] — the directory where HAC persists its per-directory
    structures inside the file system, as the paper's implementation writes
    them to disk.  Everything below it is invisible to indexing and scopes. *)

val meta_files : int -> string list
(** Paths of a directory's structure files ([sd-<uid>.query/.links/.proh/
    .result]) under {!meta_root}, by uid, in that order. *)

val persist_semdir : Ctx.t -> Semdir.t -> unit
(** Write a semantic directory's structures (query, link sets, prohibitions
    and the paper's N/8-byte result bitmap) to its metadata file.  Performed
    after every re-evaluation, mirroring the paper's disk I/O.  The result
    file starts with a header line digesting the query, permanent links and
    prohibitions the bitmap was computed for (see [docs/recovery.md]). *)

val decode_result : string -> (string * Hac_bitset.Fileset.t) option
(** The header line and bitmap of an unsealed [sd-N.result] payload, or
    [None] — it vouches for nothing — when the payload has no well-formed
    header (damaged, or written before results carried one).  Total: never
    raises, whatever the bytes. *)

val adopt_result : Ctx.t -> Semdir.t -> touched:Hac_bitset.Fileset.t -> bool
(** At a fast mount, after the journaled delta was indexed (its documents
    are [touched]) and the directory's structures were installed: mark the
    directory synced on the result its persisted [sd-N.result] and its
    links vouch for, and return [true]; or leave it untouched and return
    [false].  A result is adopted only when its header matches the installed
    structures, its bitmap agrees with the transient links outside
    [touched] (one link per live local document), and the directory
    depends on no semantic directory. *)

val sync_unsynced : Ctx.t -> int
(** Re-evaluate, in one pass and dependencies first, every semantic
    directory never re-evaluated in this life — at a fast mount, those
    {!adopt_result} refused.  Returns how many were re-evaluated. *)

val unpersist_semdir : Ctx.t -> int -> unit
(** Remove the metadata file of a (removed) directory, by uid. *)

val fetch_remote :
  ?on_failure:(string -> string -> unit) ->
  Ctx.t ->
  ns_id:string ->
  uri:string ->
  string option
(** Contents of a remote entry: ask the namespace registered under [ns_id]
    first, then fall back to every registered namespace (uri schemes don't
    reliably encode the namespace identifier).  A namespace raising —
    typically {!Hac_remote.Namespace.Unavailable} — is reported as
    [on_failure ns_id reason] (default: ignored) and treated as having no
    content; the exception never escapes. *)

val materialize : Ctx.t -> Semdir.t -> unit
(** Expand a directory's stored transient result (the bitmap) into physical
    symbolic links.  Idempotent; happens lazily on first access through HAC.
    Once materialised, {!resync_dir} keeps the physical links consistent. *)

val resync_dir : Ctx.t -> int -> bool
(** Re-evaluate one semantic directory against its parent's current scope,
    updating its physical transient links.  Permanent and prohibited sets
    are never modified.  Returns whether the transient set changed.  No-op
    ([false]) on syntactic directories. *)

val sync_from : Ctx.t -> int -> unit
(** [resync_dir] on the directory, then on every directory that directly or
    indirectly depends on it, in topological order, in one pass: provided
    scopes, term results and document tokens are computed at most once per
    pass. *)

val sync_all : Ctx.t -> unit
(** Re-evaluate every semantic directory, dependencies first, in one
    pass. *)

type delta = {
  touched : Hac_bitset.Fileset.t;
      (** Documents added or whose content was reindexed. *)
  removed : Hac_bitset.Fileset.t;
      (** Documents dropped from the index (deleted or unreadable). *)
}
(** What one {!reindex_with_delta} changed — the input to {!sync_delta}. *)

val empty_delta : delta

val reindex : Ctx.t -> ?under:string -> unit -> int
(** Settle data consistency for the dirty paths (optionally only those below
    [under]): update or drop their index entries.  Returns the number of
    paths processed.  Does {e not} re-evaluate queries — callers typically
    follow with {!sync_delta} (via {!reindex_with_delta}) or {!sync_all}. *)

val reindex_with_delta : Ctx.t -> ?under:string -> unit -> int * delta
(** {!reindex}, also returning which documents it touched or removed. *)

val sync_delta : Ctx.t -> delta -> unit
(** Incremental scope maintenance: restore the scope invariant after a
    content-only change described by the delta.  Walks directories in
    dependency order but re-evaluates each query {e only over the delta
    documents in its parent scope}, patching the transient-link set — the
    settle after [k] changed files costs O(k × affected dirs) instead of
    O(all docs × all dirs).  Remote results are left as they are (remote
    membership does not depend on local contents).  When
    {!Ctx.t.needs_full_sync} is set (a structural event happened), clears it
    and falls back to {!sync_all}; both paths reach the same fixpoint. *)

val parent_uid : Ctx.t -> int -> int option
(** UID of the parent directory ([None] for the root or unknown uids). *)

val recompute_deps : Ctx.t -> Semdir.t -> (unit, int list) result
(** Reinstall the dependency edges of a semantic directory: its parent plus
    every directory its query references.  [Error cycle] when the query
    would create a dependency cycle (graph unchanged). *)
