(** Immutable copy-on-write snapshots of the served namespace.

    Captured at settle boundaries, so a reader never observes torn scope
    state: every read against one snapshot reflects the same
    committed-write prefix ({!seq}).  Reads are pure persistent-map
    lookups — safe from any pool domain, no locks, no VFS access. *)

type t

val seq : t -> int
(** Committed writes reflected in this view. *)

val published_s : t -> float
(** Virtual time the snapshot was published. *)

val file_count : t -> int
val dir_count : t -> int

val semdirs_rebuilt : t -> int
(** Semantic directories whose entries and link rows were built to publish
    this view: all of them for {!capture}, the changed ones for
    {!advance}. *)

val equal : t -> t -> bool
(** Same committed-write prefix and the same files, directory listings and
    link rows.  Publication time and bookkeeping are not compared, so an
    advanced snapshot equals a fresh {!capture} of the same state. *)

val capture : Hac_core.Hac.t -> seq:int -> now:float -> t
(** Full capture of the current (settled) state: file contents, directory
    listings (the [/.hac] metadata area excluded) and semantic-directory
    link sets with stale flags. *)

val advance : t -> Hac_core.Hac.t -> seq:int -> now:float -> touched:string list -> t
(** Publish the post-batch view: refreshes the [touched] paths and their
    parent directories, and rebuilds the entries and link set of each
    semantic directory that is new, is a touched path or a touched path's
    parent, or whose change stamp ({!Hac_core.Hac.semdir_stamps}) moved
    since the previous view — a settle may rewrite link sets anywhere,
    and every such rewrite moves the stamp.  Directories that are gone
    lose their link set; the rest is shared structurally with the previous
    snapshot. *)

val read : t -> Msg.read -> Msg.reply
(** Evaluate a read against the snapshot.  Anything unresolvable — missing
    path, wrong kind, non-semantic directory for [Links] — is the
    normalized [Nack "unreadable"], matching the sequential spec. *)
