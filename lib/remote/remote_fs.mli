(** A remote HAC/UNIX file system exposed as a queryable namespace.

    Wraps a {!Hac_vfs.Fs.t} and its content index so a {e local} HAC can
    semantically mount it (section 3): queries in the HAC query language are
    evaluated against the remote index, entries identify remote files by a
    [hacfs://<ns_id><path>] uri, and [fetch] reads the remote file.  This is
    also how "another user's personal HAC file system" is shared. *)

val uri_of_path : ns_id:string -> string -> string
(** The uri scheme used for entries: [hacfs://<ns_id><absolute path>].
    Raises [Invalid_argument] when [ns_id] is empty or contains ['/'] —
    such an id would make the uri ambiguous to split. *)

val path_of_uri : ns_id:string -> string -> string option
(** Inverse of {!uri_of_path} for uris belonging to this namespace.
    Raises [Invalid_argument] on the same bad ids as {!uri_of_path}. *)

val fs_reader : Hac_vfs.Fs.t -> Hac_index.Search.reader
(** Verification reads straight from the file system as its current user:
    [read] is the file's contents ([None] on any error, a denied read
    included) and [may_read] is [access(path, R_OK)]. *)

val create : ns_id:string -> Hac_vfs.Fs.t -> Hac_index.Index.t -> Namespace.t
(** [create ~ns_id fs index] exposes [fs] through [index], verifying with
    {!fs_reader}.  The query language is the full HAC query syntax except
    directory references, which evaluate to nothing remotely.  [list_all]
    enumerates every indexed file.  Answers trust the index's postings for
    the documents it vouches for ({!Hac_index.Index.unvouched}), so whoever
    maintains [index] must tell it of every change to [fs]
    ([Index.update_document], [remove_path], [rename_path] or [note_dirty])
    or results go stale.  An index maintained by {!Hac_core} is. *)
