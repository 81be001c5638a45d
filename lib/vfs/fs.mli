(** The hierarchical virtual file system HAC is layered on.

    An in-memory POSIX-like tree of directories, regular files and symbolic
    links.  All paths accepted here may be relative (resolved against the
    root) or absolute; results are always normalized absolute paths.  Every
    mutation is published on the {!Event.bus} returned by {!events} — that
    stream is how the HAC layer observes "all file system calls", standing in
    for the paper's DLL interposition on SunOS.

    Errors are reported by raising {!Errno.Error}. *)

type t
(** One file system instance. *)

type stat = {
  st_ino : Inode.ino;  (** Inode number. *)
  st_kind : Event.kind;  (** Object kind. *)
  st_size : int;  (** Bytes for files, entries for dirs, target length for links. *)
  st_mtime : int;  (** Logical modification stamp. *)
  st_ctime : int;  (** Logical status-change stamp. *)
  st_nlink : int;  (** Number of directory entries for this inode. *)
  st_uid : int;  (** Owner user id. *)
  st_mode : int;  (** Permission bits ([0oXYZ]; group bits unused). *)
}
(** Status information, the payload of the attribute cache. *)

val create : unit -> t
(** An empty file system containing only ["/"] .  The current user starts as
    the superuser (uid 0). *)

(** {1 Users and permissions}

    A minimal POSIX-flavoured model: every inode has an owner and [rwx]
    permission bits for owner and others (group bits are stored but
    unused).  The file system carries a {e current user}, like a process
    credential; uid 0 bypasses every check.  New objects are owned by the
    current user, files created [0o666], directories [0o777] — fully
    permissive until someone [chmod]s. *)

val set_user : t -> int -> unit
(** Switch the current user (no restriction — this models process identity,
    not privilege escalation). *)

val current_user : t -> int
(** The current user id. *)

val chmod : t -> ?follow:bool -> string -> int -> unit
(** Set permission bits.  Owner or superuser only ([EPERM]).  [follow]
    (default true) chases a final symbolic link; pass [false] to operate on
    the link object itself. *)

val chown : t -> ?follow:bool -> string -> int -> unit
(** Transfer ownership.  Superuser only ([EPERM]).  [follow] as in
    {!chmod}. *)

val access : t -> string -> int -> bool
(** [access fs path want] — does the current user have the [want] bits
    (r=4, w=2, x=1) on the object?  Follows symlinks; false when the path
    does not resolve. *)

val events : t -> Event.bus
(** The mutation-event stream of this file system. *)

(** {1 Simulated storage}

    An optional "disk" underneath the in-memory tree: when a
    {!Hac_fault.Store.t} is attached, every successful mutation is
    recorded on it in order, so the crash harness can reconstruct any
    partially-persisted state a real crash could leave behind.  With no
    store attached (the default) all of this is free. *)

val attach_disk : t -> Hac_fault.Store.t -> unit
(** Route every subsequent mutation through the simulated device. *)

val detach_disk : t -> unit
(** Stop recording (the store keeps whatever it already holds). *)

val disk : t -> Hac_fault.Store.t option
(** The attached device, if any. *)

val fsync : t -> string -> unit
(** Durability barrier on [path]: records an [Fsync] op, advancing the
    simulated device's durable frontier over everything written so far
    (the store models in-order syncfs persistence).  A no-op without an
    attached store — the in-memory tree itself is always "durable". *)

(** {1 Directories} *)

val mkdir : t -> string -> unit
(** Create a directory; parent must exist.  [EEXIST] if the name is taken. *)

val mkdir_p : t -> string -> unit
(** Create a directory and any missing ancestors; ok if it already exists. *)

val rmdir : t -> string -> unit
(** Remove an empty directory.  [ENOTEMPTY] otherwise; [EBUSY] for ["/"]. *)

val readdir : t -> string -> string list
(** Entry names of a directory, sorted. *)

(** {1 Files} *)

val create_file : t -> string -> unit
(** Create an empty regular file.  [EEXIST] if the name is taken. *)

val write_file : t -> string -> string -> unit
(** Create-or-truncate the file and write the whole content. *)

val append_file : t -> string -> string -> unit
(** Append to the file, creating it when missing. *)

val read_file : t -> string -> string
(** Whole contents of a regular file (follows symlinks). *)

val file_size : t -> string -> int
(** Byte length of a regular file (follows symlinks). *)

val unlink : t -> string -> unit
(** Remove a regular file or symbolic link (not a directory: [EISDIR]). *)

val rmtree : t -> string -> unit
(** Recursively remove a directory and everything under it, publishing one
    [Removed] event per object, bottom-up. *)

(** {1 Symbolic links} *)

val symlink : t -> target:string -> link:string -> unit
(** Create a symbolic link at [link] pointing to [target] (which may not
    exist).  [EEXIST] if [link] is taken. *)

val readlink : t -> string -> string
(** Target of a symbolic link. [EINVAL] when not a symlink. *)

(** {1 Link surgery on one directory}

    Bulk forms of {!symlink}, {!unlink} and {!readlink} for the links of
    one directory.  Each resolves the directory once and works on its
    entry table.  The attached device still records one [Symlink] or
    [Unlink] op per link, and the bus publishes one event per link, in
    list order, as the per-link calls do.  Every name must be a single
    entry name ({!Vpath.valid_name}); another raises [EINVAL] when it is
    reached.  A failing link stops the batch with the error the per-link
    call raises; the links before it stay done.  Event subscribers must
    not remove the directory while a batch publishes. *)

val add_symlinks : t -> string -> (string * string) list -> unit
(** [add_symlinks fs dir links] creates [dir/name -> target] for every
    [(name, target)], in order.  [ENOENT], [ENOTDIR] or [EACCES] when
    [dir] does not resolve to a directory the current user may write and
    search, [EEXIST] at a name already taken.  An empty list does
    nothing. *)

val remove_symlinks : t -> string -> string list -> int
(** [remove_symlinks fs dir names] unlinks each name that is a symbolic
    link of [dir], in order, leaves every other name alone (missing, a
    file, a directory), and returns how many it unlinked.  [ENOENT],
    [ENOTDIR] or [EACCES] when [dir] does not resolve; [EACCES] at the
    first link to remove when the current user may not write and search
    [dir].  An empty list does nothing. *)

val symlinks : t -> string -> (string * string) list
(** The symbolic links of a directory as [(name, target)] pairs, sorted by
    name.  Needs read permission on the directory, as {!readdir} does. *)

val entry_test : t -> string -> string -> bool
(** [entry_test fs dir] resolves [dir] once ([ENOENT], [ENOTDIR]) and
    returns a test of a name against its entry table, as {!lexists} of
    [dir/name] would answer; the test sees later changes to the table. *)

(** {1 Rename} *)

val rename : t -> src:string -> dst:string -> unit
(** Move [src] to [dst].  An existing [dst] file/symlink is replaced; an
    existing [dst] directory must be empty.  Renaming a directory into its
    own subtree is [EINVAL]. *)

(** {1 Status and queries} *)

val stat : t -> string -> stat
(** Status, following symbolic links. *)

val lstat : t -> string -> stat
(** Status of the object itself (a symlink is not followed). *)

val exists : t -> string -> bool
(** [true] when the path resolves (following symlinks). *)

val lexists : t -> string -> bool
(** [true] when the path names an object, even a dangling symlink. *)

val is_dir : t -> string -> bool
(** [true] when the path resolves to a directory. *)

val is_file : t -> string -> bool
(** [true] when the path resolves to a regular file. *)

val is_symlink : t -> string -> bool
(** [true] when the path itself is a symbolic link. *)

val resolve : t -> string -> string
(** Physical normalized path after following every symlink; [ENOENT] when it
    does not resolve. *)

val walk : t -> string -> (string -> stat -> unit) -> unit
(** [walk fs dir f] calls [f path lstat] for every object strictly below
    [dir], depth-first, parents before children.  Symbolic links are
    reported, not followed. *)

val find_files : t -> string -> string list
(** Paths of all regular files below the directory, sorted. *)

(** {1 Low-level inode access (used by {!Fd_table})} *)

val ino_of_path : t -> string -> Inode.ino
(** Inode of the object the path resolves to (follows symlinks). *)

val resolve_count : t -> int
(** Path resolutions performed so far, failed ones included: a
    deterministic work count (the bench gates resolutions per link
    materialisation on it). *)

val pread_ino : t -> Inode.ino -> pos:int -> len:int -> string
(** Read up to [len] bytes at offset [pos] of a regular file's inode; short
    reads at end of file; [EISDIR]/[EINVAL] on non-files. *)

val pwrite_ino : t -> Inode.ino -> path:string -> pos:int -> string -> int
(** Write bytes at offset [pos] (zero-fill any gap), returning the count
    written.  [path] is attached to the published [Written] event. *)

val size_ino : t -> Inode.ino -> int
(** Current byte length of a regular file's inode. *)

(** {1 Accounting} *)

val file_count : t -> int
(** Number of regular files in the whole tree. *)

val dir_count : t -> int
(** Number of directories (including the root). *)

val total_bytes : t -> int
(** Sum of all regular-file lengths. *)

val metadata_bytes : t -> int
(** Estimated bytes of file-system metadata (inodes + entry names); the
    "UNIX needs 210 KB" side of the paper's space comparison. *)
