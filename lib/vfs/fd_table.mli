(** Per-process open-file-descriptor tables.

    The paper's HAC keeps an open file-descriptor table (and attribute cache)
    in shared memory per process; here each [Fd_table.t] models one process's
    table over a shared {!Fs.t}.  Descriptors survive renames of the opened
    file because they hold the inode, as on UNIX. *)

type t
(** One process's descriptor table. *)

type mode = Read_only | Write_only | Read_write
(** Open modes; writing through a [Read_only] descriptor is [EBADF]. *)

val create : Fs.t -> t
(** An empty table for a "process" using the given file system. *)

val openfile : t -> ?create:bool -> mode -> string -> int
(** Open a regular file and return its descriptor.  With [~create:true] a
    missing file is created first.  [EISDIR] on directories.  Writes through
    the descriptor publish [Written] under the path the opened name resolved
    to, symbolic links followed. *)

val close : t -> int -> unit
(** Release a descriptor.  [EBADF] when not open. *)

val read : t -> int -> int -> string
(** [read t fd len] reads up to [len] bytes at the current position and
    advances it; [""] at end of file. *)

val write : t -> int -> string -> int
(** Write at the current position, advance it, return the byte count. *)

val seek : t -> int -> int -> int
(** [seek t fd pos] sets the absolute position; returns it. *)

val position : t -> int -> int
(** Current position of a descriptor. *)

val size : t -> int -> int
(** Current file size seen through the descriptor. *)

val read_all : t -> int -> string
(** Read from the current position to end of file. *)

val open_count : t -> int
(** Number of currently open descriptors. *)

val approx_bytes : t -> int
(** Estimated memory held by the table — the per-process shared-memory cost
    the paper reports (~16 KB together with the attribute cache). *)
