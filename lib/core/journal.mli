(** The checkpointed directory journal: sealed records, epoch-stamped
    segments, and atomic checkpoint blobs.

    A crash can tear the last record of an append-only log, and bit rot can
    corrupt any of them; replay must restore every intact record and skip
    the rest rather than fail or silently mis-parse.  Each record is one
    line of the form [body #hhhhhhhh] — the body followed by a fixed-width
    hex checksum of it — so the reader can verify integrity line by line.

    Records live in a {e chain} of files under [/.hac]: [dirs.log] is the
    epoch-0 segment (the historical name), [seg-NNNNNN.log] the later ones,
    and [ckpt-NNNNNN.img] an atomically-published checkpoint superseding
    every epoch up to its stamp.  Recovery reads the newest checkpoint that
    proves readable plus only the segments newer than it, so remount cost
    is bounded by the delta since the last checkpoint, not by history
    length.  See [docs/recovery.md]. *)

val checksum : string -> int
(** 32-bit FNV-1a checksum of a record body. *)

val seal : string -> string
(** [seal body] is the on-disk form of the record (no trailing newline):
    the body plus its checksum suffix. *)

type line = Hac_store.Seal.line =
  | Valid of string  (** Intact record; carries the body. *)
  | Corrupt of string  (** Checksum missing or wrong; carries the raw line. *)
  | Blank  (** Empty/whitespace line (e.g. after a trailing newline). *)

val parse : string -> line
(** Classify one journal line.  A line written by {!seal} parses back to
    [Valid body]; anything torn, truncated or scribbled over is [Corrupt]. *)

(** {1 Record replay}

    Record grammar (one sealed line each): [D <uid> <path>] directory
    created, [M <uid> <path>] directory moved here (subtree follows),
    [S <uid>] directory became semantic, [X <uid>] directory removed,
    [F <path>] file content changed since the last settle (the dirty
    delta a fast mount must re-read instead of rescanning the tree). *)

type replay = {
  map : (int, string) Hashtbl.t;  (** uid → current path. *)
  sem : (int, unit) Hashtbl.t;  (** uids flagged semantic. *)
  files : (string, unit) Hashtbl.t;  (** Paths named by [F] records. *)
  mutable applied : int;  (** Intact records applied. *)
  mutable corrupt : int;  (** Lines failing their checksum. *)
  mutable malformed : int;  (** Sealed lines whose body didn't parse. *)
  mutable seg_applied : int;
      (** Of [applied], how many came from post-checkpoint segments (the
          delta a checkpoint did not cover) — filled by {!replay_chain}. *)
  mutable moved : int;  (** [M]/[X] records applied (namespace surgery). *)
  mutable seg_moved : int;
      (** Of [moved], how many came from post-checkpoint segments — when
          non-zero, checkpoint-resident paths may be stale and a fast
          mount must fall back to the full oracle. *)
}

val replay_create : unit -> replay
(** An empty replay state. *)

val replay_text : replay -> string -> unit
(** Apply every intact record of one segment's text, accumulating counts.
    Never raises, whatever the text contains. *)

val semantic_entries : replay -> (int * string) list
(** The (uid, path) pairs flagged semantic and still present, sorted. *)

(** {1 Segments, checkpoints, epochs} *)

val meta_root : string
(** The metadata area the chain lives under (["/.hac"]). *)

val segment_name : int -> string
val segment_path : int -> string
(** File name/path of a segment ([dirs.log] for epoch 0). *)

val checkpoint_name : int -> string
val checkpoint_path : int -> string
(** File name/path of the checkpoint covering epochs [<= n]. *)

val checkpoint_tmp : string
(** Scratch path a checkpoint is written to before its commit rename. *)

type file_class = Segment of int | Checkpoint of int | Other

val classify : string -> file_class
(** What role a file name under {!meta_root} plays in the chain.  Epoch
    numbers of any width parse ([seg-1000000.log] is [Segment 1000000],
    not [Other]); ordering is by parsed epoch, never by file name. *)

val sd_uid_of_name : string -> int option
(** The uid of a per-directory structure file name ([sd-<uid>.<suffix>]). *)

val scan : Hac_vfs.Fs.t -> (int * string) list * (int * string) list
(** All (epoch, path) segments and checkpoints on disk, each ascending by
    epoch.  An absent metadata area scans as empty. *)

val current_epoch : Hac_vfs.Fs.t -> int
(** The epoch new records must append to: the highest segment epoch, or one
    past the highest checkpoint, whichever is greater (0 on a fresh disk). *)

(** {1 Checkpoint blobs}

    A checkpoint file is an {!Hac_vfs.Image} dump wrapped in a one-line
    [HACCKPT1 <len> <crc>] header, verified as a unit before any of it is
    believed — a torn or corrupted checkpoint is rejected whole and
    recovery falls back to the previous chain. *)

val seal_blob : string -> string
(** Wrap a payload in the checksummed header. *)

val open_blob : string -> (string, string) result
(** Verify and unwrap; [Error] on truncation, corruption or bad header. *)

val load_checkpoint : Hac_vfs.Fs.t -> string -> (Hac_vfs.Fs.t, string) result
(** Read, verify and load one checkpoint file into its image tree. *)

(** {1 The chain: what recovery reads} *)

type chain = {
  checkpoint : (int * Hac_vfs.Fs.t) option;
      (** Newest checkpoint that proved readable, with its image. *)
  invalid_checkpoints : int;  (** Checkpoint files that failed to load. *)
  segments : (int * string) list;
      (** Texts of the segments newer than the checkpoint, ascending. *)
  skipped_segments : int;
      (** Older segments the checkpoint supersedes (not replayed). *)
}

val read_chain : Hac_vfs.Fs.t -> chain
(** Resolve the on-disk chain: pick the base checkpoint and collect the
    segment texts recovery must replay. *)

val chain_reads : unit -> int
(** How many times this process has run {!read_chain} — each loads every
    checkpoint image on disk.  A work count: tests take differences. *)

val replay_chain : chain -> replay
(** Replay the checkpoint's consolidated log, then every newer segment. *)

val max_uid : Hac_vfs.Fs.t -> chain -> int
(** Highest uid mentioned anywhere in the on-disk metadata (every segment,
    the chain's checkpoint, structure files) — a recovering instance
    allocates its own uids strictly above this so they never alias a
    previous life's.  Takes the chain {!read_chain} resolved, so the
    checkpoint is loaded once per recovery. *)
