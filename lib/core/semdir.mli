(** Per-directory semantic state: query, link sets, prohibitions.

    One [Semdir.t] exists for every directory created with [smkdir] (or
    retro-fitted with [schquery]).  It records the query, the classification
    of each present symbolic link, and the set of prohibited target keys.
    The physical symlinks live in the VFS; this structure is HAC's view of
    them.  All mutators here are local bookkeeping — enforcing the scope
    invariant is {!Sync}'s job.  The record is private: every write goes
    through a function below, so none can skip moving the [stamp]. *)

type remote_result = {
  rr_ns : string;  (** Namespace the entry came from. *)
  rr_uri : string;  (** Entry identifier (the link's target key). *)
  rr_name : string;  (** Display name, used as the link name. *)
  rr_stale : bool;
      (** True when the entry was {e not} confirmed by the namespace during
          the last re-evaluation but re-served from the previous result
          because the namespace was unavailable (graceful degradation). *)
}
(** One remote entry in the current query result. *)

type t = private {
  uid : int;  (** The directory's identifier in the global map. *)
  mutable query : Hac_query.Ast.t;  (** Dirrefs are installed ([Ref_uid]). *)
  links : (string, Link.t) Hashtbl.t;
      (** {e Physically present} links, by link name: permanent ones, and
          transient ones once materialised. *)
  by_target : (string, string) Hashtbl.t;
      (** The names in [links], by target key: one binding per alias. *)
  next_suffix : (string, int ref) Hashtbl.t;
      (** Naming memo: for a basename [b], every [b~i] with
          [2 <= i < !(next_suffix b)] (2 when absent) is in [links]. *)
  mutable listing : Link.t list option;
      (** [links] sorted by name, kept until a link is added or removed. *)
  mutable transient_local : Hac_bitset.Fileset.t;
      (** The current local query result — the paper's per-directory result
          bitmap (N/8 bytes when dense). *)
  mutable transient_remote : remote_result list;
      (** The current remote query result. *)
  mutable materialized : bool;
      (** Whether the transient result has been expanded into physical
          symbolic links.  Materialisation happens lazily on first access
          through HAC and is then kept consistent by every re-evaluation. *)
  prohibited : (string, unit) Hashtbl.t;  (** Prohibited target keys. *)
  mutable last_synced : int;  (** Logical stamp of the last re-evaluation. *)
  mutable meta_dirty : bool;
      (** True when the query, the permanent links or the prohibitions
          changed since the last persist — what {!Sync} writes beside the
          result bitmap, so a settle that moved only the result rewrites
          the bitmap alone without ever losing recovery state.  True at
          creation; set by {!set_query}, by adding or removing a permanent
          link and by {!prohibit}/{!unprohibit}, never by transient link
          surgery; cleared by {!Sync} after persisting. *)
  mutable stamp : int;
      (** Change stamp: moves whenever what the directory serves can change
          — a link added or removed, a new local or remote result (stale
          flags included), materialisation.  Drawn from one process-wide
          counter, so it never repeats, even for a directory recreated at
          the same path.  A reader that recorded the stamp with a view of
          the directory knows the view is current while the stamp is
          unchanged. *)
}

val create : uid:int -> Hac_query.Ast.t -> t
(** Fresh semantic directory state with no links and no prohibitions. *)

val set_query : t -> Hac_query.Ast.t -> unit
(** Replace the query and mark the metadata for persisting, even if the
    result does not change.  The stamp stays: a new query changes what the
    directory serves only through the re-evaluation that follows. *)

val set_transient_local : t -> Hac_bitset.Fileset.t -> unit
(** Replace the local result; moves the stamp. *)

val set_transient_remote : t -> remote_result list -> unit
(** Replace the remote result; moves the stamp. *)

val set_materialized : t -> bool -> unit
(** Record whether the result is expanded into links; moves the stamp. *)

val mark_synced : t -> int -> unit
(** Record the logical stamp of the latest re-evaluation. *)

val mark_persisted : t -> unit
(** Clear [meta_dirty] once the query, permanent links and prohibitions are
    written. *)

val mark_meta_dirty : t -> unit
(** Set [meta_dirty]: the persisted query's rendering changed (a dirref's
    target moved) though the query did not. *)

val find_link : t -> string -> Link.t option
(** Present link by name. *)

val link_by_target : t -> Link.target -> Link.t option
(** Present link by target key, if any; among aliases, the one with the
    smallest name.  One index lookup. *)

val links_to : t -> string -> Link.t list
(** Every present link whose target key is the given one. *)

val has_permanent : t -> string -> bool
(** Whether a permanent link points at the target key.  One index
    lookup. *)

val add_link : t -> Link.t -> unit
(** Record a present link (replaces any record under the same name); moves
    the stamp. *)

val remove_link : t -> string -> Link.t option
(** Forget a present link by name; returns what was removed.  Moves the
    stamp when a link was removed, and lowers the naming memo when the
    name was a collision name below it. *)

val links_of_cls : t -> Link.cls -> Link.t list
(** Present links of one class, sorted by name. *)

val all_links : t -> Link.t list
(** Every present link, sorted by name (sorted once per change). *)

val prohibit : t -> string -> unit
(** Add a target key to the prohibited set. *)

val unprohibit : t -> string -> unit
(** Remove a target key from the prohibited set (a user re-adding a link is
    a direct action that lifts the prohibition). *)

val is_prohibited : t -> string -> bool
(** Whether the target key is prohibited. *)

val prohibited_keys : t -> string list
(** Sorted prohibited target keys. *)

val fresh_link_name : t -> taken:(string -> bool) -> Link.target -> string * int
(** A link name for the target, and how many candidate names it tested.
    The name is the display name when that is neither a present link nor
    [taken] (the physical directory entries), else the smallest [name~i]
    (i >= 2) that is neither.  The search starts at the naming memo, so
    the k-th link sharing a display name costs O(1) amortised, not k
    probes; only physical entries that are not links cost a probe each. *)

val add_fresh_link : t -> taken:(string -> bool) -> Link.target -> Link.cls -> string * int
(** Name a new link to the target as {!fresh_link_name} does and record it
    as {!add_link} would; returns the name and the candidates tested. *)

val approx_bytes : t -> int
(** Estimated memory footprint of this record, for space accounting. *)
