(** Immutable sets of file identifiers, stored as roaring-style compressed
    containers ({!Roaring}): 2^16-keyed chunks, each a sorted array, bitmap,
    or run container, chosen canonically per chunk.  All operations are
    functional, which is what the query evaluator wants: query results flow
    through AND/OR/NOT combinators without aliasing hazards. *)

type t
(** An immutable set of non-negative file identifiers. *)

val empty : t
(** The empty set. *)

val singleton : int -> t
(** One-element set. *)

val of_list : int list -> t
(** Set of the listed identifiers. *)

val of_increasing_iter : ((int -> unit) -> unit) -> t
(** [of_increasing_iter it] builds a set from a strictly increasing push
    stream in one pass.  [it] must push values in strictly increasing order. *)

val range : int -> int -> t
(** [range lo hi] is [{max 0 lo, ..., hi}]; empty when [lo > hi]. *)

val mem : t -> int -> bool
(** Membership test. *)

val add : t -> int -> t
(** Functional insert. *)

val remove : t -> int -> t
(** Functional delete. *)

val union : t -> t -> t
(** Set union. *)

val inter : t -> t -> t
(** Set intersection. *)

val diff : t -> t -> t
(** Set difference. *)

val inter_many : t list -> t
(** Intersection of all listed sets, evaluated rarest-first at container
    granularity without materializing pairwise intermediates.
    [inter_many []] is [empty]. *)

val cardinal : t -> int
(** Number of elements. *)

val is_empty : t -> bool
(** [is_empty s] iff [cardinal s = 0]. *)

val equal : t -> t -> bool
(** Extensional equality.  Short-circuits on cardinality and chunk keys
    before touching container payloads. *)

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b].  Short-circuits on
    cardinality and missing chunk keys. *)

val iter : (int -> unit) -> t -> unit
(** Iterate in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold in increasing order. *)

val filter : (int -> bool) -> t -> t
(** Keep the elements satisfying the predicate. *)

val elements : t -> int list
(** Elements in increasing order. *)

val choose_opt : t -> int option
(** Smallest element, or [None] when empty. *)

val max_elt_opt : t -> int option
(** Largest element, or [None] when empty. *)

val byte_size : t -> int
(** Payload bytes of the current representation. *)

val paper_byte_size : universe:int -> int
(** [paper_byte_size ~universe] is the paper's per-directory result bitmap
    cost for [universe] indexed files: [ceil (universe / 8)] bytes. *)

val is_dense : t -> bool
(** [true] when at least one chunk is stored compressed (bitmap or run
    container) rather than as a plain sorted array. *)

type container_stats = {
  containers : int;
  arrays : int;
  bitmaps : int;
  run_containers : int;
  bytes : int;
}

val container_stats : t -> container_stats
(** Per-container-type histogram and payload bytes of the representation. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{1, 5, 9}]. *)

(** Mutable accumulator for index maintenance: chunk bitmaps updated in
    place, snapshotted into the immutable form on demand (cached until the
    next mutation).  Single-domain: neither mutations nor snapshots are
    synchronised. *)
module Builder : sig
  type fileset := t
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val mem : t -> int -> bool
  val cardinal : t -> int
  val snapshot : t -> fileset
  val clear : t -> unit
end
