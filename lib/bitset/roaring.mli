(** Roaring-style compressed immutable integer sets.

    Values are split into 2^16-element chunks; each populated chunk is stored
    as a sorted array, a bitmap, or a run-length container — whichever is
    smallest for its cardinality and clustering.  The container choice is
    canonical (a function of cardinality and run count only), so equal sets
    share a representation and comparisons can short-circuit structurally. *)

type t
(** An immutable set of non-negative integers. *)

val empty : t
val singleton : int -> t
val of_list : int list -> t

val of_increasing_iter : ((int -> unit) -> unit) -> t
(** [of_increasing_iter it] builds a set from a strictly increasing stream:
    [it] is called with a push function and must push values in strictly
    increasing order.  One pass, no intermediate set values. *)

val range : int -> int -> t
(** [range lo hi] is [{max 0 lo, ..., hi}]; empty when [lo > hi]. *)

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val inter_many : t list -> t
(** Intersection of all listed sets, evaluated rarest-first at container
    granularity without materializing pairwise intermediates.  [inter_many []]
    is [empty]. *)

val cardinal : t -> int
val is_empty : t -> bool

val equal : t -> t -> bool
(** Extensional equality; short-circuits on cardinality and chunk keys. *)

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]; short-circuits on
    cardinality and missing chunk keys. *)

val iter : (int -> unit) -> t -> unit
(** Iterate in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold in increasing order. *)

val filter : (int -> bool) -> t -> t
val elements : t -> int list
val choose_opt : t -> int option
val max_elt_opt : t -> int option

val byte_size : t -> int
(** Payload bytes of the representation (container payloads + chunk spine). *)

type stats = {
  containers : int;
  arrays : int;
  bitmaps : int;
  run_containers : int;
  bytes : int;
}

val stats : t -> stats

val has_compressed : t -> bool
(** [true] when at least one chunk is stored as a bitmap or run container
    (i.e. the set left the plain sorted-array regime). *)

val pp : Format.formatter -> t -> unit

(** {1 Mutable builder}

    Accumulates chunk bitmaps destructively and snapshots into the immutable
    form on demand; {!bsnapshot} caches its result until the next mutation.
    Single-domain: nothing here is synchronised. *)

type builder

val builder : unit -> builder
val badd : builder -> int -> unit
val bremove : builder -> int -> unit
val bmem : builder -> int -> bool
val bcardinal : builder -> int
val bsnapshot : builder -> t
val bclear : builder -> unit
