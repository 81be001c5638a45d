(** Combined content-and-structure index: per-term postings partitioned by a
    path-prefix label, so a path-scoped term lookup unions only the
    partitions whose label can contain documents under the scope.

    Glimpse's laziness contract — every answer is a sound superset of the
    truth (removals are masked by the alive set, renames by the relabeled
    set) and callers verify the candidates {!Index.unvouched} names against
    real content.  Single-domain: lookups fill cached snapshots without
    synchronisation. *)

type t

val create : unit -> t

val reset : t -> unit
(** Drop all postings, labels and drift sets (used by index rebuild). *)

val label_of_path : string -> string
(** The partition label of a document path: the depth-<=2 prefix of its
    directory ("/a/b/c/f.txt" -> "/a/b", "/f.txt" -> "/"). *)

val note_doc : t -> int -> path:string -> unit
(** Record (or refresh) the document's label and mark it alive.  A label
    change joins the document to the relabeled drift set. *)

val note_remove : t -> int -> unit
(** Mark the document dead; its postings stay until {!reset}. *)

val alive : t -> Hac_bitset.Fileset.t
(** Snapshot of the live-document set (cached between mutations). *)

val relabeled_count : t -> int
(** Documents whose label drifted since their postings were written. *)

val post_word : t -> int -> string -> unit
(** [post_word t id w] adds the (stemmed) word posting under the document's
    current label.  Consecutive duplicate ids are coalesced. *)

val post_attr : t -> int -> string -> string -> unit
(** Attribute/value posting, same contract as {!post_word}. *)

val word_key : string -> string
val attr_key : string -> string -> string
(** The flat encodings of a (stemmed) word / lowercased attribute pair as a
    single term key (["w:…"] / ["a:…"]) — the key space {!iter_terms}
    enumerates and on-disk postings segments are addressed by. *)

type term = Word of string | Attr of string * string

val decode_key : string -> term option
(** Inverse of {!word_key}/{!attr_key}; [None] for a string neither
    produces. *)

val fold_words : t -> (string -> 'a -> 'a) -> 'a -> 'a
(** Fold over every word term ever posted since the last {!reset}, walking
    the term table in place (no list is built). *)

val term_count : t -> int
(** Number of terms, word and attribute, in O(1): an upper bound on the
    words {!fold_words} visits. *)

val has_word : t -> string -> bool
(** Whether the word has a term entry. *)

val fold_terms : t -> (term -> 'a -> 'a) -> 'a -> 'a
(** Fold over every term ever posted since the last {!reset}, decoded —
    including terms whose documents have all died.  No snapshot is forced. *)

val iter_terms : t -> (string -> Hac_bitset.Fileset.t -> unit) -> unit
(** Every term key with its live posting set (all partitions unioned, dead
    documents masked out).  Forces partition snapshots — a dump-time cost,
    like {!stats}. *)

val word_candidates :
  ?within:Hac_bitset.Fileset.t -> ?under:string -> t -> string -> Hac_bitset.Fileset.t
(** Live documents that may contain the word.  With [?under] (a normalized
    absolute directory) only the partitions whose label can hold documents
    under that scope are unioned — a superset of (word docs ∩ docs under
    scope), to be verified by the caller.  With [?within], the answer may be
    any superset of (word docs ∩ [within]) the lookup finds cheapest: when
    postings since the last lookup invalidated the term's cached union and
    [within] holds fewer documents than the term's postings, only
    [within]'s members are probed, each in its own label's partition, plus
    the relabeled set. *)

val attr_candidates :
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  t ->
  string ->
  string ->
  Hac_bitset.Fileset.t

val word_cost : ?under:string -> t -> string -> int
(** Measured candidate-cardinality estimate: sum of the covered partitions'
    sizes, no set materialization.  Reflects the actual posting sizes of the
    compressed representation, per scope. *)

val attr_cost : ?under:string -> t -> string -> string -> int

type stats = {
  labels : int;
  terms : int;
  partitions : int;
  postings : int;  (** appended postings, duplicates included *)
  bytes : int;  (** compressed snapshot payload bytes *)
  raw_bytes : int;  (** posting-vector backing store bytes *)
  uncompressed_bytes : int;  (** one whole-universe bitmap per term *)
  arrays : int;
  bitmaps : int;
  run_containers : int;
  relabeled : int;
}

val stats : ?universe:int -> t -> stats
(** Container histogram and memory accounting over all partitions.  Forces
    every partition snapshot — an explicit stats-time cost.  [universe] (the
    document-id space size) prices the uncompressed one-bitmap-per-term
    alternative for the compression-ratio report. *)
