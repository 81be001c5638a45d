(** Combined content-and-structure index: one sorted, duplicate-free posting
    array per term, as Glimpse keeps one posting list per word.  Word terms
    are keyed by the bare (stemmed) word, so posting a token is one hash
    lookup and, for a new document, an append.  The structure half of a
    path-scoped lookup is the caller's: {!Index} bounds a lookup by the
    scope's live documents ([?live]).

    Glimpse's laziness contract — every answer is a sound superset of the
    truth (removals are masked by the alive set, stale words of a document
    rewritten in place stay until {!drop_docs}) and callers verify the
    candidates {!Index.unvouched} names against real content.
    Single-domain: lookups fill cached snapshots without synchronisation. *)

type t

val create : unit -> t

val note_doc : t -> int -> unit
(** Mark the document alive. *)

val note_remove : t -> int -> unit
(** Mark the document dead; its postings stay until {!drop_docs}. *)

val drop_docs : t -> Bytes.t -> unit
(** [drop_docs t mask] removes every posting of each document [id] with
    [mask.[id] <> '\000'] (ids past the mask are kept), in one in-place
    pass over the posting arrays, then every term left empty.  Used by
    index compaction, which re-posts the live ones among them. *)

val alive : t -> Hac_bitset.Fileset.t
(** Snapshot of the live-document set (cached between mutations). *)

val post_word : t -> int -> string -> unit
(** [post_word t id w] adds the document to the (stemmed) word's posting
    array: appended when [id] is the largest there, inserted in place when
    smaller, skipped when present. *)

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
(** Fold over every word term with a posting left by {!drop_docs}, walking
    the word table in place (no list is built). *)

val term_count : t -> int
(** Number of terms, word and attribute, in O(1): an upper bound on the
    words {!fold_words} visits. *)

val has_word : t -> string -> bool
(** Whether the word has a term entry. *)

val word_postings : t -> string -> int array
(** A copy of the word's posting array, dead documents included — for
    checks against a model. *)

val fold_terms : t -> (term -> 'a -> 'a) -> 'a -> 'a
(** Fold over every term with a posting left by {!drop_docs}, decoded —
    including terms whose documents have all died since.  No snapshot is
    forced. *)

val iter_terms : t -> (string -> Hac_bitset.Fileset.t -> unit) -> unit
(** Every term key with its live posting set (dead documents masked out).
    Forces snapshots — a dump-time cost, like {!stats}. *)

val word_candidates :
  ?within:Hac_bitset.Fileset.t ->
  ?live:Hac_bitset.Fileset.t ->
  t ->
  string ->
  Hac_bitset.Fileset.t
(** The documents of [live] (default: every live document) whose postings
    hold the word.  With [?within], the answer may be any superset of that
    answer ∩ [within] the lookup finds cheapest: when postings since the
    last lookup invalidated the term's cached snapshot and [within] holds
    fewer documents than the term's array, only [within]'s members are
    probed, each by binary search in the array. *)

val attr_candidates :
  ?within:Hac_bitset.Fileset.t ->
  ?live:Hac_bitset.Fileset.t ->
  t ->
  string ->
  string ->
  Hac_bitset.Fileset.t

val word_cost : ?live:Hac_bitset.Fileset.t -> t -> string -> int
(** Candidate-cardinality estimate without materializing a set: the term's
    array length (dead documents included until {!drop_docs}), or, when
    [live] holds no more documents than that, the exact number of [live]'s
    members in the array, probed by binary search.  Never walks the
    array. *)

val attr_cost : ?live:Hac_bitset.Fileset.t -> t -> string -> string -> int

type stats = {
  terms : int;
  posting_arrays : int;  (** one per term *)
  postings : int;  (** ids held over all posting arrays *)
  bytes : int;  (** compressed snapshot payload bytes *)
  raw_bytes : int;  (** posting-array backing store bytes *)
  uncompressed_bytes : int;  (** one whole-universe bitmap per term *)
  arrays : int;
  bitmaps : int;
  run_containers : int;
}

val stats : ?universe:int -> t -> stats
(** Container histogram and memory accounting over all posting arrays.
    Forces every snapshot — an explicit stats-time cost.  [universe] (the
    document-id space size) prices the uncompressed one-bitmap-per-term
    alternative for the compression-ratio report. *)
