(** The content index — HAC's default CBA mechanism, after Glimpse.

    Documents (files) are assigned dense integer identifiers.  Each (stemmed)
    word and each transducer attribute/value pair has one doc-granular
    posting array in {!Cas}, sorted and duplicate-free.  The index also
    keeps every directory's live documents ({!doc_ids_under}), and a lookup
    scoped under a directory is the term's postings intersected with that
    set.  A lookup answers a {e candidate} superset; {!unvouched} names
    the candidates whose postings may be wrong, and callers needing exact
    answers verify those against the actual contents ({!Search}).

    Glimpse's block granularity is a view, not a second structure: with
    [block_size > 1] every candidate set is widened at lookup time to the
    whole blocks ([id / block_size]) its members fall in — the answer a
    block bitmap would give — and verification trims the extra documents.

    Updates are lazy, like Glimpse's: removing or rewriting a document does
    not erase its old words' postings (removals are masked by the live set),
    and a rename leaves them as they are, though a transducer may read the
    path.  Until {!rebuild} such a document is unvouched, so stale postings
    only cost verification work.  At block size 1 with no cold provider,
    every other live candidate's posting already is the verdict, as long
    as each change to an indexed file reaches the index ({!note_dirty}).

    Single-domain: lookups and costs fill cached snapshots without
    synchronisation. *)

type t
(** One index instance. *)

type doc_id = int
(** Dense document identifier, stable for the life of the path. *)

val create : ?block_size:int -> ?stem:bool -> ?transducer:Transducer.t -> unit -> t
(** A fresh empty index.  [block_size] is the number of document slots per
    block of the Glimpse view (default 1: doc-granular candidates); [stem]
    applies {!Stemmer.stem} to indexed and queried words (default [true]);
    [transducer] extracts attribute/value pairs from every document
    (default: none), making [attr:value] query terms answer from content
    metadata. *)

val block_size : t -> int
(** The block size chosen at creation. *)

val stemming : t -> bool
(** Whether stemming is on. *)

val transducer : t -> Transducer.t option
(** The attribute transducer installed at creation, if any. *)

val add_document : t -> path:string -> content:string -> doc_id
(** Index a new document.  If the path is already present this behaves like
    {!update_document}. *)

val update_document : t -> path:string -> content:string -> doc_id
(** Reindex the contents of an existing path (same identifier, unvouched
    until {!rebuild}); adds the document when missing. *)

val remove_path : t -> string -> unit
(** Forget the document at the path; its identifier is never reused.  No-op
    when absent. *)

val adopt_document : t -> id:doc_id -> path:string -> unit
(** Register a live document at a {e given} identifier with no content — the
    fast-mount path, where postings live in cold on-disk segments keyed by
    that id.  Raises [Invalid_argument] on a negative id; advances the id
    allocator past [id]. *)

val next_doc_id : t -> doc_id
(** The next identifier {!add_document} would assign (= the id-space size,
    dead slots included). *)

val reserve_doc_ids : t -> int -> unit
(** Ensure future identifiers start at or above [n] — dead documents' ids
    still appear in cold segments, and a fresh id must never alias one. *)

val iter_live : t -> (doc_id -> string -> unit) -> unit
(** Every live document with its path, ascending by id. *)

val iter_cas_terms : t -> (string -> Hac_bitset.Fileset.t -> unit) -> unit
(** Every CAS term key with its live posting set (see {!Cas.iter_terms}) —
    what a postings-segment dump persists. *)

val set_cold :
  t ->
  lookup:(string -> Hac_bitset.Fileset.t) ->
  cost:(string -> int) ->
  words:(unit -> string list) ->
  term_count:(unit -> int) ->
  unit
(** Install a cold-postings provider: term lookups over on-disk segments not
    loaded into memory, keyed by the {!Cas} flat term encodings.  Its sets
    are unioned into every candidate answer (masked by the live universe and
    trimmed by verification, as {!unvouched} names every candidate while a
    provider is installed — an over-broad provider costs work, never
    correctness), its costs added to {!term_cost}/{!attr_cost}, and its
    [words] swept by approximate and regex queries.  [term_count] bounds the
    number of [words] from above without building them (it may count
    attribute terms and duplicates); {!word_count} adds it in. *)

val has_cold : t -> bool

val rename_path : t -> old_path:string -> new_path:string -> unit
(** Move a document to a new path, keeping its identifier (unvouched until
    {!rebuild}).  No-op when [old_path] is not indexed. *)

val note_dirty : t -> string -> unit
(** Report that the file at the path changed since it was last indexed: its
    document is unvouched until the next {!rebuild}.  The postings vouch for
    a document only if every change to its file is reported here (or
    through {!update_document}, {!remove_path} or {!rename_path}) before the
    next lookup.  No-op when the path is not indexed. *)

val unvouched : t -> Hac_bitset.Fileset.t -> Hac_bitset.Fileset.t
(** The members of a candidate set whose postings cannot vouch for them, so
    a caller wanting exact answers must verify them against content.  All
    of them when [block_size > 1] or a cold provider is installed (segment
    dumps keep the stale words of lazily updated documents).  Otherwise the
    documents updated in place, renamed or reported by {!note_dirty} since
    the last {!rebuild}.  For a word or attribute lookup, every other member
    holds the term in its indexed content. *)

val doc_count : t -> int
(** Number of live documents. *)

val universe : t -> Hac_bitset.Fileset.t
(** Set of all live document identifiers. *)

val doc_path : t -> doc_id -> string option
(** Path of a live document. *)

val doc_of_path : t -> string -> doc_id option
(** Identifier of an indexed path. *)

val candidate_docs :
  ?within:Hac_bitset.Fileset.t -> ?under:string -> t -> string -> Hac_bitset.Fileset.t
(** Live documents that may contain the word (after stemming) — a superset
    of the true answer, widened to whole blocks by the block view, to be
    verified by the caller.  [?under] (a normalized absolute directory)
    intersects the resident answer with the live documents under that
    directory ({!doc_ids_under}), which is sound whenever the caller
    intersects the final result with a subtree scope below [under]; cold
    candidates are unioned unscoped.  [?within] intersects the answer with
    the given set. *)

val word_count : t -> int
(** An upper bound on the words {!sweep_words} walks, read from counts
    alone — O(1) plus one call of the cold provider's [term_count]: what
    deciding whether a sweep pays may read. *)

val sweep_words :
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  t ->
  (string -> bool) ->
  Hac_bitset.Fileset.t * int
(** [sweep_words t pick] walks every indexed word — the resident ones in
    place in the term table, then the cold provider's that are not
    resident — and answers the union of the candidate documents of every
    word [pick] accepts ([pick] sees the indexed, stemmed form), with the
    number of words walked.  [?within] and [?under] as for
    {!candidate_docs}. *)

val candidate_docs_approx :
  ?within:Hac_bitset.Fileset.t -> t -> word:string -> errors:int -> Hac_bitset.Fileset.t
(** Union of {!candidate_docs} over every vocabulary word (resident and
    cold) within the given edit distance of [word] — Glimpse's
    approximate-query expansion. *)

val doc_ids_under : t -> string -> Hac_bitset.Fileset.t
(** Live documents at or below a (normalized, absolute) directory path —
    maintained incrementally per document, so subtree scopes cost a lookup
    rather than a scan over every document.  [doc_ids_under t "/"] equals
    {!universe}. *)

val attr_docs :
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  t ->
  string ->
  string ->
  Hac_bitset.Fileset.t
(** Live documents carrying the attribute/value pair (extracted by the
    transducer at indexing time).  Empty when no transducer is installed.
    Same superset/verification contract and [?within]/[?under] semantics as
    {!candidate_docs}; attribute lookups are exact on the value. *)

val term_cost : ?under:string -> t -> string -> int
(** Estimate of [candidate_docs t w]'s cardinality before the block view
    widens it, plus the cold provider's count.  The resident part is the
    term's posting-array length; under a scope holding no more documents
    than that, it is the exact count of the scope's members in the array,
    each probed by binary search.  Never materializes a candidate set or
    walks a posting array — cheap enough to consult once per query term on
    every resync, which is what {!Planner.optimize} needs to rank conjuncts
    by real selectivity. *)

val attr_cost : ?under:string -> t -> string -> string -> int
(** {!term_cost} for an attribute/value pair. *)

val cas : t -> Cas.t
(** The index's postings, for inspection: mutate them only through this
    module. *)

val cas_stats : t -> Cas.stats
(** Memory accounting and container histogram of the CAS postings (forces
    every term's snapshot — a stats-time cost). *)

val attributes : t -> (string * string) list
(** All resident attribute/value pairs, sorted. *)

val vocabulary : t -> string list
(** All indexed (stemmed) words, resident and cold, sorted.  Builds and
    sorts a fresh list: for reports, not for query evaluation. *)

val vocabulary_size : t -> int
(** Number of distinct indexed words. *)

val rebuild : t -> may_read:(doc_id -> bool) -> (doc_id -> string option) -> unit
(** [rebuild t ~may_read read] compacts: it drops the postings of removed
    documents and re-tokenizes the drifted ones — updated in place, renamed
    or reported dirty; every live document while a cold provider is
    installed, which this retires.  Only the documents it re-tokenizes are
    read; every other live document is only tested with [may_read].
    Reclaims the stale postings left by removals and updates and vouches
    again for every live document, so [read] must supply each file's
    current body.  A document [read] cannot supply, or [may_read] rejects,
    is dropped as removed.  Afterwards the term table holds exactly the
    live documents' vocabulary, as a fresh index built from the same bodies
    would. *)

val drifted : t -> int
(** The live documents the next {!rebuild} re-tokenizes: the drifted ones,
    or all of them while a cold provider is installed. *)

val index_bytes : t -> int
(** Estimated byte size of the index structures (compressed postings +
    per-directory sets + document table): the paper's Table 3 space
    column. *)

val stale_ratio : t -> float
(** Fraction of lazy operations (removals and in-place updates, which leave
    stale postings) relative to live documents since the last {!rebuild}
    — the rebuild-freshness signal used for automatic compaction. *)
