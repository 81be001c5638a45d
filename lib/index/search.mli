(** Candidate verification and content retrieval over an {!Index.t}.

    The index answers with candidate supersets; the functions here
    read the candidate documents and keep only the ones whose contents
    actually match — Glimpse's second level.  Word, transducer-attribute
    and approximate terms read only the candidates {!Index.unvouched}
    names: their other candidates hold the term in their indexed content,
    which is the verdict verification would reach, and only need the
    caller's read permission.  That holds only while the index is told of
    every change to a document's file ({!Index.update_document},
    {!Index.remove_path}, {!Index.rename_path} or {!Index.note_dirty});
    otherwise answers go stale.  Phrase, regex
    and substring terms read every candidate.  Content access is abstracted
    as a [reader] so the same code serves the local VFS, remote namespaces
    and tests. *)

type reader = {
  read : string -> string option;
      (** The document's contents, or [None] when unreadable. *)
  may_read : string -> bool;
      (** Whether the caller may read the document — the permission half of
          [read], checked for candidates whose body is not read. *)
}

type probe = {
  mutable postings_scanned : int;
      (** Index cost units consulted ({!Index.term_cost} per word looked up;
          candidate cardinality for approximate lookups). *)
  mutable candidates_expanded : int;
      (** Documents in candidate sets (already inside any [?within]), before
          verification. *)
  mutable docs_verified : int;
      (** Documents whose contents were read and checked. *)
  mutable docs_trusted : int;
      (** Candidates accepted on their postings after a permission check,
          without reading their contents. *)
  mutable words_walked : int;
      (** Vocabulary words a regex or approximate term swept for
          candidates (0 when it verified its [?within] directly). *)
  mutable terms : int;  (** Query terms evaluated through {!eval}. *)
}
(** Per-evaluation profiling accumulator.  Pass one [?probe] through a
    search to collect where the work went; omitting it costs nothing
    measurable.  Purely observational — never affects results. *)

val new_probe : unit -> probe
(** All-zero probe. *)

(** {1 Per-pass shared caches}

    Both caches live for exactly one settle pass — the window during which
    the index and every document's content are frozen — so dropping them at
    the end of the pass is the whole invalidation story.  Both are
    single-domain: nothing in them is synchronised. *)

type doc_cache
(** A bounded document content/token cache.  The first verification of a
    path reads it; later verifications (by any sibling directory) reuse the
    content and the lazily-built token structures, so each
    file is read and tokenized at most once per pass.  Unreadable paths are
    cached too.  Documents past the byte budget are served uncached. *)

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_uncached : int;  (** Lookups past the byte budget, served uncached. *)
  cache_docs : int;
  cache_bytes : int;
}

val doc_cache : ?max_bytes:int -> unit -> doc_cache
(** An empty cache (default budget 32 MiB of document bytes). *)

val doc_cache_stats : doc_cache -> cache_stats

val cached_content : doc_cache -> reader -> string -> string option
(** Read through the cache: the document's contents, or [None] when
    unreadable (also cached). *)

type term_memo
(** A per-pass memo of {e unrestricted} term results, keyed by term.  Across
    sibling directories whose queries share [word:]/[attr:]/phrase subterms,
    each distinct subterm is evaluated once per pass. *)

type memo_stats = { memo_hits : int; memo_misses : int; memo_entries : int }

val term_memo : unit -> term_memo

val term_memo_stats : term_memo -> memo_stats

val search_word :
  ?probe:probe ->
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  ?cache:doc_cache ->
  Index.t ->
  reader ->
  string ->
  Hac_bitset.Fileset.t
(** Documents that contain the word (index candidates, then verified whole-
    word containment for the unvouched ones; stemming follows the index's
    setting).  [?within] restricts the candidates before verification —
    conjunctive evaluation passes its accumulated result here so ever fewer
    documents are read.
    [?under] is the CAS scope hint ({!Index.candidate_docs}): sound only
    when the caller intersects the result with a subtree scope below it.
    [?cache] routes content reads and tokenization through a pass cache. *)

val search_phrase :
  ?probe:probe ->
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  ?cache:doc_cache ->
  Index.t ->
  reader ->
  string list ->
  Hac_bitset.Fileset.t
(** Documents containing the words consecutively, in order.  The per-word
    candidate sets go through the container-level rarest-first
    {!Fileset.inter_many}. *)

val search_approx :
  ?probe:probe ->
  ?within:Hac_bitset.Fileset.t ->
  ?cache:doc_cache ->
  Index.t ->
  reader ->
  word:string ->
  errors:int ->
  Hac_bitset.Fileset.t
(** Documents containing some word within the given edit distance — the
    [~term] query form.  Candidates come from sweeping the vocabulary
    ({!Index.sweep_words}), unless a [?within] small enough that verifying
    its members costs less than the sweep ({!Index.word_count} against
    |within|, measured crossover) is itself the candidate set; then every
    member is verified. *)

val search_attr :
  ?probe:probe ->
  ?within:Hac_bitset.Fileset.t ->
  ?cache:doc_cache ->
  Index.t ->
  reader ->
  string ->
  string ->
  Hac_bitset.Fileset.t
(** Documents the index's transducer assigns the attribute/value pair
    (lowercased), re-extracted from the body and path for the unvouched
    candidates.  Empty when no transducer is installed. *)

val search_substring : ?probe:probe -> Index.t -> reader -> string -> Hac_bitset.Fileset.t
(** Documents whose raw contents contain the byte string (bitap scan over
    every live document — no index help; for short or non-word patterns). *)

val search_regex :
  ?probe:probe ->
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  ?cache:doc_cache ->
  Index.t ->
  reader ->
  string ->
  Hac_bitset.Fileset.t
(** Documents whose raw contents match the regular expression (the [/re/]
    query term).  When the pattern syntactically requires a literal word
    ({!Regex.required_word}) and the index is unstemmed, candidates are
    narrowed through the vocabulary first, as Glimpse extracts literals from
    regular expressions; otherwise every live document (or every member of
    [?within]) is scanned.  A [?within] small enough that verifying its
    members costs less than the vocabulary sweep is scanned directly, as
    for {!search_approx}.  Raises {!Regex.Parse_error} on a malformed
    pattern. *)

val matching_lines :
  Index.t -> reader -> path:string -> query_words:string list -> (int * string) list
(** Lines (1-based number, text) of the document that contain at least one
    of the query words — what the paper's [sact] shows the user for a link
    inside a semantic directory. *)

val contains_word : Index.t -> content:string -> word:string -> bool
(** Whole-word containment test consistent with the index's stemming. *)

val contains_phrase : content:string -> string list -> bool
(** Consecutive-words containment test (exact words, no stemming). *)

(** {1 Evaluators}

    {!eval} used to rebuild its {!Eval.env} closure record per call; a
    settle pass over thousands of directories re-allocated identical
    closures thousands of times.  An {!evaluator} hoists everything that is
    per-index — the index, the reader, the caches and the env itself — and
    threads the per-query probe and restriction through mutable fields, so
    one evaluator serves a whole pass.  An evaluator is single-domain (its
    fields are unsynchronised). *)

type evaluator

val evaluator :
  ?memo:term_memo ->
  ?cache:doc_cache ->
  Index.t ->
  reader ->
  attr:
    (?probe:probe -> ?within:Hac_bitset.Fileset.t -> string -> string -> Hac_bitset.Fileset.t) ->
  dirref:(?within:Hac_bitset.Fileset.t -> Hac_query.Ast.dirref -> Hac_bitset.Fileset.t) ->
  evaluator
(** The standard {!Eval.env} wiring (word/phrase/approx/regex answered by
    the searches above, with malformed regex terms evaluating to the empty
    set; attributes and directory references supplied by the caller, with
    the evaluation's probe for attribute verification work).  With
    [?memo], unrestricted term evaluations — including the universe and the
    supplied [attr] — are memoized; [dirref] results never are (scopes move
    as a pass applies results).  With [?cache], content verification runs
    through the document cache. *)

val eval_with :
  evaluator ->
  ?probe:probe ->
  ?restrict_to:Hac_bitset.Fileset.t ->
  ?under:string ->
  Hac_query.Ast.t ->
  Hac_bitset.Fileset.t
(** Evaluate a parsed query.  [?restrict_to] evaluates the query only over
    the given documents — candidate expansion, content verification and
    NOT's universe all stay inside the set, which is what makes delta resync
    O(touched docs) ({!Eval.eval}'s restriction-pushdown contract guarantees
    [eval ~restrict_to:S q = S ∩ eval q]).  [?under] is the CAS scope hint,
    forwarded to every term lookup (and mixed into the pass-memo keys): the
    caller asserts the final result will be intersected with a scope set
    lying under that directory, which makes intersecting every term's
    postings with that directory's documents sound for any boolean query
    shape. *)

val eval :
  ?probe:probe ->
  ?restrict_to:Hac_bitset.Fileset.t ->
  ?under:string ->
  Index.t ->
  reader ->
  attr:
    (?probe:probe -> ?within:Hac_bitset.Fileset.t -> string -> string -> Hac_bitset.Fileset.t) ->
  dirref:(?within:Hac_bitset.Fileset.t -> Hac_query.Ast.dirref -> Hac_bitset.Fileset.t) ->
  Hac_query.Ast.t ->
  Hac_bitset.Fileset.t
(** One-shot {!evaluator} + {!eval_with}, uncached — the historical entry
    point, kept for callers outside settle passes. *)
