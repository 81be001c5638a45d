module Fileset = Hac_bitset.Fileset

type reader = { read : string -> string option; may_read : string -> bool }

(* Per-evaluation profiling accumulator.  A plain mutable record rather
   than a metrics dependency: callers that care allocate one, pass it down,
   and flush the totals wherever they like; the [None] fast path costs one
   match per call site. *)
type probe = {
  mutable postings_scanned : int;
  mutable candidates_expanded : int;
  mutable docs_verified : int;
  mutable docs_trusted : int;
  mutable terms : int;
}

let new_probe () =
  { postings_scanned = 0; candidates_expanded = 0; docs_verified = 0; docs_trusted = 0; terms = 0 }

let tick probe f = match probe with Some p -> f p | None -> ()

let key idx w = if Index.stemming idx then Stemmer.stem w else w

(* -- per-pass shared caches ------------------------------------------------

   Both caches live for exactly one settle pass — the window during which
   the index and every document's content are frozen — so they need no
   invalidation protocol: the pass drops them when it ends, and a reindex
   always starts a fresh pass.  Both are safe to share across domains: the
   table locks cover the maps, and an entry's token structures are built and
   read under the entry's own lock (publishing a half-built hashtable
   through a plain mutable field is not safe under the OCaml 5 memory
   model). *)

type doc_entry = {
  de_content : string;
  de_lock : Mutex.t;
  mutable de_keys : (string, unit) Hashtbl.t option;  (* index-keyed token set *)
  mutable de_tokens : string list option;  (* raw token stream, for phrases *)
}

type doc_cache = {
  dc_lock : Mutex.t;
  dc_tbl : (string, doc_entry option) Hashtbl.t;  (* None: unreadable path *)
  dc_max_bytes : int;
  mutable dc_bytes : int;
  mutable dc_hits : int;
  mutable dc_misses : int;
  mutable dc_uncached : int;
}

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_uncached : int;
  cache_docs : int;
  cache_bytes : int;
}

let default_cache_bytes = 32 * 1024 * 1024

(* Sized like the term memo: most passes (a delta settle) read a handful of
   documents, and a 1024-bucket table would be a fresh large block on the
   major heap for every pass. *)
let doc_cache ?(max_bytes = default_cache_bytes) () =
  {
    dc_lock = Mutex.create ();
    dc_tbl = Hashtbl.create 64;
    dc_max_bytes = max_bytes;
    dc_bytes = 0;
    dc_hits = 0;
    dc_misses = 0;
    dc_uncached = 0;
  }

let doc_cache_stats c =
  Mutex.lock c.dc_lock;
  let s =
    {
      cache_hits = c.dc_hits;
      cache_misses = c.dc_misses;
      cache_uncached = c.dc_uncached;
      cache_docs = Hashtbl.length c.dc_tbl;
      cache_bytes = c.dc_bytes;
    }
  in
  Mutex.unlock c.dc_lock;
  s

let cached_entry c (reader : reader) path =
  Mutex.lock c.dc_lock;
  match Hashtbl.find_opt c.dc_tbl path with
  | Some e ->
      c.dc_hits <- c.dc_hits + 1;
      Mutex.unlock c.dc_lock;
      e
  | None ->
      c.dc_misses <- c.dc_misses + 1;
      Mutex.unlock c.dc_lock;
      (* Read outside the lock: the file cannot change during a pass, so a
         concurrent same-path read is benign, and a slow reader must not
         serialize every other domain. *)
      let entry =
        Option.map
          (fun content ->
            { de_content = content; de_lock = Mutex.create (); de_keys = None; de_tokens = None })
          (reader.read path)
      in
      Mutex.lock c.dc_lock;
      (match Hashtbl.find_opt c.dc_tbl path with
      | Some e ->
          (* Another domain raced us to it; keep the published entry so all
             readers share one set of token structures. *)
          Mutex.unlock c.dc_lock;
          e
      | None ->
          let sz = match entry with Some e -> String.length e.de_content | None -> 0 in
          if c.dc_bytes + sz <= c.dc_max_bytes then begin
            Hashtbl.replace c.dc_tbl path entry;
            c.dc_bytes <- c.dc_bytes + sz
          end
          else c.dc_uncached <- c.dc_uncached + 1;
          Mutex.unlock c.dc_lock;
          entry)

let cached_content c reader path =
  Option.map (fun e -> e.de_content) (cached_entry c reader path)

(* Token structures are built at most once per entry, under the entry lock;
   once published they are immutable, so the returned table/list can be read
   without the lock. *)
let entry_keys idx e =
  Mutex.lock e.de_lock;
  let keys =
    match e.de_keys with
    | Some k -> k
    | None ->
        let k = Hashtbl.create 64 in
        Tokenizer.iter_words e.de_content (fun x -> Hashtbl.replace k (key idx x) ());
        e.de_keys <- Some k;
        k
  in
  Mutex.unlock e.de_lock;
  keys

let entry_tokens e =
  Mutex.lock e.de_lock;
  let tokens =
    match e.de_tokens with
    | Some t -> t
    | None ->
        let t = Tokenizer.words e.de_content in
        e.de_tokens <- Some t;
        t
  in
  Mutex.unlock e.de_lock;
  tokens

(* -- content predicates ---------------------------------------------------- *)

let contains_word idx ~content ~word =
  let w = String.lowercase_ascii word in
  if Index.stemming idx then begin
    (* Stemmed comparison needs materialised tokens. *)
    let wk = Stemmer.stem w in
    let found = ref false in
    Tokenizer.iter_words content (fun x -> if Stemmer.stem x = wk then found := true);
    !found
  end
  else Tokenizer.contains_word content w

(* Membership in the index-keyed token set is exactly [contains_word]:
   unstemmed keys are the raw (truncated) tokens [Tokenizer.contains_word]
   matches; stemmed keys compare stems as the scan does.  It is also
   exactly what indexing posts, which is why a word posting the index
   vouches for ({!Index.unvouched}) needs no second look at the body. *)
let entry_has_word idx e w = Hashtbl.mem (entry_keys idx e) (key idx (String.lowercase_ascii w))

(* Slide over the token stream keeping how much of the phrase each in-flight
   match has consumed; token lists are short-lived (or pass-cached). *)
let phrase_in_tokens first rest tokens =
  let rec scan = function
    | [] -> false
    | t :: tl -> (t = first && tail_matches rest tl) || scan tl
  and tail_matches need toks =
    match (need, toks) with
    | [], _ -> true
    | _, [] -> false
    | n :: nrest, t :: trest -> t = n && tail_matches nrest trest
  in
  scan tokens

let contains_phrase ~content words =
  match List.map String.lowercase_ascii words with
  | [] -> true
  | first :: rest -> phrase_in_tokens first rest (Tokenizer.words content)

let entry_has_phrase e words =
  match List.map String.lowercase_ascii words with
  | [] -> true
  | first :: rest -> phrase_in_tokens first rest (entry_tokens e)

let verify idx reader pred candidates =
  Fileset.filter
    (fun id ->
      match Index.doc_path idx id with
      | None -> false
      | Some path -> (
          match reader.read path with None -> false | Some content -> pred ~path content))
    candidates

(* Cache-backed verification: the same shape, but the predicate runs on a
   shared [doc_entry], so each file is read and tokenized at most once per
   pass no matter how many sibling directories verify it. *)
let verify_entry cache idx reader pred candidates =
  Fileset.filter
    (fun id ->
      match Index.doc_path idx id with
      | None -> false
      | Some path -> (
          match cached_entry cache reader path with None -> false | Some e -> pred e))
    candidates

(* Glimpse verifies every candidate because its postings name blocks.  Ours
   name documents, so for an [~exact] term, whose candidates are the
   postings of the very predicate verification would re-apply to the same
   tokens, the posting of a document the index vouches for already is the
   verdict.  Such a candidate keeps only the read-permission half of
   verification: HAC borrows its security from the OS, and a body the
   caller may not read must not match.  Every other candidate goes through
   [check]. *)
let verify_unvouched ?probe ~exact idx reader check candidates =
  let unsure = if exact then Index.unvouched idx candidates else candidates in
  let n_unsure = Fileset.cardinal unsure in
  let n_trusted = Fileset.cardinal candidates - n_unsure in
  tick probe (fun p ->
      p.docs_verified <- p.docs_verified + n_unsure;
      p.docs_trusted <- p.docs_trusted + n_trusted);
  let verified = check unsure in
  if n_trusted = 0 then verified
  else
    Fileset.union verified
      (Fileset.filter
         (fun id ->
           match Index.doc_path idx id with Some path -> reader.may_read path | None -> false)
         (if n_unsure = 0 then candidates else Fileset.diff candidates unsure))

let expanded ?probe candidates =
  tick probe (fun p ->
      p.candidates_expanded <- p.candidates_expanded + Fileset.cardinal candidates);
  candidates

let search_word ?probe ?within ?under ?cache idx reader w =
  let w = String.lowercase_ascii w in
  tick probe (fun p ->
      p.postings_scanned <- p.postings_scanned + Index.term_cost ?under idx w);
  let candidates = expanded ?probe (Index.candidate_docs ?within ?under idx w) in
  verify_unvouched ?probe ~exact:true idx reader
    (match cache with
    | None -> verify idx reader (fun ~path:_ content -> contains_word idx ~content ~word:w)
    | Some c -> verify_entry c idx reader (fun e -> entry_has_word idx e w))
    candidates

let search_phrase ?probe ?within ?under ?cache idx reader words =
  match words with
  | [] -> Fileset.empty
  | [ w ] -> search_word ?probe ?within ?under ?cache idx reader w
  | _ ->
      (* Fetch every word's candidate set (cached per term) and hand the lot
         to the container-level rarest-first [inter_many] — no pairwise
         intermediates. *)
      let sets =
        List.map
          (fun w ->
            tick probe (fun p ->
                p.postings_scanned <- p.postings_scanned + Index.term_cost ?under idx w);
            Index.candidate_docs ?under idx w)
          words
      in
      let sets = match within with Some w -> w :: sets | None -> sets in
      (* Word postings cannot tell adjacency: every candidate is read. *)
      verify_unvouched ?probe ~exact:false idx reader
        (match cache with
        | None -> verify idx reader (fun ~path:_ content -> contains_phrase ~content words)
        | Some c -> verify_entry c idx reader (fun e -> entry_has_phrase e words))
        (expanded ?probe (Fileset.inter_many sets))

(* The candidates are the postings of every vocabulary word within the edit
   distance, and verification asks whether some token's key is such a word:
   the same predicate over the same tokens, so exact postings vouch. *)
let search_approx ?probe ?within ?cache idx reader ~word ~errors =
  let word = String.lowercase_ascii word in
  let candidates = expanded ?probe (Index.candidate_docs_approx ?within idx ~word ~errors) in
  tick probe (fun p -> p.postings_scanned <- p.postings_scanned + Fileset.cardinal candidates);
  let near x = Agrep.word_matches ~pattern:(key idx word) ~errors (key idx x) in
  verify_unvouched ?probe ~exact:true idx reader
    (match cache with
    | None ->
        verify idx reader (fun ~path:_ content ->
            let found = ref false in
            Tokenizer.iter_words content (fun x -> if near x then found := true);
            !found)
    | Some c -> verify_entry c idx reader (fun e -> List.exists near (entry_tokens e)))
    candidates

(* Transducer attributes: the postings are what [extract] returned at
   indexing time, lowercased, and verification re-extracts from the current
   body and path under the same normalization, so a vouched-for posting is
   the verdict here too. *)
let search_attr ?probe ?within ?cache idx reader key value =
  match Index.transducer idx with
  | None -> Fileset.empty
  | Some td ->
      let key = String.lowercase_ascii key and value = String.lowercase_ascii value in
      tick probe (fun p ->
          p.postings_scanned <- p.postings_scanned + Index.attr_cost idx key value);
      let holds ~path content =
        List.exists
          (fun (k, v) -> String.lowercase_ascii k = key && String.lowercase_ascii v = value)
          (td.Transducer.extract ~path ~content)
      in
      let read =
        match cache with
        | None -> reader
        | Some c -> { reader with read = cached_content c reader }
      in
      verify_unvouched ?probe ~exact:true idx reader (verify idx read holds)
        (expanded ?probe (Index.attr_docs ?within idx key value))

let search_substring ?probe idx reader pattern =
  let pred ~path:_ content = Agrep.find_exact ~pattern content <> None in
  verify_unvouched ?probe ~exact:false idx reader (verify idx reader pred)
    (expanded ?probe (Index.universe idx))

let contains_substring hay needle =
  Agrep.find_exact ~pattern:needle hay <> None

let search_regex ?probe ?within ?under ?cache idx reader pattern =
  let re = Regex.compile pattern in
  let candidates =
    (* A literal run required by every match must appear inside some token
       of the document; scanning the vocabulary for it is sound as long as
       the vocabulary holds raw (unstemmed) tokens.  Tokens longer than
       [max_word_len] were truncated, so they are always candidates. *)
    match Regex.required_word re with
    | Some run when (not (Index.stemming idx)) && String.length run <= Tokenizer.max_word_len
      ->
        List.fold_left
          (fun acc w ->
            if String.length w = Tokenizer.max_word_len || contains_substring w run then begin
              tick probe (fun p ->
                  p.postings_scanned <- p.postings_scanned + Index.term_cost ?under idx w);
              Fileset.union acc (Index.candidate_docs ?within ?under idx w)
            end
            else acc)
          Fileset.empty (Index.vocabulary idx)
    | Some _ | None -> ( match within with Some w -> w | None -> Index.universe idx)
  in
  (* A required literal narrows candidates; only the body decides. *)
  verify_unvouched ?probe ~exact:false idx reader
    (match cache with
    | None -> verify idx reader (fun ~path:_ content -> Regex.matches re content)
    | Some c -> verify_entry c idx reader (fun e -> Regex.matches re e.de_content))
    (expanded ?probe candidates)

let matching_lines idx reader ~path ~query_words =
  match reader.read path with
  | None -> []
  | Some content ->
      let keys = List.map (fun w -> key idx (String.lowercase_ascii w)) query_words in
      let hits = ref [] in
      Tokenizer.iter_lines content (fun lineno line ->
          let line_has = ref false in
          Tokenizer.iter_words line (fun x ->
              if List.mem (key idx x) keys then line_has := true);
          if !line_has then hits := (lineno, line) :: !hits);
      List.rev !hits

(* -- per-pass term memo ---------------------------------------------------- *)

type term_memo = {
  tm_lock : Mutex.t;
  tm_tbl : (string, Fileset.t) Hashtbl.t;
  mutable tm_hits : int;
  mutable tm_misses : int;
}

type memo_stats = { memo_hits : int; memo_misses : int; memo_entries : int }

let term_memo () =
  { tm_lock = Mutex.create (); tm_tbl = Hashtbl.create 64; tm_hits = 0; tm_misses = 0 }

let term_memo_stats m =
  Mutex.lock m.tm_lock;
  let s =
    { memo_hits = m.tm_hits; memo_misses = m.tm_misses; memo_entries = Hashtbl.length m.tm_tbl }
  in
  Mutex.unlock m.tm_lock;
  s

(* Concurrent misses on the same key may both compute; the value is a pure
   function of the frozen index, so last-write-wins is harmless and cheaper
   than holding the lock across an evaluation. *)
let memoized m k compute =
  Mutex.lock m.tm_lock;
  match Hashtbl.find_opt m.tm_tbl k with
  | Some v ->
      m.tm_hits <- m.tm_hits + 1;
      Mutex.unlock m.tm_lock;
      v
  | None ->
      m.tm_misses <- m.tm_misses + 1;
      Mutex.unlock m.tm_lock;
      let v = compute () in
      Mutex.lock m.tm_lock;
      if not (Hashtbl.mem m.tm_tbl k) then Hashtbl.replace m.tm_tbl k v;
      Mutex.unlock m.tm_lock;
      v

(* -- the hoisted evaluator -------------------------------------------------

   One {!Eval.env} closure record used to be allocated per evaluation; a
   settle pass over thousands of directories re-built identical closures
   thousands of times.  The evaluator hoists everything per-index (index,
   reader, caches, the env itself) and threads the two per-query bits —
   probe and restriction — through mutable fields read by the closures.  An
   evaluator therefore serves one domain at a time; parallel passes give
   each task its own evaluator over the {e shared} memo and cache. *)

type evaluator = {
  ev_idx : Index.t;
  ev_reader : reader;
  ev_memo : term_memo option;
  ev_cache : doc_cache option;
  mutable ev_probe : probe option;
  mutable ev_restrict : Fileset.t option;
  mutable ev_under : string option;
  mutable ev_env : Hac_query.Eval.env option;
}

(* Memoize only unrestricted term evaluations: a [?within] comes from AND
   threading or delta restriction and varies call to call, while the
   unrestricted result is a pure function of the frozen index — exactly the
   work identical sibling queries duplicate. *)
let memo_term ev ~within k compute =
  match (ev.ev_memo, within) with
  | Some m, None -> memoized m k compute
  | _ -> compute ()

let make_env ev ~attr ~dirref =
  let term () = tick ev.ev_probe (fun p -> p.terms <- p.terms + 1) in
  (* Scope-pruned term results genuinely differ per scope hint, so the hint
     is part of the memo key. *)
  let keyed k = match ev.ev_under with None -> k | Some u -> k ^ "@" ^ u in
  {
    Hac_query.Eval.universe =
      (fun () ->
        (* Under a restriction [*] and top-level NOT never need more than
           the restriction itself; without one they need the live-document
           set, computed once per pass via the memo. *)
        match ev.ev_restrict with
        | Some s -> s
        | None ->
            memo_term ev ~within:None "u:" (fun () -> Index.universe ev.ev_idx));
    word =
      (fun ?within w ->
        term ();
        memo_term ev ~within (keyed ("w:" ^ w)) (fun () ->
            search_word ?probe:ev.ev_probe ?within ?under:ev.ev_under ?cache:ev.ev_cache
              ev.ev_idx ev.ev_reader w));
    phrase =
      (fun ?within ws ->
        term ();
        memo_term ev ~within (keyed ("p:" ^ String.concat "\x00" ws)) (fun () ->
            search_phrase ?probe:ev.ev_probe ?within ?under:ev.ev_under ?cache:ev.ev_cache
              ev.ev_idx ev.ev_reader ws));
    approx =
      (fun ?within w k ->
        term ();
        memo_term ev ~within (Printf.sprintf "x:%d:%s" k w) (fun () ->
            search_approx ?probe:ev.ev_probe ?within ?cache:ev.ev_cache ev.ev_idx ev.ev_reader
              ~word:w ~errors:k));
    attr =
      (fun ?within k v ->
        memo_term ev ~within (keyed ("a:" ^ k ^ "\x00" ^ v)) (fun () ->
            attr ?probe:ev.ev_probe ?within k v));
    regex =
      (fun ?within r ->
        term ();
        memo_term ev ~within (keyed ("r:" ^ r)) (fun () ->
            match
              search_regex ?probe:ev.ev_probe ?within ?under:ev.ev_under ?cache:ev.ev_cache
                ev.ev_idx ev.ev_reader r
            with
            | s -> s
            | exception Regex.Parse_error _ -> Fileset.empty));
    (* Directory scopes move as the pass applies results: never memoized. *)
    dirref;
  }

let evaluator ?memo ?cache idx reader ~attr ~dirref =
  let ev =
    {
      ev_idx = idx;
      ev_reader = reader;
      ev_memo = memo;
      ev_cache = cache;
      ev_probe = None;
      ev_restrict = None;
      ev_under = None;
      ev_env = None;
    }
  in
  ev.ev_env <- Some (make_env ev ~attr ~dirref);
  ev

let eval_with ev ?probe ?restrict_to ?under q =
  ev.ev_probe <- probe;
  ev.ev_restrict <- restrict_to;
  ev.ev_under <- under;
  let env = match ev.ev_env with Some e -> e | None -> assert false in
  Hac_query.Eval.eval ?within:restrict_to env q

let eval ?probe ?restrict_to ?under idx reader ~attr ~dirref q =
  eval_with (evaluator idx reader ~attr ~dirref) ?probe ?restrict_to ?under q
