module Fileset = Hac_bitset.Fileset

type doc_id = int

type doc = { mutable path : string; mutable alive : bool }

(* A cold-postings provider: term lookups over on-disk postings segments a
   fast mount did not load into memory.  Keys are the {!Cas} flat term
   encodings.  Every set it returns is unioned in as extra candidates —
   masked by the live universe and trimmed by verification, so a stale or
   over-broad provider can cost work but never correctness. *)
type cold = {
  lookup : string -> Fileset.t;
  cost : string -> int;
  words : unit -> string list;  (* stemmed words with cold postings *)
  term_count : unit -> int;  (* terms in the segment directories, an upper bound on [words] *)
}

type t = {
  block_size : int;
  stem : bool;
  transducer : Transducer.t option;
  mutable docs : doc array; (* slot = doc_id; grows, never shrinks *)
  mutable next_id : int;
  by_path : (string, doc_id) Hashtbl.t;
  mutable lazy_ops : int; (* removals + in-place updates since the last rebuild *)
  drift : Fileset.Builder.t;
      (* docs updated in place, renamed or reported dirty since the last
         rebuild: their postings may not describe their file *)
  by_dir : (string, Fileset.Builder.t) Hashtbl.t; (* ancestor dir -> live docs beneath it *)
  cas : Cas.t; (* content-and-structure postings, doc-granular *)
  mutable cold : cold option; (* on-disk postings behind the resident ones *)
}

let create ?(block_size = 1) ?(stem = true) ?transducer () =
  if block_size < 1 then invalid_arg "Index.create: block_size < 1";
  {
    block_size;
    stem;
    transducer;
    docs = Array.make 64 { path = ""; alive = false };
    next_id = 0;
    by_path = Hashtbl.create 256;
    lazy_ops = 0;
    drift = Fileset.Builder.create ();
    by_dir = Hashtbl.create 256;
    cas = Cas.create ();
    cold = None;
  }

let set_cold t ~lookup ~cost ~words ~term_count =
  t.cold <- Some { lookup; cost; words; term_count }

let clear_cold t = t.cold <- None

let has_cold t = t.cold <> None

let block_size t = t.block_size

let stemming t = t.stem

let transducer t = t.transducer

let key t w = if t.stem then Stemmer.stem w else w

let ensure_docs t id =
  let n = Array.length t.docs in
  if id >= n then begin
    let docs = Array.make (max (id + 1) (2 * n)) { path = ""; alive = false } in
    Array.blit t.docs 0 docs 0 n;
    t.docs <- docs
  end

(* Every ancestor directory of "/a/b/c.txt": "/", "/a", "/a/b".  Paths are
   normalized absolute by the callers' convention. *)
let ancestors path =
  let rec go acc i =
    match String.index_from_opt path i '/' with
    | Some j when j = 0 -> go ("/" :: acc) 1
    | Some j -> go (String.sub path 0 j :: acc) (j + 1)
    | None -> acc
  in
  go [] 0

let dir_enroll t path id =
  List.iter
    (fun dir ->
      match Hashtbl.find_opt t.by_dir dir with
      | Some b -> Fileset.Builder.add b id
      | None ->
          let b = Fileset.Builder.create () in
          Fileset.Builder.add b id;
          Hashtbl.replace t.by_dir dir b)
    (ancestors path)

let dir_withdraw t path id =
  List.iter
    (fun dir ->
      match Hashtbl.find_opt t.by_dir dir with
      | Some b -> Fileset.Builder.remove b id
      | None -> ())
    (ancestors path)

let index_content t id path content =
  Cas.note_doc t.cas id ~path;
  Tokenizer.iter_words content (fun w -> Cas.post_word t.cas id (key t w));
  match t.transducer with
  | None -> ()
  | Some td ->
      List.iter
        (fun (k, v) -> Cas.post_attr t.cas id (String.lowercase_ascii k) (String.lowercase_ascii v))
        (td.Transducer.extract ~path ~content)

let update_document t ~path ~content =
  match Hashtbl.find_opt t.by_path path with
  | Some id ->
      (* Lazy update: stale words keep their postings until [rebuild]. *)
      t.lazy_ops <- t.lazy_ops + 1;
      Fileset.Builder.add t.drift id;
      index_content t id path content;
      id
  | None ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      ensure_docs t id;
      t.docs.(id) <- { path; alive = true };
      Hashtbl.replace t.by_path path id;
      dir_enroll t path id;
      index_content t id path content;
      id

let add_document = update_document

(* Fast-mount adoption: register a document at a {e given} identifier with
   no content — its postings live in cold segments keyed by that id, so the
   id must survive the remount exactly.  Content arrives later only if the
   file changes (a normal {!update_document} through the dirty path). *)
let adopt_document t ~id ~path =
  if id < 0 then invalid_arg "Index.adopt_document: negative id";
  ensure_docs t id;
  t.docs.(id) <- { path; alive = true };
  Hashtbl.replace t.by_path path id;
  dir_enroll t path id;
  Cas.note_doc t.cas id ~path;
  if id >= t.next_id then t.next_id <- id + 1

let next_doc_id t = t.next_id

(* Dead documents' ids still appear in cold segments; allocating past the
   previous life's frontier keeps a fresh id from aliasing a dead one's
   postings. *)
let reserve_doc_ids t n = if n > t.next_id then t.next_id <- n

let iter_live t f =
  for id = 0 to t.next_id - 1 do
    if t.docs.(id).alive then f id t.docs.(id).path
  done

let iter_cas_terms t f = Cas.iter_terms t.cas f

let remove_path t path =
  match Hashtbl.find_opt t.by_path path with
  | None -> ()
  | Some id ->
      t.docs.(id).alive <- false;
      t.lazy_ops <- t.lazy_ops + 1;
      dir_withdraw t path id;
      Cas.note_remove t.cas id;
      Hashtbl.remove t.by_path path

let note_dirty t path =
  match Hashtbl.find_opt t.by_path path with
  | Some id -> Fileset.Builder.add t.drift id
  | None -> ()

let rename_path t ~old_path ~new_path =
  match Hashtbl.find_opt t.by_path old_path with
  | None -> ()
  | Some id ->
      Hashtbl.remove t.by_path old_path;
      dir_withdraw t old_path id;
      (* A pre-existing doc at the destination is overwritten, as the file
         it described just got replaced. *)
      (match Hashtbl.find_opt t.by_path new_path with
      | Some clobbered ->
          t.docs.(clobbered).alive <- false;
          dir_withdraw t new_path clobbered;
          Cas.note_remove t.cas clobbered
      | None -> ());
      Hashtbl.replace t.by_path new_path id;
      dir_enroll t new_path id;
      Cas.note_doc t.cas id ~path:new_path;
      (* Scoped lookups union every relabeled document regardless of term,
         and a transducer may read the path: the postings no longer vouch. *)
      Fileset.Builder.add t.drift id;
      t.docs.(id).path <- new_path

let doc_count t = Hashtbl.length t.by_path

(* The CAS alive set mirrors the docs array exactly (both are maintained by
   the same mutation paths), and its snapshot is cached between mutations. *)
let universe t = Cas.alive t.cas

let doc_path t id =
  if id < 0 || id >= t.next_id then None
  else
    let d = t.docs.(id) in
    if d.alive then Some d.path else None

let doc_of_path t path = Hashtbl.find_opt t.by_path path

(* Cold candidates for one encoded term key: the provider's set masked by
   the live universe (dead documents' segment postings must not leak). *)
let cold_docs t key =
  match t.cold with
  | None -> Fileset.empty
  | Some c ->
      let s = c.lookup key in
      if Fileset.cardinal s = 0 then s else Fileset.inter s (universe t)

let cold_cost t key = match t.cold with None -> 0 | Some c -> c.cost key

(* Glimpse's block granularity as a view over the doc-granular postings:
   every candidate brings in the live documents of its block ([id /
   block_size]), the set a block bitmap would have answered.  Candidates
   arrive in increasing order and blocks are disjoint, so the widened ids
   stream out increasing too. *)
let widen t s =
  if t.block_size = 1 then s
  else
    Fileset.of_increasing_iter (fun f ->
        let last = ref (-1) in
        Fileset.iter
          (fun id ->
            let block = id / t.block_size in
            if block <> !last then begin
              last := block;
              let lo = block * t.block_size in
              for id = lo to min (lo + t.block_size - 1) (t.next_id - 1) do
                if t.docs.(id).alive then f id
              done
            end)
          s)

let with_cold t resident key =
  if t.cold = None then resident else Fileset.union resident (cold_docs t key)

(* A posting is the verdict only when it names one document (no block
   view) and comes from the file's current body indexed under its current
   path: not drifted by a lazy update, a rename or a reported change since
   the rebuild, which re-read every body.  Dead documents are never
   candidates, so [drift] needs no clearing in between.  Cold segments were
   dumped from lazily updated postings that may keep stale words, and which
   documents drifted before the dump is not recorded, so a cold provider
   vouches for nothing. *)
let unvouched t c =
  if t.block_size > 1 || t.cold <> None then c
  else if Fileset.Builder.cardinal t.drift = 0 then Fileset.empty
  else
    (* Probed in place: a snapshot of the set per lookup would cost more
       than the candidates. *)
    Fileset.filter (fun id -> Fileset.Builder.mem t.drift id) c

let finish ?within t c =
  let c = widen t c in
  match within with None -> c | Some wset -> Fileset.inter c wset

(* [?under] restricts candidate generation to the partitions whose label can
   contain documents under the given directory — sound because every answer
   is a verified superset, and the caller intersects the final result with
   the scope set anyway. *)
let word_docs ?within ?under t w =
  with_cold t (Cas.word_candidates ?within ?under t.cas w) (Cas.word_key w)

let candidate_docs ?within ?under t w = finish ?within t (word_docs ?within ?under t (key t w))

let attr_docs ?within ?under t key value =
  let key = String.lowercase_ascii key and value = String.lowercase_ascii value in
  finish ?within t
    (with_cold t (Cas.attr_candidates ?within ?under t.cas key value) (Cas.attr_key key value))

(* Resident words, then the cold provider's: adopted documents' vocabulary
   lives only in segment directories, so approximate and regex queries must
   sweep both or go blind to everything a fast mount did not reindex.  The
   resident term table is walked in place; a cold word that is also
   resident is skipped, as its resident lookup already unions the cold
   postings. *)
let fold_words t f acc =
  let acc = Cas.fold_words t.cas f acc in
  match t.cold with
  | None -> acc
  | Some cold ->
      List.fold_left
        (fun acc w -> if Cas.has_word t.cas w then acc else f w acc)
        acc (cold.words ())

let word_count t =
  Cas.term_count t.cas + match t.cold with None -> 0 | Some c -> c.term_count ()

let vocabulary t = List.sort_uniq compare (fold_words t List.cons [])

let vocabulary_size t = List.length (vocabulary t)

(* Every vocabulary word [pick] accepts, with the union of their postings;
   [pick] sees indexed (stemmed) words.  Returns the words walked too. *)
let sweep_words ?within ?under t pick =
  let walked = ref 0 in
  let docs =
    fold_words t
      (fun w acc ->
        incr walked;
        if pick w then Fileset.union acc (word_docs ?within ?under t w) else acc)
      Fileset.empty
  in
  (finish ?within t docs, !walked)

let attributes t =
  Cas.fold_terms t.cas
    (fun term acc -> match term with Cas.Attr (a, v) -> (a, v) :: acc | Cas.Word _ -> acc)
    []
  |> List.sort compare

let candidate_docs_approx ?within t ~word ~errors =
  let pattern = key t word in
  fst (sweep_words ?within t (Agrep.word_matches ~pattern ~errors))

(* Snapshot of the by_dir builder: cached between mutations, so repeated
   scope computations over a settled tree cost a hashtable lookup. *)
let doc_ids_under t dir =
  match Hashtbl.find_opt t.by_dir dir with
  | Some b -> Fileset.Builder.snapshot b
  | None -> Fileset.empty

(* Measured partition cardinalities of the lookup (scoped by [?under]) plus
   the cold provider's. *)
let term_cost ?under t w =
  let w = key t w in
  Cas.word_cost ?under t.cas w + cold_cost t (Cas.word_key w)

let attr_cost ?under t key value =
  let key = String.lowercase_ascii key and value = String.lowercase_ascii value in
  Cas.attr_cost ?under t.cas key value + cold_cost t (Cas.attr_key key value)

let rebuild t reader =
  t.lazy_ops <- 0;
  Fileset.Builder.clear t.drift;
  (* The rebuild reads every live document, so afterwards the resident
     postings cover everything the cold segments did (for live documents);
     dropping the provider here is what ultimately retires segment files. *)
  t.cold <- None;
  Cas.reset t.cas;
  for id = 0 to t.next_id - 1 do
    if t.docs.(id).alive then
      match reader id with
      | Some content -> index_content t id t.docs.(id).path content
      | None ->
          (* The document vanished from under us; treat as removed. *)
          Hashtbl.remove t.by_path t.docs.(id).path;
          t.docs.(id).alive <- false;
          dir_withdraw t t.docs.(id).path id;
          Cas.note_remove t.cas id
  done

let cas_stats t = Cas.stats ~universe:t.next_id t.cas

let index_bytes t =
  let word = Sys.int_size / 8 + 1 in
  let dir_bytes =
    Hashtbl.fold
      (fun dir b acc ->
        acc + String.length dir + (2 * word)
        + Fileset.byte_size (Fileset.Builder.snapshot b))
      t.by_dir 0
  in
  let docs_bytes =
    let acc = ref 0 in
    for id = 0 to t.next_id - 1 do
      acc := !acc + (2 * word) + String.length t.docs.(id).path
    done;
    !acc
  in
  dir_bytes + docs_bytes + (cas_stats t).Cas.bytes

let stale_ratio t =
  let live = doc_count t in
  if live + t.lazy_ops = 0 then 0.0
  else float_of_int t.lazy_ops /. float_of_int (live + t.lazy_ops)
