(* Combined content-and-structure index.

   One posting array per term: the ids of the documents that posted it,
   strictly increasing at all times, as Glimpse keeps one posting list per
   word.  Word terms are keyed by the bare (stemmed) word, so posting a
   token costs one hash lookup and, for a new document, an append: a new
   document's id is the largest yet.  A re-posted id is inserted in place,
   or skipped when the array already holds it.  The structure half of a
   path-scoped lookup ({/path} AND term) is the caller's: {!Index}
   intersects the answer with the scope's live documents, which it keeps
   per directory anyway.

   Laziness contract (Glimpse's): arrays are supersets of the truth.
   Removing a document does not erase its postings (the [alive] set is
   intersected in), and rewriting one in place adds its new words without
   dropping its old ones; the index lists such documents as unvouched, and
   verification cleans those candidates.  {!drop_docs} (on rebuild)
   reclaims the postings of dead and re-posted documents in place.
   Single-domain: lookups fill cached snapshots without synchronisation. *)

module Fileset = Hac_bitset.Fileset

(* A term's posting array: [v.(0) < ... < v.(len - 1)], with the set it
   snapshots to cached until the next change. *)
type entry = { mutable v : int array; mutable len : int; mutable snap : Fileset.t option }

type t = {
  words : (string, entry) Hashtbl.t; (* bare (stemmed) word -> postings *)
  attrs : (string, entry) Hashtbl.t; (* [attr_key] -> postings *)
  alive : Fileset.Builder.t;
}

let create () =
  { words = Hashtbl.create 4096; attrs = Hashtbl.create 64; alive = Fileset.Builder.create () }

let note_doc t id = Fileset.Builder.add t.alive id

let note_remove t id = Fileset.Builder.remove t.alive id

let alive t = Fileset.Builder.snapshot t.alive

(* -- posting arrays --------------------------------------------------------- *)

(* The slot of [id] in [e], or [-(insertion point) - 1] when absent. *)
let find e id =
  let v = e.v in
  let rec go lo hi =
    if lo >= hi then -lo - 1
    else
      let mid = (lo + hi) lsr 1 in
      let x = Array.unsafe_get v mid in
      if x = id then mid else if x < id then go (mid + 1) hi else go lo mid
  in
  go 0 e.len

let holds e id = find e id >= 0

(* Append a new document's id; insert a re-posted one at its slot, or skip
   it when already there.  Consecutive tokens of one document post the
   same id back to back, which the last-slot test skips. *)
let push e id =
  let n = e.len in
  let last = if n = 0 then -1 else Array.unsafe_get e.v (n - 1) in
  let at =
    if last < id then n
    else if last = id then -1
    else
      let i = find e id in
      if i >= 0 then -1 else -i - 1
  in
  if at >= 0 then begin
    if n = Array.length e.v then begin
      let v = Array.make (2 * n) 0 in
      Array.blit e.v 0 v 0 n;
      e.v <- v
    end;
    if at < n then Array.blit e.v at e.v (at + 1) (n - at);
    Array.unsafe_set e.v at id;
    e.len <- n + 1;
    e.snap <- None
  end

let snapshot e =
  match e.snap with
  | Some s -> s
  | None ->
      let s =
        Fileset.of_increasing_iter (fun f ->
            for i = 0 to e.len - 1 do
              f (Array.unsafe_get e.v i)
            done)
      in
      e.snap <- Some s;
      s

let post tbl key id =
  match Hashtbl.find_opt tbl key with
  | Some e -> push e id
  | None -> Hashtbl.add tbl key { v = [| id; 0; 0; 0 |]; len = 1; snap = None }

let post_word t id w = post t.words w id

let attr_key k v = "a:" ^ k ^ "\x00" ^ v

let post_attr t id k v = post t.attrs (attr_key k v) id

(* -- term keys ---------------------------------------------------------------- *)

let word_key w = "w:" ^ w

type term = Word of string | Attr of string * string

let decode_key key =
  let n = String.length key in
  if n < 2 || key.[1] <> ':' then None
  else
    let body = String.sub key 2 (n - 2) in
    match key.[0] with
    | 'w' -> Some (Word body)
    | 'a' -> (
        match String.index_opt body '\x00' with
        | Some i -> Some (Attr (String.sub body 0 i, String.sub body (i + 1) (n - 3 - i)))
        | None -> None)
    | _ -> None

let fold_words t f acc = Hashtbl.fold (fun w _ acc -> f w acc) t.words acc

let fold_terms t f acc =
  let acc = Hashtbl.fold (fun w _ acc -> f (Word w) acc) t.words acc in
  Hashtbl.fold
    (fun key _ acc -> match decode_key key with Some term -> f term acc | None -> acc)
    t.attrs acc

let term_count t = Hashtbl.length t.words + Hashtbl.length t.attrs

let has_word t w = Hashtbl.mem t.words w

let word_postings t w =
  match Hashtbl.find_opt t.words w with Some e -> Array.sub e.v 0 e.len | None -> [||]

(* Every term's live posting set (dead documents masked) — what a segment
   dump persists.  Forces snapshots, like stats. *)
let iter_terms t f =
  let live = alive t in
  let emit key e =
    let s = Fileset.inter (snapshot e) live in
    if Fileset.cardinal s > 0 then f key s
  in
  Hashtbl.iter (fun w e -> emit (word_key w) e) t.words;
  Hashtbl.iter emit t.attrs

(* -- compaction --------------------------------------------------------------

   One in-place pass over every posting array drops the masked documents'
   ids, and with them every term left empty, so the term tables hold
   exactly the vocabulary of the documents kept.  The mask is probed once
   per posting: an array read, not a set lookup.  Dropping ids keeps an
   array's order. *)

let drop e mask =
  let n = Bytes.length mask in
  let v = e.v in
  let j = ref 0 in
  for i = 0 to e.len - 1 do
    let id = Array.unsafe_get v i in
    if id >= n || Bytes.unsafe_get mask id = '\000' then begin
      Array.unsafe_set v !j id;
      incr j
    end
  done;
  if !j < e.len then begin
    e.len <- !j;
    e.snap <- None
  end

let drop_docs t mask =
  (* Plain walks, then the removals: emptied terms are few, and rewriting
     every bucket in place would cost a write barrier each. *)
  let sweep tbl =
    let empty = ref [] in
    Hashtbl.iter
      (fun key e ->
        drop e mask;
        if e.len = 0 then empty := key :: !empty)
      tbl;
    List.iter (Hashtbl.remove tbl) !empty
  in
  sweep t.words;
  sweep t.attrs

(* -- lookups -------------------------------------------------------------------

   Every posting of a term invalidates its cached snapshot, and rebuilding
   it costs the whole array; a [within] smaller than the array (a settle's
   delta, or an AND chain's running result) is answered by probing its
   members in the array instead.  A still-valid snapshot is always used:
   intersecting it costs nothing, and AND chains over a settled index keep
   hitting it.  [live] (default: every live document) bounds the answer. *)

let candidates ?within ?live t tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> Fileset.empty
  | Some e -> (
      match within with
      | Some w when Option.is_none e.snap && Fileset.cardinal w < e.len ->
          let live_mem =
            match live with Some s -> Fileset.mem s | None -> Fileset.Builder.mem t.alive
          in
          Fileset.filter (fun id -> live_mem id && holds e id) w
      | _ -> Fileset.inter (snapshot e) (match live with Some s -> s | None -> alive t))

let word_candidates ?within ?live t w = candidates ?within ?live t t.words w

let attr_candidates ?within ?live t k v = candidates ?within ?live t t.attrs (attr_key k v)

(* The term's array length, or — for a [live] set no larger than it — the
   exact count of [live]'s members it holds, probed by binary search.
   Neither walks the array. *)
let cost ?live tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> 0
  | Some e -> (
      match live with
      | Some s when Fileset.cardinal s <= e.len ->
          Fileset.fold (fun id n -> if holds e id then n + 1 else n) s 0
      | Some _ | None -> e.len)

let word_cost ?live t w = cost ?live t.words w

let attr_cost ?live t k v = cost ?live t.attrs (attr_key k v)

(* -- accounting -------------------------------------------------------------- *)

type stats = {
  terms : int;
  posting_arrays : int;
  postings : int;
  bytes : int;
  raw_bytes : int;
  uncompressed_bytes : int;
  arrays : int;
  bitmaps : int;
  run_containers : int;
}

(* Forces every term's snapshot — an explicit stats-time cost, not paid on
   the indexing or query path. *)
let stats ?(universe = 0) (t : t) =
  let posting_arrays = ref 0 and postings = ref 0 and raw = ref 0 in
  let arrays = ref 0 and bitmaps = ref 0 and runs = ref 0 and bytes = ref 0 in
  let account _ e =
    incr posting_arrays;
    postings := !postings + e.len;
    raw := !raw + (Array.length e.v * 8);
    let st = Fileset.container_stats (snapshot e) in
    arrays := !arrays + st.arrays;
    bitmaps := !bitmaps + st.bitmaps;
    runs := !runs + st.run_containers;
    bytes := !bytes + st.bytes
  in
  Hashtbl.iter account t.words;
  Hashtbl.iter account t.attrs;
  {
    terms = term_count t;
    posting_arrays = !posting_arrays;
    postings = !postings;
    bytes = !bytes;
    raw_bytes = !raw;
    uncompressed_bytes = term_count t * ((universe + 7) / 8);
    arrays = !arrays;
    bitmaps = !bitmaps;
    run_containers = !runs;
  }
