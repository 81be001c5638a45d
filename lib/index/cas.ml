(* Combined content-and-structure index.

   Per-term postings are partitioned along a path dimension: every document
   carries a {e label} — the depth-<=2 prefix of its directory — and each
   term keeps one posting list per label.  A path-scoped term lookup
   ({/path} AND term) unions only the partitions whose label can contain
   documents under the scope, so scoped candidate generation touches the
   relevant slice of the posting list instead of expanding everything and
   filtering against a subtree set afterwards.

   Laziness contract (Glimpse's): partitions are supersets of the truth.
   Removing a document does not erase its postings (the [alive] set is
   intersected in), and renaming a document does not move its old postings
   between partitions — the document joins the [relabeled] set, which is
   unioned into every scoped answer, and into every answer bounded by a
   small [within] (read off its members' own labels' partitions), so both
   stay sound supersets.  A relabeled document is a candidate for every
   scoped or bounded term, so its
   postings cannot vouch for it: the index lists it (with every document
   rewritten in place) as unvouched, and verification cleans those
   candidates.  Every other live candidate carries a posting of the term
   from its current content.  {!drop_docs} (on rebuild) reclaims the
   postings of dead and re-posted documents in place.  Single-domain:
   lookups fill cached snapshots without synchronisation. *)

module Fileset = Hac_bitset.Fileset

(* Growable posting vector: doc ids appended in arrival order.  Postings of
   a new document arrive increasing; a re-posted document may append out
   of order or duplicate, which only costs a sort_uniq at the next
   snapshot (or at the next {!drop_docs}, which restores the order). *)
type vec = {
  mutable v : int array;
  mutable len : int;
  mutable sorted : bool;
  mutable snap : Fileset.t option;
}

let vec_create () = { v = Array.make 8 0; len = 0; sorted = true; snap = None }

let vec_push p id =
  (* Consecutive tokens of one document post the same id back to back. *)
  if p.len > 0 && p.v.(p.len - 1) = id then ()
  else begin
    if p.len = Array.length p.v then begin
      let v = Array.make (2 * p.len) 0 in
      Array.blit p.v 0 v 0 p.len;
      p.v <- v
    end;
    if p.len > 0 && p.v.(p.len - 1) > id then p.sorted <- false;
    p.v.(p.len) <- id;
    p.len <- p.len + 1;
    p.snap <- None
  end

let vec_snapshot p =
  match p.snap with
  | Some s -> s
  | None ->
      let s =
        if p.sorted then
          Fileset.of_increasing_iter (fun f ->
              let last = ref (-1) in
              for i = 0 to p.len - 1 do
                if p.v.(i) <> !last then begin
                  f p.v.(i);
                  last := p.v.(i)
                end
              done)
        else begin
          let a = Array.sub p.v 0 p.len in
          Array.sort compare a;
          Fileset.of_increasing_iter (fun f ->
              let last = ref (-1) in
              Array.iter
                (fun id ->
                  if id <> !last then begin
                    f id;
                    last := id
                  end)
                a)
        end
      in
      p.snap <- Some s;
      s

(* Estimated cardinality without forcing a snapshot: the appended length is
   an upper bound (duplicates only arise from re-posted documents). *)
let vec_card p = match p.snap with Some s -> Fileset.cardinal s | None -> p.len

type entry = {
  parts : (int, vec) Hashtbl.t; (* label id -> postings *)
  mutable all : Fileset.t option; (* cached union of all partitions *)
}

type t = {
  labels : (string, int) Hashtbl.t;
  mutable label_names : string array;
  mutable label_count : int;
  mutable doc_label : int array; (* doc id -> label id, -1 when unknown *)
  terms : (string, entry) Hashtbl.t;
  alive : Fileset.Builder.t;
  relabeled : Fileset.Builder.t;
}

let create () =
  {
    labels = Hashtbl.create 64;
    label_names = Array.make 16 "";
    label_count = 0;
    doc_label = Array.make 64 (-1);
    terms = Hashtbl.create 4096;
    alive = Fileset.Builder.create ();
    relabeled = Fileset.Builder.create ();
  }

(* -- labels ---------------------------------------------------------------- *)

let label_depth = 2

(* Depth-<=2 prefix of the document's directory: "/a/b/c/f.txt" -> "/a/b",
   "/a/f.txt" -> "/a", "/f.txt" -> "/". *)
let label_of_path path =
  let n = String.length path in
  (* The label is the directory part truncated at the [label_depth]-th slash;
     the last component is the file name and never part of the label. *)
  let dir_end =
    match String.rindex_opt path '/' with Some 0 -> 1 | Some i -> i | None -> n
  in
  let cut = ref dir_end in
  let slashes = ref 0 in
  (try
     for i = 1 to dir_end - 1 do
       if path.[i] = '/' then begin
         incr slashes;
         if !slashes = label_depth then begin
           cut := i;
           raise Exit
         end
       end
     done
   with Exit -> ());
  String.sub path 0 (max 1 !cut)

let label_id t name =
  match Hashtbl.find_opt t.labels name with
  | Some id -> id
  | None ->
      let id = t.label_count in
      if id >= Array.length t.label_names then begin
        let names = Array.make (2 * Array.length t.label_names) "" in
        Array.blit t.label_names 0 names 0 id;
        t.label_names <- names
      end;
      t.label_names.(id) <- name;
      t.label_count <- id + 1;
      Hashtbl.replace t.labels name id;
      id

let ensure_doc t id =
  let n = Array.length t.doc_label in
  if id >= n then begin
    let a = Array.make (max (id + 1) (2 * n)) (-1) in
    Array.blit t.doc_label 0 a 0 n;
    t.doc_label <- a
  end

(* Record (or refresh) a document's label.  A label change — a rename across
   the partition dimension — parks the document in [relabeled]: its old
   postings stay where they are, and every scoped answer unions [relabeled]
   to keep the superset sound. *)
let note_doc t id ~path =
  ensure_doc t id;
  let lid = label_id t (label_of_path path) in
  let old = t.doc_label.(id) in
  if old >= 0 && old <> lid then Fileset.Builder.add t.relabeled id;
  t.doc_label.(id) <- lid;
  Fileset.Builder.add t.alive id

let note_remove t id =
  if id >= 0 && id < Array.length t.doc_label then Fileset.Builder.remove t.alive id

let alive t = Fileset.Builder.snapshot t.alive

let relabeled_count t = Fileset.Builder.cardinal t.relabeled

(* -- posting --------------------------------------------------------------- *)

let word_key w = "w:" ^ w

let attr_key k v = "a:" ^ k ^ "\x00" ^ v

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

let fold_terms t f acc =
  Hashtbl.fold
    (fun key _ acc -> match decode_key key with Some term -> f term acc | None -> acc)
    t.terms acc

let fold_words t f acc =
  Hashtbl.fold
    (fun key _ acc ->
      if String.starts_with ~prefix:"w:" key then f (String.sub key 2 (String.length key - 2)) acc
      else acc)
    t.terms acc

let term_count t = Hashtbl.length t.terms

let has_word t w = Hashtbl.mem t.terms (word_key w)

let post t key id =
  let e =
    match Hashtbl.find_opt t.terms key with
    | Some e -> e
    | None ->
        let e = { parts = Hashtbl.create 1; all = None } in
        Hashtbl.replace t.terms key e;
        e
  in
  let lid = if id < Array.length t.doc_label then t.doc_label.(id) else -1 in
  let lid = if lid < 0 then label_id t "/" else lid in
  let p =
    match Hashtbl.find_opt e.parts lid with
    | Some p -> p
    | None ->
        let p = vec_create () in
        Hashtbl.replace e.parts lid p;
        p
  in
  vec_push p id;
  e.all <- None

let post_word t id w = post t (word_key w) id

let post_attr t id k v = post t (attr_key k v) id

(* -- compaction --------------------------------------------------------------

   One in-place pass over every posting vector drops the masked documents'
   ids, and with them every partition and term left empty, so the term
   table holds exactly the vocabulary of the documents kept.  The mask is
   probed once per posting: an array read, not a set lookup.  Dropping ids
   keeps a vector's order, and the pass also drops an id repeating its
   predecessor and re-derives [sorted], so a vector that only grew out of
   order by re-posts snapshots without a sort again. *)

let vec_drop p mask =
  let n = Bytes.length mask in
  let v = p.v in
  let j = ref 0 and last = ref (-1) and sorted = ref true in
  for i = 0 to p.len - 1 do
    let id = Array.unsafe_get v i in
    if id <> !last && (id >= n || Bytes.unsafe_get mask id = '\000') then begin
      if id < !last then sorted := false;
      Array.unsafe_set v !j id;
      incr j;
      last := id
    end
  done;
  let changed = !j < p.len in
  if changed then begin
    p.len <- !j;
    p.sorted <- !sorted;
    p.snap <- None
  end;
  changed

let drop_docs t mask =
  (* Plain walks, then the removals: emptied partitions and terms are few,
     and rewriting every bucket in place would cost a write barrier each. *)
  let empty_terms = ref [] in
  Hashtbl.iter
    (fun key e ->
      let empty_parts = ref [] in
      Hashtbl.iter
        (fun lid p ->
          if vec_drop p mask then begin
            e.all <- None;
            if p.len = 0 then empty_parts := lid :: !empty_parts
          end)
        e.parts;
      List.iter (Hashtbl.remove e.parts) !empty_parts;
      if Hashtbl.length e.parts = 0 then empty_terms := key :: !empty_terms)
    t.terms;
  List.iter (Hashtbl.remove t.terms) !empty_terms;
  (* A relabeled document's old postings are gone with the rest of its
     postings; re-posted, it sits under its current label only. *)
  Fileset.iter
    (fun id ->
      if id < Bytes.length mask && Bytes.get mask id <> '\000' then
        Fileset.Builder.remove t.relabeled id)
    (Fileset.Builder.snapshot t.relabeled)

(* -- scoped lookup ----------------------------------------------------------

   Which labels can hold documents under scope [P]?  A document under [P]
   has a directory extending [P], so its label (the depth-<=2 prefix of that
   directory) is determined by [P]'s own depth:

   - depth(P) >= 2: the label is exactly the depth-2 prefix of [P];
   - depth(P) = 1: any label equal to [P] or starting with [P ^ "/"];
   - P = "/": any label (callers should pass [?under:None] instead). *)

let path_depth p =
  if p = "/" then 0
  else begin
    let d = ref 0 in
    String.iter (fun c -> if c = '/' then incr d) p;
    !d
  end

let covered_labels t under =
  match path_depth under with
  | 0 -> None (* all labels *)
  | d when d >= label_depth -> (
      let lbl = label_of_path (under ^ "/x") in
      match Hashtbl.find_opt t.labels lbl with Some id -> Some [ id ] | None -> Some [])
  | _ ->
      let prefix = under ^ "/" in
      let ids =
        Hashtbl.fold
          (fun name id acc ->
            if name = under || String.starts_with ~prefix name then id :: acc else acc)
          t.labels []
      in
      Some ids

let union_all e =
  match e.all with
  | Some s -> s
  | None ->
      let s =
        Hashtbl.fold (fun _ p acc -> Fileset.union (vec_snapshot p) acc) e.parts
          Fileset.empty
      in
      e.all <- Some s;
      s

(* The members of [within] holding the term, read off their own labels'
   partitions.  A document posts under the label it has when posted, and
   keeps that label until a rename moves it across the partition
   dimension, which parks it in [relabeled]: so a member holding the term
   sits in its current label's partition or in [relabeled].  The union of
   [relabeled] is what keeps this sound off the delta path too — a
   document renamed without a re-post still has its postings under the
   old label. *)
let within_parts t e within =
  let relabeled = Fileset.Builder.cardinal t.relabeled > 0 in
  Fileset.filter
    (fun id ->
      Fileset.Builder.mem t.alive id
      && ((relabeled && Fileset.Builder.mem t.relabeled id)
         ||
         (* A live document always has a label: [note_doc] sets both. *)
         match Hashtbl.find_opt e.parts t.doc_label.(id) with
         | Some p -> Fileset.mem (vec_snapshot p) id
         | None -> false))
    within

(* Appended postings, duplicates included: an upper bound on the term's
   documents, read without forcing a snapshot. *)
let postings e = Hashtbl.fold (fun _ p acc -> acc + vec_card p) e.parts 0

(* Every posting appended since the last union invalidates [e.all], and
   re-unioning costs every partition's postings; a [within] smaller than
   that (a settle's delta, or an AND chain's running result) is answered
   from its own members' partitions instead.  A still-valid union is
   always used: intersecting it costs nothing, and AND chains over a
   settled index keep hitting it. *)
let candidates ?within ?under t key =
  match (Hashtbl.find_opt t.terms key, within) with
  | None, _ -> Fileset.empty
  | Some e, Some w when Option.is_none e.all && Fileset.cardinal w < postings e ->
      within_parts t e w
  | Some e, _ ->
      let raw =
        match under with
        | None -> union_all e
        | Some under -> (
            match covered_labels t under with
            | None -> union_all e
            | Some lids ->
                let part_union =
                  List.fold_left
                    (fun acc lid ->
                      match Hashtbl.find_opt e.parts lid with
                      | Some p -> Fileset.union (vec_snapshot p) acc
                      | None -> acc)
                    Fileset.empty lids
                in
                (* Renamed documents may sit in a partition the scope no
                   longer covers; the relabeled set restores the superset. *)
                if Fileset.Builder.cardinal t.relabeled = 0 then part_union
                else Fileset.union part_union (Fileset.Builder.snapshot t.relabeled))
      in
      Fileset.inter raw (Fileset.Builder.snapshot t.alive)

let word_candidates ?within ?under t w = candidates ?within ?under t (word_key w)

let attr_candidates ?within ?under t k v = candidates ?within ?under t (attr_key k v)

(* -- measured costs ----------------------------------------------------------

   Candidate-cardinality estimate from partition sizes alone: the sum of the
   covered partitions' cardinalities (plus the relabeled drift), no set
   materialization.  This reflects the documents the term actually touches,
   per scope. *)

let cost ?under t key =
  match Hashtbl.find_opt t.terms key with
  | None -> 0
  | Some e -> (
      match under with
      | None -> postings e
      | Some under -> (
          match covered_labels t under with
          | None -> postings e
          | Some lids ->
              List.fold_left
                (fun acc lid ->
                  match Hashtbl.find_opt e.parts lid with
                  | Some p -> acc + vec_card p
                  | None -> acc)
                (Fileset.Builder.cardinal t.relabeled)
                lids))

let word_cost ?under t w = cost ?under t (word_key w)

let attr_cost ?under t k v = cost ?under t (attr_key k v)

(* Every term's live posting set (all partitions unioned, dead documents
   masked) — what a segment dump persists.  Forces snapshots, like stats. *)
let iter_terms t f =
  let live = Fileset.Builder.snapshot t.alive in
  Hashtbl.iter
    (fun key e ->
      let s = Fileset.inter (union_all e) live in
      if Fileset.cardinal s > 0 then f key s)
    t.terms

(* -- accounting -------------------------------------------------------------- *)

type stats = {
  labels : int;
  terms : int;
  partitions : int;
  postings : int; (* appended postings, duplicates included *)
  bytes : int; (* compressed snapshot payload *)
  raw_bytes : int; (* posting-vector backing store *)
  uncompressed_bytes : int; (* one whole-universe bitmap per term *)
  arrays : int;
  bitmaps : int;
  run_containers : int;
  relabeled : int;
}

(* Forces every partition snapshot — an explicit stats-time cost, not paid on
   the indexing or query path. *)
let stats ?(universe = 0) (t : t) =
  let partitions = ref 0 and postings = ref 0 and raw = ref 0 in
  let arrays = ref 0 and bitmaps = ref 0 and runs = ref 0 and bytes = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      Hashtbl.iter
        (fun _ p ->
          incr partitions;
          postings := !postings + p.len;
          raw := !raw + (Array.length p.v * 8);
          let st = Fileset.container_stats (vec_snapshot p) in
          arrays := !arrays + st.arrays;
          bitmaps := !bitmaps + st.bitmaps;
          runs := !runs + st.run_containers;
          bytes := !bytes + st.bytes)
        e.parts)
    t.terms;
  let per_term_bitmap = (universe + 7) / 8 in
  {
    labels = t.label_count;
    terms = Hashtbl.length t.terms;
    partitions = !partitions;
    postings = !postings;
    bytes = !bytes;
    raw_bytes = !raw;
    uncompressed_bytes = Hashtbl.length t.terms * per_term_bitmap;
    arrays = !arrays;
    bitmaps = !bitmaps;
    run_containers = !runs;
    relabeled = Fileset.Builder.cardinal t.relabeled;
  }
