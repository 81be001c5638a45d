(* The storage-tier façade an instance holds: content block store behind
   the byte-bounded LRU cache, the live postings-segment set with its
   manifest, and the size-tiered segment compactor.

   The tier is an accelerator, never an authority: every read has a sound
   fallback (blocks → the file-system copy; a damaged segment slice → the
   live universe), so torn or rotted store files degrade to slower reads
   and fatter candidate sets, not to wrong answers.  The manifest
   ([segs.tbl]) is the tier's commit record: a segment is live iff the
   manifest names it, and the manifest is only published (scratch, fsync,
   rename, fsync) after the segments it names are durable.

   Lineage guards the document-id space: segment postings are id lists,
   and ids are only meaningful against the document table they were
   written with.  A full (oracle) mount re-assigns ids, so it starts a
   new lineage; segments of another lineage are never consulted and are
   swept by the compactor. *)

module Fs = Hac_vfs.Fs
module Metrics = Hac_obs.Metrics
module Fileset = Hac_bitset.Fileset

type instruments = {
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  cache_evictions : Metrics.counter;
  cache_bytes : Metrics.gauge;
  cache_peak : Metrics.gauge;
  block_puts : Metrics.counter;
  block_fallbacks : Metrics.counter;  (** Block reads that fell back to the fs copy. *)
  seg_loads : Metrics.counter;
  seg_damaged : Metrics.counter;
  segments : Metrics.gauge;
  compactor_merges : Metrics.counter;
  mount_reconstruct_ms : Metrics.gauge;
  mount_fallbacks : Metrics.counter;
}

let instruments_of metrics =
  {
    cache_hits = Metrics.counter metrics "store.cache.hits";
    cache_misses = Metrics.counter metrics "store.cache.misses";
    cache_evictions = Metrics.counter metrics "store.cache.evictions";
    cache_bytes = Metrics.gauge metrics "store.cache.bytes";
    cache_peak = Metrics.gauge metrics "store.cache.peak_bytes";
    block_puts = Metrics.counter metrics "store.blocks.puts";
    block_fallbacks = Metrics.counter metrics "store.blocks.fallbacks";
    seg_loads = Metrics.counter metrics "store.seg.loads";
    seg_damaged = Metrics.counter metrics "store.seg.damaged";
    segments = Metrics.gauge metrics "store.segments";
    compactor_merges = Metrics.counter metrics "store.compactor.merges";
    mount_reconstruct_ms = Metrics.gauge metrics "store.mount.reconstruct_ms";
    mount_fallbacks = Metrics.counter metrics "store.mount.fallbacks";
  }

type t = {
  fs : Fs.t;
  cache : Cache.t;
  doc_blocks : (int, string) Hashtbl.t;  (* doc id -> block key *)
  mutable segs : Segs.t list;  (* live postings segments, oldest first *)
  mutable lineage : int;
  mutable serial : int;
  mutable evictions_seen : int;  (* cache evictions already counted *)
  i : instruments;
}

let default_budget = 4 * 1024 * 1024

let publish t =
  Metrics.set t.i.cache_bytes (float_of_int (Cache.bytes t.cache));
  Metrics.set t.i.cache_peak (float_of_int (Cache.peak_bytes t.cache));
  Metrics.set t.i.segments (float_of_int (List.length t.segs));
  let ev = Cache.evictions t.cache in
  if ev > t.evictions_seen then begin
    Metrics.incr ~by:(ev - t.evictions_seen) t.i.cache_evictions;
    t.evictions_seen <- ev
  end

let cache t = t.cache
let lineage t = t.lineage
let segment_count t = List.length t.segs
let has_segments t = t.segs <> []
let instr t = t.i

(* -- the manifest ---------------------------------------------------------- *)

let render_manifest t =
  let b = Buffer.create 256 in
  Printf.bprintf b "lineage %d\nserial %d\n" t.lineage t.serial;
  List.iter (fun s -> Printf.bprintf b "seg %s\n" (Hac_vfs.Vpath.basename (Segs.path s))) t.segs;
  Seal.seal_blob (Buffer.contents b)

let write_manifest t =
  let tmp = Layout.tmp_path "segs.tbl" in
  Fs.mkdir_p t.fs Layout.root;
  Fs.write_file t.fs tmp (render_manifest t);
  Fs.fsync t.fs tmp;
  Fs.rename t.fs ~src:tmp ~dst:Layout.manifest_path;
  Fs.fsync t.fs Layout.manifest_path

let read_manifest fs : (int * int * string list) option =
  match Fs.read_file fs Layout.manifest_path with
  | exception Hac_vfs.Errno.Error _ -> None
  | data -> (
      match Seal.unseal_file data with
      | None -> None
      | Some text ->
          let lineage = ref None and serial = ref None and names = ref [] in
          let ok = ref true in
          List.iter
            (fun line ->
              if line <> "" then
                match String.split_on_char ' ' line with
                | [ "lineage"; n ] -> lineage := int_of_string_opt n
                | [ "serial"; n ] -> serial := int_of_string_opt n
                | [ "seg"; name ] -> names := name :: !names
                | _ -> ok := false)
            (String.split_on_char '\n' text);
          match (!ok, !lineage, !serial) with
          | true, Some l, Some s -> Some (l, s, List.rev !names)
          | _ -> None)

(* -- construction ---------------------------------------------------------- *)

(* A fresh tier for a full (oracle-indexed) instance: ids were just
   re-assigned, so open a lineage strictly newer than anything on disk. *)
let create ?(budget = default_budget) ~metrics fs =
  let prev = match read_manifest fs with Some (l, _, _) -> l | None -> 0 in
  {
    fs;
    cache = Cache.create ~budget;
    doc_blocks = Hashtbl.create 256;
    segs = [];
    lineage = prev + 1;
    serial = 0;
    evictions_seen = 0;
    i = instruments_of metrics;
  }

(* Re-attach the tier persisted by a previous life (the fast-mount path).
   Fails — sending the caller to the full oracle — when the manifest or
   any live segment's term directory is unreadable, or when the manifest's
   lineage does not match the document table's. *)
let attach ?(budget = default_budget) ~metrics ~lineage fs : (t, string) result =
  match read_manifest fs with
  | None -> Error "store manifest missing or damaged"
  | Some (l, serial, names) ->
      if l <> lineage then Error "store manifest lineage mismatch"
      else
        let rec load acc = function
          | [] -> Ok (List.rev acc)
          | name :: rest -> (
              match Segs.load fs (Layout.segment_path name) with
              | Ok s -> load (s :: acc) rest
              | Error e -> Error e)
        in
        (match load [] names with
        | Error e -> Error e
        | Ok segs ->
            let t =
              {
                fs;
                cache = Cache.create ~budget;
                doc_blocks = Hashtbl.create 256;
                segs;
                lineage;
                serial;
                evictions_seen = 0;
                i = instruments_of metrics;
              }
            in
            publish t;
            Ok t)

(* -- document blocks ------------------------------------------------------- *)

let put_doc t id content =
  let key = Blocks.put t.fs content in
  Hashtbl.replace t.doc_blocks id key;
  Metrics.incr t.i.block_puts;
  (* Freshly indexed content is the likeliest next verification read. *)
  Cache.insert t.cache key content;
  publish t

let forget_doc t id = Hashtbl.remove t.doc_blocks id
let doc_key t id = Hashtbl.find_opt t.doc_blocks id
let adopt_doc_key t id key = Hashtbl.replace t.doc_blocks id key

let read_doc t id =
  match Hashtbl.find_opt t.doc_blocks id with
  | None -> None
  | Some key -> (
      match Cache.find t.cache key with
      | Some content ->
          Metrics.incr t.i.cache_hits;
          publish t;
          Some content
      | None ->
          Metrics.incr t.i.cache_misses;
          (match Blocks.get t.fs key with
          | Some content ->
              Cache.insert t.cache key content;
              publish t;
              Some content
          | None ->
              (* Torn, rotted or swept block: the fs copy is authoritative. *)
              Metrics.incr t.i.block_fallbacks;
              publish t;
              None))

(* -- cold postings --------------------------------------------------------- *)

(* Union of the term's slices across every live segment; a damaged slice
   contributes the whole live [universe] — a sound superset the caller's
   verification pass trims back down. *)
let cold_lookup t key ~universe =
  List.fold_left
    (fun acc seg ->
      match Segs.term seg key ~on_load:(fun () -> Metrics.incr t.i.seg_loads) with
      | Segs.Absent -> acc
      | Segs.Hit s -> Fileset.union acc s
      | Segs.Damaged ->
          Metrics.incr t.i.seg_damaged;
          Fileset.union acc (universe ()))
    Fileset.empty t.segs

let cold_cost t key =
  List.fold_left (fun acc seg -> acc + Segs.cost seg key) 0 t.segs

(* Word terms present in any live segment's directory (for approximate-
   match vocabulary expansion). *)
let cold_words t =
  let words = Hashtbl.create 256 in
  List.iter
    (fun seg ->
      Segs.iter_terms seg (fun key _card ->
          match Hac_index.Cas.decode_key key with
          | Some (Hac_index.Cas.Word w) -> Hashtbl.replace words w ()
          | Some (Hac_index.Cas.Attr _) | None -> ()))
    t.segs;
  Hashtbl.fold (fun w () acc -> w :: acc) words []

(* What a sweep of [cold_words] would walk, bounded from above without
   building it: every segment's directory size. *)
let cold_term_count t = List.fold_left (fun acc seg -> acc + Segs.term_count seg) 0 t.segs

(* -- segment dump and compaction ------------------------------------------- *)

(* Persist one postings dump as a new immutable segment and commit it to
   the manifest.  [replace] supersedes every previously live segment (a
   full dump from a fully-resident index); otherwise the segment joins
   the tier (a delta dump from a cold-backed life).  Old files are left
   for the compactor's sweep — the manifest alone decides liveness. *)
let dump_segment t ~replace entries =
  let name = Layout.segment_name ~lineage:t.lineage ~serial:t.serial in
  t.serial <- t.serial + 1;
  Segs.write t.fs (Layout.segment_path name) entries;
  match Segs.load t.fs (Layout.segment_path name) with
  | Error e -> invalid_arg ("segment readback failed: " ^ e)
  | Ok seg ->
      t.segs <- (if replace then [ seg ] else t.segs @ [ seg ]);
      write_manifest t;
      publish t;
      name

(* Size-tiered merge: when more than one segment is live, union every
   term across all of them into a single replacement segment.  Commit
   order — merged segment durable, then the manifest rename — makes every
   crash point recoverable: the old manifest still names the old segments
   until the rename lands.  A damaged slice aborts the merge (the tier
   keeps serving; the damaged term keeps falling back to the universe). *)
let merge t =
  if List.length t.segs < 2 then false
  else begin
    let acc = Hashtbl.create 1024 in
    let damaged = ref false in
    List.iter
      (fun seg ->
        Segs.iter_terms seg (fun key _card ->
            if not (Hashtbl.mem acc key) then
              match
                List.fold_left
                  (fun u s ->
                    match u with
                    | None -> None
                    | Some u -> (
                        match
                          Segs.term s key ~on_load:(fun () -> Metrics.incr t.i.seg_loads)
                        with
                        | Segs.Absent -> Some u
                        | Segs.Hit ids -> Some (Fileset.union u ids)
                        | Segs.Damaged -> None))
                  (Some Fileset.empty) t.segs
              with
              | Some u -> Hashtbl.replace acc key u
              | None -> damaged := true))
      t.segs;
    if !damaged then begin
      Metrics.incr t.i.seg_damaged;
      false
    end
    else begin
      let entries =
        Hashtbl.fold (fun key ids l -> (key, Fileset.elements ids) :: l) acc []
        |> List.sort compare
      in
      let old = List.map Segs.path t.segs in
      ignore (dump_segment t ~replace:true entries);
      List.iter
        (fun p -> try Fs.unlink t.fs p with Hac_vfs.Errno.Error _ -> ())
        old;
      Metrics.incr t.i.compactor_merges;
      publish t;
      true
    end
  end

(* -- the document table ----------------------------------------------------

   [docs.tbl] is the fast mount's directory-reconstruction image for
   documents: every live doc's id, block key and path, plus the id
   allocation frontier, stamped with the checkpoint epoch it was written
   beside.  A mount only believes it when that stamp matches the chain's
   newest readable checkpoint — a crash between the table's publish and
   the checkpoint's commit rename leaves a newer table than checkpoint
   (or vice versa), and the mismatch sends the mount to the full oracle. *)

type docs = {
  epoch : int;
  next : int;
  lineage : int;
  rows : (int * string option * string) list;  (* id, block key, path *)
}

let docs_tbl_path = Layout.root ^ "/docs.tbl"

let write_docs (t : t) ~epoch ~next rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "epoch %d\nnext %d\nlineage %d\n" epoch next t.lineage;
  List.iter
    (fun (id, key, path) ->
      Printf.bprintf b "%d %s %s\n" id
        (match key with Some k -> k | None -> "-")
        path)
    rows;
  let tmp = Layout.tmp_path "docs.tbl" in
  Fs.mkdir_p t.fs Layout.root;
  Fs.write_file t.fs tmp (Seal.seal_blob (Buffer.contents b));
  Fs.fsync t.fs tmp;
  Fs.rename t.fs ~src:tmp ~dst:docs_tbl_path;
  Fs.fsync t.fs docs_tbl_path

let read_docs fs : docs option =
  match Fs.read_file fs docs_tbl_path with
  | exception Hac_vfs.Errno.Error _ -> None
  | data -> (
      match Seal.unseal_file data with
      | None -> None
      | Some text -> (
          let epoch = ref None and next = ref None and lineage = ref None in
          let rows = ref [] in
          let ok = ref true in
          List.iter
            (fun line ->
              if line <> "" then
                match String.split_on_char ' ' line with
                | [ "epoch"; n ] -> epoch := int_of_string_opt n
                | [ "next"; n ] -> next := int_of_string_opt n
                | [ "lineage"; n ] -> lineage := int_of_string_opt n
                | id :: key :: (_ :: _ as path) -> (
                    (* Path last, rest-concat: paths may contain spaces. *)
                    match int_of_string_opt id with
                    | Some id when id >= 0 ->
                        let key = if key = "-" then None else Some key in
                        rows := (id, key, String.concat " " path) :: !rows
                    | _ -> ok := false)
                | _ -> ok := false)
            (String.split_on_char '\n' text);
          match (!ok, !epoch, !next, !lineage) with
          | true, Some epoch, Some next, Some lineage ->
              Some { epoch; next; lineage; rows = List.rev !rows }
          | _ -> None))

(* -- sweep ----------------------------------------------------------------- *)

(* Garbage left by crashes and supersession: scratch files, segment files
   the manifest no longer names (or of a dead lineage), and content
   blocks no live document references.  Returns files removed. *)
let sweep t =
  let removed = ref 0 in
  let rm path =
    match Fs.unlink t.fs path with
    | () -> incr removed
    | exception Hac_vfs.Errno.Error _ -> ()
  in
  if Fs.is_dir t.fs Layout.root then
    List.iter
      (fun name ->
        if String.length name >= 4 && String.sub name 0 4 = "tmp-" then
          rm (Layout.root ^ "/" ^ name))
      (Fs.readdir t.fs Layout.root);
  if Fs.is_dir t.fs Layout.segs_root then begin
    let live = List.map (fun s -> Hac_vfs.Vpath.basename (Segs.path s)) t.segs in
    List.iter
      (fun name -> if not (List.mem name live) then rm (Layout.segment_path name))
      (Fs.readdir t.fs Layout.segs_root)
  end;
  let live_keys = Hashtbl.create 256 in
  Hashtbl.iter (fun _id key -> Hashtbl.replace live_keys key ()) t.doc_blocks;
  removed := !removed + Blocks.sweep t.fs ~live:(fun key -> Hashtbl.mem live_keys key);
  publish t;
  !removed
