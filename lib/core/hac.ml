module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Event = Hac_vfs.Event
module Index = Hac_index.Index
module Search = Hac_index.Search
module Ast = Hac_query.Ast
module Parser = Hac_query.Parser
module Depgraph = Hac_depgraph.Depgraph
module Namespace = Hac_remote.Namespace
module Mount_table = Hac_remote.Mount_table
module Fileset = Hac_bitset.Fileset

type t = Ctx.t

exception Hac_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Hac_error s)) fmt

let fs (ctx : Ctx.t) = ctx.fs

let index (ctx : Ctx.t) = ctx.index

(* -- event interception ---------------------------------------------------

   Everything HAC knows about user activity arrives here.  [maintenance]
   suppresses handling of HAC's own link surgery. *)

let semdir_of_parent (ctx : Ctx.t) path = Ctx.semdir_of_path ctx (Vpath.dirname path)

(* The epoch of the segment this instance appends to, resolved lazily from
   the on-disk chain (a fresh tree starts at 0 = dirs.log; a tree carrying
   checkpoints starts past the newest one). *)
let ensure_epoch (ctx : Ctx.t) =
  if ctx.journal_epoch < 0 then ctx.journal_epoch <- Journal.current_epoch ctx.fs;
  ctx.journal_epoch

let journal_path (ctx : Ctx.t) = Journal.segment_path (ensure_epoch ctx)

(* All durable directory-journal records funnel through here so appends are
   accounted once, next to the write.  Under [`Always] durability each
   append is flushed to the simulated disk immediately; under [`Batch] the
   settle's completion barrier flushes the batch. *)
let journal_append (ctx : Ctx.t) body =
  Hac_obs.Metrics.incr ctx.instr.Instr.journal_appends;
  Ctx.with_maintenance ctx (fun () ->
      let path = journal_path ctx in
      Fs.append_file ctx.fs path (Journal.seal body ^ "\n");
      if ctx.durability = `Always then Fs.fsync ctx.fs path)

(* Every dirtying reaches the index, which stops vouching for the path's
   postings: a rebuild between two writes re-reads the body and vouches
   again, even for a path that stays dirty.  The journal records only the
   first transition since the last settle ([F <path>]), so recovery knows
   the exact set of paths whose index entry may be stale: a fast mount
   re-reads only these instead of rescanning the whole tree.  A settle
   empties the set, so each epoch carries O(changed paths) F records. *)
let mark_dirty (ctx : Ctx.t) path =
  let first = not (Hashtbl.mem ctx.dirty path) in
  Ctx.mark_dirty ctx path;
  if first then journal_append ctx ("F " ^ path)

(* Settle everything now: data consistency, then scope consistency.  The
   reindex delta drives an incremental re-evaluation; structural events
   (renames, link edits — anything that set [needs_full_sync]) make
   [sync_delta] fall back to a full pass. *)
let settle ?durability (ctx : Ctx.t) =
  (* The knob is sticky: a settle that picks a durability mode sets it for
     every subsequent journal append too. *)
  (match durability with Some d -> ctx.durability <- d | None -> ());
  Hac_obs.Trace.with_span ctx.instr.Instr.tracer ~name:"hac.settle" (fun () ->
      let _, delta = Sync.reindex_with_delta ctx () in
      Sync.sync_delta ctx delta;
      (* Completion barrier: nothing this settle acknowledged may be
         reordered past it — the journal tail (and, the simulated disk
         persisting in order, every metadata write before it) is on disk
         before the caller sees the settle return. *)
      Fs.fsync ctx.fs (journal_path ctx))

let tick (ctx : Ctx.t) =
  ctx.ops_since_reindex <- ctx.ops_since_reindex + 1;
  if ctx.auto_sync then settle ctx
  else
    match ctx.reindex_every with
    | Some n when ctx.ops_since_reindex >= n -> settle ctx
    | Some _ | None -> ()

let record_permanent_link (ctx : Ctx.t) sd path =
  match
    try Some (Fs.readlink ctx.fs path) with Hac_vfs.Errno.Error _ -> None
  with
  | None -> ()
  | Some raw ->
      let target = Link.target_of_symlink raw in
      let key = Link.target_key target in
      Semdir.unprohibit sd key;
      Semdir.add_link sd
        { Link.name = Vpath.basename path; target; cls = Link.Permanent };
      (* Permanent/prohibited sets gate query results outside any reindex
         delta: only a full re-evaluation restores the invariant. *)
      Ctx.force_full_sync ctx

let record_link_removal (ctx : Ctx.t) sd path =
  let name = Vpath.basename path in
  match Semdir.remove_link sd name with
  | Some l ->
      Ctx.force_full_sync ctx;
      (* Only prohibit when the target is now fully gone from the
         directory — deleting one of two aliases is not a rejection. *)
      if Semdir.link_by_target sd l.Link.target = None then begin
        let key = Link.target_key l.Link.target in
        Semdir.prohibit sd key;
        (* Keep the stored query result in step with the physical links. *)
        match l.Link.target with
        | Link.Local p -> (
            match Index.doc_of_path ctx.index p with
            | Some id ->
                Semdir.set_transient_local sd
                  (Hac_bitset.Fileset.remove sd.Semdir.transient_local id)
            | None -> ())
        | Link.Remote _ ->
            Semdir.set_transient_remote sd
              (List.filter (fun r -> r.Semdir.rr_uri <> key) sd.Semdir.transient_remote)
      end
  | None -> ()

let index_rename_subtree (ctx : Ctx.t) ~src ~dst =
  let to_move =
    Fileset.fold
      (fun id acc ->
        match Index.doc_path ctx.index id with
        | Some p when Vpath.is_prefix ~prefix:src p -> p :: acc
        | Some _ | None -> acc)
      (Index.universe ctx.index) []
  in
  List.iter
    (fun old_path ->
      match Vpath.replace_prefix ~prefix:src ~by:dst old_path with
      | Some new_path -> Index.rename_path ctx.index ~old_path ~new_path
      | None -> ())
    to_move

let rename_dirty (ctx : Ctx.t) ~src ~dst =
  let moved =
    Hashtbl.fold
      (fun p () acc -> if Vpath.is_prefix ~prefix:src p then p :: acc else acc)
      ctx.dirty []
  in
  List.iter
    (fun p ->
      Hashtbl.remove ctx.dirty p;
      match Vpath.replace_prefix ~prefix:src ~by:dst p with
      | Some p' -> Ctx.mark_dirty ctx p'
      | None -> ())
    moved

(* A dirref persists as its target's path ([sd-N.query]).  A semantic
   directory whose query refers to a directory at or under a moved one
   keeps its query, but the query's rendering changes: mark its metadata
   for the next settle to rewrite. *)
let dirty_dirref_referrers (ctx : Ctx.t) ~dst =
  let moved u =
    match Uidmap.path_of_uid ctx.uids u with
    | Some p -> Vpath.is_prefix ~prefix:dst p
    | None -> false
  in
  Hashtbl.iter
    (fun _ (sd : Semdir.t) ->
      if List.exists moved (Ast.dir_uids sd.Semdir.query) then Semdir.mark_meta_dirty sd)
    ctx.semdirs

let forget_dir (ctx : Ctx.t) path =
  (* The whole subtree is gone (rmdir fires once per directory, but a
     directory removal may race bulk [rmtree] events; be idempotent). *)
  match Uidmap.remove ctx.uids path with
  | None -> ()
  | Some uid ->
      Rescache.drop ctx.rescache ~uid;
      (* Losing a semantic directory changes every scope that referenced
         it; a syntactic directory's files already produce removal events. *)
      if Hashtbl.mem ctx.semdirs uid then Ctx.force_full_sync ctx;
      Hashtbl.remove ctx.semdirs uid;
      Hashtbl.remove ctx.skeletons uid;
      Depgraph.remove_node ctx.deps uid;
      Mount_table.unmount_all ctx.mounts ~uid;
      Sync.unpersist_semdir ctx uid;
      journal_append ctx (Printf.sprintf "X %d" uid)

(* A file event names the entry as its caller addressed it, possibly
   through a symbolic link to a directory, while the index knows each file
   by its physical path and must hear of every change under that path.
   The parent of a file event's entry exists, so resolve it. *)
let physical (ctx : Ctx.t) p =
  match Fs.resolve ctx.fs (Vpath.dirname p) with
  | dir -> Vpath.join dir (Vpath.basename p)
  | exception Hac_vfs.Errno.Error _ -> p

let on_event (ctx : Ctx.t) ev =
  if ctx.alive && not ctx.maintenance then begin
    (match ev with
    | Event.Created (Event.File, p) ->
        let p = physical ctx p in
        (* The paper initialises the open-descriptor slot and attribute
           cache entry for every new file, in shared memory. *)
        (match Fs.lstat ctx.fs p with
        | st -> Hashtbl.replace ctx.file_meta p st
        | exception Hac_vfs.Errno.Error _ -> ());
        mark_dirty ctx p
    | Event.Written p ->
        let p = physical ctx p in
        (match Hashtbl.find_opt ctx.file_meta p with
        | Some _ -> (
            match Fs.lstat ctx.fs p with
            | st -> Hashtbl.replace ctx.file_meta p st
            | exception Hac_vfs.Errno.Error _ -> ())
        | None -> ());
        mark_dirty ctx p
    | Event.Removed (Event.File, p) ->
        let p = physical ctx p in
        Hashtbl.remove ctx.file_meta p;
        mark_dirty ctx p
    | Event.Created (Event.Dir, p) ->
        (* The paper's HAC initialises (empty) query, query-result and
           permanent/prohibited link structures, a global-map entry and a
           dependency-graph node for every new directory — and stores them
           on disk, which is why Andrew phase 1 is its worst phase. *)
        let uid = Uidmap.register ctx.uids p in
        Depgraph.add_node ctx.deps uid;
        Hashtbl.replace ctx.skeletons uid (Semdir.create ~uid Ast.All);
        journal_append ctx (Printf.sprintf "D %d %s" uid p)
    | Event.Removed (Event.Dir, p) -> forget_dir ctx p
    | Event.Created (Event.Link, p) -> (
        match semdir_of_parent ctx p with
        | Some sd -> record_permanent_link ctx sd p
        | None -> ())
    | Event.Removed (Event.Link, p) -> (
        match semdir_of_parent ctx p with
        | Some sd -> record_link_removal ctx sd p
        | None -> ())
    | Event.Renamed (src, dst) -> (
        (* Renames change path-derived membership (subtree scopes, built-in
           attributes) without marking anything dirty: no reindex delta will
           ever describe them. *)
        Ctx.force_full_sync ctx;
        match Fs.lstat ctx.fs dst with
        | { Fs.st_kind = Event.Dir; _ } ->
            Uidmap.rename ctx.uids ~old_path:src ~new_path:dst;
            dirty_dirref_referrers ctx ~dst;
            index_rename_subtree ctx ~src ~dst;
            rename_dirty ctx ~src ~dst;
            (match Uidmap.uid_of_path ctx.uids dst with
            | Some uid -> journal_append ctx (Printf.sprintf "M %d %s" uid dst)
            | None -> ());
            (* The moved directory's parent changed: rewire its dependency
               edge when it is semantic.  (Descendants kept their parents.) *)
            (match Ctx.semdir_of_path ctx dst with
            | Some sd -> (
                match Sync.recompute_deps ctx sd with
                | Ok () -> ()
                | Error _ ->
                    (* A cycle via the new parent: leave edges as they were;
                       the next explicit schquery will surface the issue. *)
                    ())
            | None -> ())
        | { Fs.st_kind = Event.File; _ } ->
            let src = physical ctx src and dst = physical ctx dst in
            Index.rename_path ctx.index ~old_path:src ~new_path:dst;
            rename_dirty ctx ~src ~dst;
            (* Directory records never mention files, so across a remount
               the rename would be invisible to the journal; F records for
               both ends make a fast mount forget the vanished source and
               re-read the destination. *)
            journal_append ctx ("F " ^ src);
            journal_append ctx ("F " ^ dst)
        | { Fs.st_kind = Event.Link; _ } ->
            (match semdir_of_parent ctx src with
            | Some sd -> record_link_removal ctx sd src
            | None -> ());
            (match semdir_of_parent ctx dst with
            | Some sd -> record_permanent_link ctx sd dst
            | None -> ())
        | exception Hac_vfs.Errno.Error _ -> ()));
    tick ctx
  end

let setup (ctx : Ctx.t) =
  Event.subscribe (Fs.events ctx.fs) (on_event ctx);
  Ctx.with_maintenance ctx (fun () -> Fs.mkdir_p ctx.fs Sync.meta_root);
  ctx

let create ?block_size ?stem ?transducer ?auto_sync ?reindex_every () =
  setup (Ctx.create ?block_size ?stem ?transducer ?auto_sync ?reindex_every (Fs.create ()))

let of_fs ?block_size ?stem ?transducer ?auto_sync ?reindex_every ?chain fs =
  let ctx = Ctx.create ?block_size ?stem ?transducer ?auto_sync ?reindex_every fs in
  (* Allocate this life's uids strictly above everything the on-disk
     metadata mentions, so nothing we register can alias a previous life's
     identifiers (stale structure files must stay unreadable, and a crash
     during recovery must never mix two incarnations' records). *)
  let chain = match chain with Some c -> c | None -> Journal.read_chain fs in
  Uidmap.reserve ctx.uids (Journal.max_uid fs chain);
  (* Adopt existing content: register directories, index files.  The
     metadata area is HAC's own and stays out of the index. *)
  Fs.walk fs Vpath.root (fun path st ->
      if not (Vpath.is_prefix ~prefix:Sync.meta_root path) then
        match st.Fs.st_kind with
        | Event.Dir -> ignore (Uidmap.register ctx.uids path)
        | Event.File ->
            ignore (Index.add_document ctx.index ~path ~content:(Fs.read_file fs path))
        | Event.Link -> ());
  setup ctx

(* O(delta) mount: rebuild the namespace and index skeleton from the
   checkpoint's reconstruction images — the journal's uid map for
   directories, the store's document table for files — instead of
   re-reading and re-tokenizing every document.  The walk below touches
   only metadata; postings stay on disk, demand-faulted per term through
   the index's cold provider.  Anything the images cannot vouch for —
   damaged tail records, post-checkpoint namespace surgery (M/X records),
   a missing or epoch-stale document table, a store lineage mismatch —
   aborts with [Error], and the caller falls back to the full
   {!of_fs} + {!Recover.reload_report} oracle. *)
type adopted = {
  hac : t;
  chain : Journal.chain;
  replay : Journal.replay;
  delta : Sync.delta;
}

let fast_adopt ?block_size ?stem ?transducer ?auto_sync ?reindex_every ?budget ?chain fs :
    (adopted, string) result =
  let chain = match chain with Some c -> c | None -> Journal.read_chain fs in
  match chain.Journal.checkpoint with
  | None -> Error "no readable checkpoint"
  | Some (epoch, _) -> (
      let r = Journal.replay_chain chain in
      if r.Journal.corrupt > 0 || r.Journal.malformed > 0 then
        Error "journal tail carries damaged records"
      else if r.Journal.seg_moved > 0 then
        Error "post-checkpoint rename or removal (M/X) in the tail"
      else
        match Hac_store.Store.read_docs fs with
        | None -> Error "document table missing or damaged"
        | Some docs when docs.Hac_store.Store.epoch <> epoch ->
            Error "document table does not match the checkpoint epoch"
        | Some docs -> (
            let ctx =
              Ctx.create ?block_size ?stem ?transducer ?auto_sync ?reindex_every fs
            in
            match
              Hac_store.Store.attach ?budget ~metrics:ctx.instr.Instr.metrics
                ~lineage:docs.Hac_store.Store.lineage fs
            with
            | Error e -> Error e
            | Ok store ->
                Uidmap.reserve ctx.uids (Journal.max_uid fs chain);
                let by_path = Hashtbl.create 256 in
                Hashtbl.iter
                  (fun uid p -> Hashtbl.replace by_path p uid)
                  r.Journal.map;
                let doc_rows = Hashtbl.create 1024 in
                List.iter
                  (fun (id, key, p) -> Hashtbl.replace doc_rows p (id, key))
                  docs.Hac_store.Store.rows;
                Index.reserve_doc_ids ctx.index docs.Hac_store.Store.next;
                Fs.walk fs Vpath.root (fun path st ->
                    if not (Vpath.is_prefix ~prefix:Sync.meta_root path) then
                      match st.Fs.st_kind with
                      | Event.Dir -> (
                          (* Keep the journaled uid so recovered structure
                             files and queries resolve; a directory the
                             journal has never heard of (its D record was
                             not yet durable) registers fresh, as the full
                             oracle would. *)
                          match Hashtbl.find_opt by_path path with
                          | Some uid -> Uidmap.adopt ctx.uids uid path
                          | None -> ignore (Uidmap.register ctx.uids path))
                      | Event.File -> (
                          match Hashtbl.find_opt doc_rows path with
                          | Some (id, key) ->
                              Index.adopt_document ctx.index ~id ~path;
                              Option.iter
                                (Hac_store.Store.adopt_doc_key store id)
                                key
                          | None ->
                              (* Unknown to the table: created since the
                                 checkpoint — index it on first settle. *)
                              Ctx.mark_dirty ctx path)
                      | Event.Link -> ());
                (* The journaled dirty delta (F records): re-read exactly
                   the paths touched since the checkpoint.  A source that
                   vanished (delete, rename away) was simply never adopted
                   above — nothing to forget. *)
                Hashtbl.iter
                  (fun p () ->
                    match Fs.lstat fs p with
                    | { Fs.st_kind = Event.File; _ } -> Ctx.mark_dirty ctx p
                    | _ -> ()
                    | exception Hac_vfs.Errno.Error _ -> ())
                  r.Journal.files;
                Index.set_cold ctx.index
                  ~lookup:(fun key ->
                    Hac_store.Store.cold_lookup store key ~universe:(fun () ->
                        Index.universe ctx.index))
                  ~cost:(Hac_store.Store.cold_cost store)
                  ~words:(fun () -> Hac_store.Store.cold_words store)
                  ~term_count:(fun () -> Hac_store.Store.cold_term_count store);
                ctx.store <- Some store;
                (* Index the delta now, so links to files created since the
                   checkpoint resolve to ids when the semantic structures
                   are restored; the scope pass over it ends the mount
                   ({!adopt_results}). *)
                let _, delta = Sync.reindex_with_delta ctx () in
                Ok { hac = setup ctx; chain; replay = r; delta }))

let shutdown ?(graceful = true) (ctx : Ctx.t) =
  if ctx.alive then begin
    if graceful then settle ctx;
    ctx.alive <- false
  end

let set_durability (ctx : Ctx.t) d = ctx.durability <- d

let durability (ctx : Ctx.t) = ctx.durability

let journal_epoch (ctx : Ctx.t) = ensure_epoch ctx

(* -- the durable storage tier ----------------------------------------------

   Off by default: every structure stays memory-resident exactly as before,
   and nothing under [/.hac/store] exists.  Enabling the tier backs every
   live document with a content-addressed block (verification reads then go
   through the byte-bounded cache, see {!Ctx.reader}), and makes each
   checkpoint additionally persist the postings segments and the document
   table that the O(delta) fast mount rebuilds from. *)

let enable_store ?budget (ctx : Ctx.t) =
  if ctx.store = None then
    Ctx.with_maintenance ctx (fun () ->
        let store =
          Hac_store.Store.create ?budget ~metrics:ctx.instr.Instr.metrics ctx.fs
        in
        (* Seed eagerly: tier on means every live doc is block-backed, so a
           reader never has to decide per-doc whether the store is
           authoritative. *)
        Index.iter_live ctx.index (fun id path ->
            match
              try Some (Fs.read_file ctx.fs path) with Hac_vfs.Errno.Error _ -> None
            with
            | Some content -> Hac_store.Store.put_doc store id content
            | None -> ());
        ctx.store <- Some store)

let store_enabled (ctx : Ctx.t) = ctx.store <> None

let store (ctx : Ctx.t) = ctx.store

(* -- plain fs wrappers ----------------------------------------------------- *)

(* The paper's DLL interposes on every call: resolve the user's path in
   HAC's name space, look the directory up in the global map, and decide
   whether consistency machinery applies.  For semantic directories this is
   also where lazily stored query results become visible: the first access
   materialises the transient links. *)
let intercept (ctx : Ctx.t) p =
  let p = Vpath.normalize p in
  let touch_dir path =
    match Uidmap.uid_of_path ctx.uids path with
    | None -> ()
    | Some uid -> (
        match Hashtbl.find_opt ctx.semdirs uid with
        | Some sd -> Sync.materialize ctx sd
        | None -> ())
  in
  touch_dir p;
  touch_dir (Vpath.dirname p)

(* Syntactic mount resolution: the longest mount-point prefix wins; the
   local path suffix is re-rooted in the foreign file system. *)
let foreign (ctx : Ctx.t) p =
  if Hashtbl.length ctx.syn_mounts = 0 then None
  else begin
    let p = Vpath.normalize p in
    let best =
      Hashtbl.fold
        (fun uid ffs acc ->
          match Uidmap.path_of_uid ctx.uids uid with
          | Some mp when Vpath.is_prefix ~prefix:mp p -> (
              match acc with
              | Some (bmp, _) when String.length bmp >= String.length mp -> acc
              | Some _ | None -> Some (mp, ffs))
          | Some _ | None -> acc)
        ctx.syn_mounts None
    in
    match best with
    | None -> None
    | Some (mp, ffs) ->
        Option.map (fun rel -> (ffs, rel)) (Vpath.replace_prefix ~prefix:mp ~by:"/" p)
  end

let read_only_if_foreign (ctx : Ctx.t) p =
  if foreign ctx p <> None then
    Hac_vfs.Errno.raise_error Hac_vfs.Errno.EROFS (Vpath.normalize p)

let mkdir (ctx : Ctx.t) p =
  intercept ctx p;
  read_only_if_foreign ctx p;
  Fs.mkdir ctx.fs p

let mkdir_p (ctx : Ctx.t) p =
  intercept ctx p;
  read_only_if_foreign ctx p;
  Fs.mkdir_p ctx.fs p

let rmdir (ctx : Ctx.t) p =
  intercept ctx p;
  read_only_if_foreign ctx p;
  Fs.rmdir ctx.fs p

let write_file (ctx : Ctx.t) p c =
  intercept ctx p;
  read_only_if_foreign ctx p;
  Fs.write_file ctx.fs p c

let append_file (ctx : Ctx.t) p c =
  intercept ctx p;
  read_only_if_foreign ctx p;
  Fs.append_file ctx.fs p c

let read_file (ctx : Ctx.t) p =
  intercept ctx p;
  match foreign ctx p with
  | Some (ffs, rel) -> Fs.read_file ffs rel
  | None -> Fs.read_file ctx.fs p

let unlink (ctx : Ctx.t) p =
  intercept ctx p;
  read_only_if_foreign ctx p;
  Fs.unlink ctx.fs p

let rename (ctx : Ctx.t) ~src ~dst =
  intercept ctx src;
  intercept ctx dst;
  read_only_if_foreign ctx src;
  read_only_if_foreign ctx dst;
  Fs.rename ctx.fs ~src ~dst

let symlink (ctx : Ctx.t) ~target ~link =
  intercept ctx link;
  read_only_if_foreign ctx link;
  Fs.symlink ctx.fs ~target ~link

let readlink (ctx : Ctx.t) p =
  intercept ctx p;
  match foreign ctx p with
  | Some (ffs, rel) -> Fs.readlink ffs rel
  | None -> Fs.readlink ctx.fs p

let readdir (ctx : Ctx.t) p =
  intercept ctx p;
  match foreign ctx p with
  | Some (ffs, rel) -> Fs.readdir ffs rel
  | None -> Fs.readdir ctx.fs p

let exists (ctx : Ctx.t) p =
  intercept ctx p;
  match foreign ctx p with
  | Some (ffs, rel) -> Fs.exists ffs rel
  | None -> Fs.exists ctx.fs p

let is_dir (ctx : Ctx.t) p =
  intercept ctx p;
  match foreign ctx p with
  | Some (ffs, rel) -> Fs.is_dir ffs rel
  | None -> Fs.is_dir ctx.fs p

(* -- semantic directories --------------------------------------------------- *)

let parse_query (ctx : Ctx.t) qs =
  let ast =
    match Parser.parse_result qs with
    | Ok ast -> ast
    | Error msg -> fail "bad query %S: %s" qs msg
  in
  (* Install directory references: path -> uid, which survives renames. *)
  Ast.map_dirrefs
    (function
      | Ast.Ref_uid _ as r -> r
      | Ast.Ref_path p -> (
          if not (Fs.is_dir ctx.fs p) then
            fail "query references %s, which is not a directory" p;
          match Uidmap.uid_of_path ctx.uids p with
          | Some uid -> Ast.Ref_uid uid
          | None -> Ast.Ref_uid (Uidmap.register ctx.uids p)))
    ast

let uid_of_dir (ctx : Ctx.t) path =
  let path = Vpath.normalize path in
  if not (Fs.is_dir ctx.fs path) then fail "%s is not a directory" path;
  match Uidmap.uid_of_path ctx.uids path with
  | Some uid -> uid
  | None -> Uidmap.register ctx.uids path

let install_semdir (ctx : Ctx.t) uid query =
  (* Promote the skeleton created at mkdir time, if any. *)
  let sd =
    match Hashtbl.find_opt ctx.skeletons uid with
    | Some sk ->
        Hashtbl.remove ctx.skeletons uid;
        Semdir.set_query sk query;
        sk
    | None -> Semdir.create ~uid query
  in
  Hashtbl.replace ctx.semdirs uid sd;
  match Sync.recompute_deps ctx sd with
  | Ok () ->
      Sync.sync_from ctx uid;
      (* Journal the promotion after the first persist so recovery never
         sees a semantic flag whose structure files were not yet written. *)
      journal_append ctx (Printf.sprintf "S %d" uid);
      sd
  | Error cycle ->
      Hashtbl.remove ctx.semdirs uid;
      Depgraph.remove_node ctx.deps uid;
      fail "query would create a dependency cycle through uids %s"
        (String.concat " -> " (List.map string_of_int cycle))

let smkdir (ctx : Ctx.t) path query_string =
  let path = Vpath.normalize path in
  Fs.mkdir ctx.fs path;
  match
    let query = parse_query ctx query_string in
    let uid = uid_of_dir ctx path in
    install_semdir ctx uid query
  with
  | _ -> ()
  | exception e ->
      (* Leave no half-made directory behind. *)
      (try Fs.rmdir ctx.fs path with Hac_vfs.Errno.Error _ -> ());
      raise e

let semdir_or_fail (ctx : Ctx.t) path =
  match Ctx.semdir_of_path ctx path with
  | Some sd -> sd
  | None -> fail "%s is not a semantic directory" (Vpath.normalize path)

let srmdir (ctx : Ctx.t) path =
  let path = Vpath.normalize path in
  let sd = semdir_or_fail ctx path in
  Ctx.with_maintenance ctx (fun () ->
      Sync.remove_links ctx path (List.map (fun l -> l.Link.name) (Semdir.all_links sd)));
  Fs.rmdir ctx.fs path (* the Removed(Dir) event clears uid/semdir/deps *)

let schquery (ctx : Ctx.t) path query_string =
  let path = Vpath.normalize path in
  let query = parse_query ctx query_string in
  let uid = uid_of_dir ctx path in
  match Ctx.semdir_of_uid ctx uid with
  | None -> ignore (install_semdir ctx uid query)
  | Some sd ->
      let old_query = sd.Semdir.query in
      Semdir.set_query sd query;
      (match Sync.recompute_deps ctx sd with
      | Ok () -> ()
      | Error cycle ->
          Semdir.set_query sd old_query;
          fail "query would create a dependency cycle through uids %s"
            (String.concat " -> " (List.map string_of_int cycle)));
      Sync.sync_from ctx uid

let sreadin (ctx : Ctx.t) path =
  match Ctx.semdir_of_path ctx path with
  | None -> None
  | Some sd ->
      Some (Ast.to_string ~path_of_uid:(Uidmap.path_of_uid ctx.uids) sd.Semdir.query)

let squery_ast (ctx : Ctx.t) path =
  Option.map (fun sd -> sd.Semdir.query) (Ctx.semdir_of_path ctx path)

let is_semantic (ctx : Ctx.t) path = Ctx.semdir_of_path ctx path <> None

let semdir_stamps (ctx : Ctx.t) =
  Hashtbl.fold
    (fun uid sd acc ->
      match Uidmap.path_of_uid ctx.uids uid with
      | Some p -> (p, sd.Semdir.stamp) :: acc
      | None -> acc)
    ctx.semdirs []
  |> List.sort compare

let semantic_dirs (ctx : Ctx.t) = List.map fst (semdir_stamps ctx)

let ssync (ctx : Ctx.t) path = Sync.sync_from ctx (uid_of_dir ctx path)

let sync_all (ctx : Ctx.t) = Sync.sync_all ctx

let reindex (ctx : Ctx.t) ?under () =
  let n, delta = Sync.reindex_with_delta ctx ?under () in
  Sync.sync_delta ctx delta;
  n

let reindex_full (ctx : Ctx.t) ?under () =
  let n = Sync.reindex ctx ?under () in
  Sync.sync_all ctx;
  ctx.needs_full_sync <- false;
  n

let dirty_count (ctx : Ctx.t) = Hashtbl.length ctx.dirty

let set_auto_sync (ctx : Ctx.t) on = ctx.auto_sync <- on

let auto_sync_enabled (ctx : Ctx.t) = ctx.auto_sync

(* Stats-time accounting: measuring the CAS postings forces every term's
   snapshot, so the container gauges are published here — never on the
   indexing path. *)
let index_report (ctx : Ctx.t) =
  let s = Index.cas_stats ctx.index in
  let i = ctx.instr in
  let setg g v = Hac_obs.Metrics.set g (float_of_int v) in
  setg i.Instr.index_containers_arrays s.Hac_index.Cas.arrays;
  setg i.Instr.index_containers_bitmaps s.Hac_index.Cas.bitmaps;
  setg i.Instr.index_containers_runs s.Hac_index.Cas.run_containers;
  setg i.Instr.index_postings_bytes s.Hac_index.Cas.bytes;
  setg i.Instr.index_postings_uncompressed s.Hac_index.Cas.uncompressed_bytes;
  s

(* -- links ------------------------------------------------------------------ *)

let links (ctx : Ctx.t) path =
  match Ctx.semdir_of_path ctx path with
  | None -> []
  | Some sd ->
      Sync.materialize ctx sd;
      Semdir.all_links sd

let prohibited (ctx : Ctx.t) path = Semdir.prohibited_keys (semdir_or_fail ctx path)

let add_permanent (ctx : Ctx.t) ~dir ~target =
  let dir = Vpath.normalize dir in
  let sd = semdir_or_fail ctx dir in
  Sync.materialize ctx sd;
  let target = Link.target_of_symlink target in
  match Semdir.link_by_target sd target with
  | Some l ->
      (* Already present: upgrade to permanent rather than alias it. *)
      Semdir.unprohibit sd (Link.target_key target);
      Semdir.add_link sd { l with Link.cls = Link.Permanent };
      Ctx.force_full_sync ctx;
      l.Link.name
  | None ->
      let taken name = Fs.lexists ctx.fs (Vpath.join dir name) in
      let name, _ = Semdir.fresh_link_name sd ~taken target in
      (* Create the physical symlink outside maintenance mode so the
         ordinary interception records it permanent and lifts any
         prohibition. *)
      Fs.symlink ctx.fs ~target:(Link.symlink_value target) ~link:(Vpath.join dir name);
      name

let remove_link (ctx : Ctx.t) ~dir ~name =
  let dir = Vpath.normalize dir in
  Sync.materialize ctx (semdir_or_fail ctx dir);
  Fs.unlink ctx.fs (Vpath.join dir name)

let unprohibit (ctx : Ctx.t) ~dir ~target =
  let sd = semdir_or_fail ctx dir in
  Semdir.unprohibit sd (Link.target_key (Link.target_of_symlink target));
  (* The lifted target can only re-enter through a re-evaluation that
     reconsiders it — no reindex delta will mention it. *)
  Ctx.force_full_sync ctx

let prohibit_target (ctx : Ctx.t) ~dir ~target =
  let dir = Vpath.normalize dir in
  let sd = semdir_or_fail ctx dir in
  Sync.materialize ctx sd;
  let t = Link.target_of_symlink target in
  match Semdir.link_by_target sd t with
  | Some l ->
      (* Physically present: removing it prohibits it, like the user's rm. *)
      Fs.unlink ctx.fs (Vpath.join dir l.Link.name)
  | None ->
      Semdir.prohibit sd (Link.target_key t);
      Ctx.force_full_sync ctx

(* Reinstall a semantic directory from recovered metadata: the directory and
   its physical links already exist in the file system; [permanent] names
   the links the previous life classified permanent, everything else present
   is adopted as transient, and [prohibited] target keys are restored before
   the first re-evaluation so nothing sneaks back in.  Nothing is evaluated
   here: the caller restores every directory first, then re-evaluates (or,
   at a fast mount, adopts) them in dependency order. *)
let restore_semdir (ctx : Ctx.t) path ~query ~permanent ~prohibited =
  let path = Vpath.normalize path in
  let q = parse_query ctx query in
  let uid = uid_of_dir ctx path in
  if Hashtbl.mem ctx.semdirs uid then fail "%s is already a semantic directory" path;
  let sd =
    match Hashtbl.find_opt ctx.skeletons uid with
    | Some sk ->
        Hashtbl.remove ctx.skeletons uid;
        Semdir.set_query sk q;
        sk
    | None -> Semdir.create ~uid q
  in
  List.iter (Semdir.prohibit sd) prohibited;
  let is_permanent =
    let names = Hashtbl.create 8 in
    List.iter (fun n -> Hashtbl.replace names n ()) permanent;
    Hashtbl.mem names
  in
  let links = Sync.list_links ctx path in
  let local = ref [] and remote = ref [] in
  List.iter
    (fun (name, raw) ->
      let target = Link.target_of_symlink raw in
      let cls = if is_permanent name then Link.Permanent else Link.Transient in
      Semdir.add_link sd { Link.name; target; cls };
      if cls = Link.Transient then
        match target with
        | Link.Local p ->
            Option.iter (fun id -> local := id :: !local) (Index.doc_of_path ctx.index p)
        | Link.Remote { ns_id; uri } ->
            remote :=
              { Semdir.rr_ns = ns_id; rr_uri = uri; rr_name = name; rr_stale = false } :: !remote)
    links;
  Semdir.set_transient_local sd (Fileset.union sd.Semdir.transient_local (Fileset.of_list !local));
  Semdir.set_transient_remote sd (sd.Semdir.transient_remote @ List.rev !remote);
  Semdir.set_materialized sd (links <> []);
  Hashtbl.replace ctx.semdirs uid sd;
  match Sync.recompute_deps ctx sd with
  | Ok () -> ()
  | Error cycle ->
      Hashtbl.remove ctx.semdirs uid;
      fail "restored query would create a dependency cycle through uids %s"
        (String.concat " -> " (List.map string_of_int cycle))

(* The rest of a fast mount, once {!fast_adopt} indexed the delta and every
   directory was restored: adopt the results the images vouch for
   ({!Sync.adopt_result}), re-evaluate the others dependencies first, then
   settle the delta over all of them and end with the settle's barrier. *)
let adopt_results (ctx : Ctx.t) (delta : Sync.delta) =
  let i = ctx.instr in
  Hashtbl.iter
    (fun _ sd ->
      if Sync.adopt_result ctx sd ~touched:delta.Sync.touched then
        Hac_obs.Metrics.incr i.Instr.recover_results_adopted)
    ctx.semdirs;
  Hac_obs.Metrics.incr ~by:(Sync.sync_unsynced ctx) i.Instr.recover_results_reevaluated;
  Sync.sync_delta ctx delta;
  Fs.fsync ctx.fs (journal_path ctx)

let resolve_target (ctx : Ctx.t) path =
  (* A link inside a semantic directory may not be materialised yet. *)
  (match Ctx.semdir_of_path ctx (Vpath.dirname path) with
  | Some sd -> Sync.materialize ctx sd
  | None -> ());
  if Fs.is_symlink ctx.fs path then Link.target_of_symlink (Fs.readlink ctx.fs path)
  else Link.Local (Vpath.normalize path)

let resolve_link (ctx : Ctx.t) path =
  match resolve_target ctx path with
  | Link.Local p -> (Ctx.reader ctx).read p
  | Link.Remote { ns_id; uri } -> Sync.fetch_remote ctx ~ns_id ~uri

let sact (ctx : Ctx.t) link_path =
  let link_path = Vpath.normalize link_path in
  let dir = Vpath.dirname link_path in
  let sd = semdir_or_fail ctx dir in
  Sync.materialize ctx sd;
  match resolve_link ctx link_path with
  | None -> []
  | Some content ->
      let query_words = Ast.words sd.Semdir.query in
      let hits = ref [] in
      let k w = if Index.stemming ctx.index then Hac_index.Stemmer.stem w else w in
      let keys = List.map k query_words in
      Hac_index.Tokenizer.iter_lines content (fun lineno line ->
          let line_has = ref false in
          Hac_index.Tokenizer.iter_words line (fun x ->
              if List.mem (k x) keys then line_has := true);
          if !line_has then hits := (lineno, line) :: !hits);
      List.rev !hits

(* Commit an atomic checkpoint of the full semantic state: a consolidated
   journal (every directory known to this instance, keyed by its uids, plus
   the semantic flags) and a copy of every live directory's structure files,
   bundled into one checksummed {!Hac_vfs.Image} blob.  The blob is
   published with the classic write-new / fsync / rename / fsync dance, so
   a crash at any point leaves either the old chain or the new one — never
   a half-written base.  After the commit, appends move to the next epoch's
   segment; nothing old is deleted here (that is {!compact}'s job). *)
let do_checkpoint (ctx : Ctx.t) =
  Hashtbl.iter (fun _ sd -> Sync.persist_semdir ctx sd) ctx.semdirs;
  Ctx.with_maintenance ctx (fun () ->
      Hac_obs.Trace.with_span ctx.instr.Instr.tracer ~name:"hac.checkpoint" (fun () ->
          let epoch = ensure_epoch ctx in
          let b = Buffer.create 1024 in
          Uidmap.fold
            (fun uid path () ->
              if path <> Vpath.root && not (Vpath.is_prefix ~prefix:Sync.meta_root path)
              then
                Buffer.add_string b (Journal.seal (Printf.sprintf "D %d %s" uid path) ^ "\n"))
            ctx.uids ();
          Hashtbl.iter
            (fun uid _ ->
              Buffer.add_string b (Journal.seal (Printf.sprintf "S %d" uid) ^ "\n"))
            ctx.semdirs;
          (* Paths still dirty at checkpoint time carry over: without them a
             remount from this checkpoint alone would believe the index
             entries are fresh. *)
          Hashtbl.iter
            (fun p () -> Buffer.add_string b (Journal.seal ("F " ^ p) ^ "\n"))
            ctx.dirty;
          let img = Fs.create () in
          Fs.write_file img "/dirs.log" (Buffer.contents b);
          Hashtbl.iter
            (fun uid _ ->
              List.iter
                (fun f ->
                  match (try Some (Fs.read_file ctx.fs f) with Hac_vfs.Errno.Error _ -> None) with
                  | Some c -> Fs.write_file img ("/" ^ Vpath.basename f) c
                  | None -> ())
                (Sync.meta_files uid))
            ctx.semdirs;
          let sealed = Journal.seal_blob (Hac_vfs.Image.dump img) in
          if not (Fs.is_dir ctx.fs Sync.meta_root) then Fs.mkdir_p ctx.fs Sync.meta_root;
          (* With the tier on, the checkpoint also commits the fast-mount
             image: the resident postings as an immutable segment, then the
             document table stamped with this epoch.  Both are published
             before the checkpoint's commit rename — the simulated disk
             persists in order, so a durable checkpoint implies a durable
             table; a crash in between leaves an epoch mismatch that sends
             the next mount to the full oracle.  The segment dump replaces
             the whole set only when no cold provider is installed (the
             resident index then covers every live doc); after a fast mount
             the residents are just the delta, appended as a new segment for
             the compactor to fold in. *)
          (match ctx.store with
          | None -> ()
          | Some store ->
              let entries = ref [] in
              Index.iter_cas_terms ctx.index (fun key ids ->
                  entries := (key, Fileset.elements ids) :: !entries);
              let entries = List.sort compare !entries in
              let replace = not (Index.has_cold ctx.index) in
              if entries <> [] || replace then
                ignore (Hac_store.Store.dump_segment store ~replace entries : string);
              let rows = ref [] in
              Index.iter_live ctx.index (fun id path ->
                  rows := (id, Hac_store.Store.doc_key store id, path) :: !rows);
              Hac_store.Store.write_docs store ~epoch
                ~next:(Index.next_doc_id ctx.index)
                (List.rev !rows));
          Fs.write_file ctx.fs Journal.checkpoint_tmp sealed;
          Fs.fsync ctx.fs Journal.checkpoint_tmp;
          Fs.rename ctx.fs ~src:Journal.checkpoint_tmp ~dst:(Journal.checkpoint_path epoch);
          Fs.fsync ctx.fs (Journal.checkpoint_path epoch);
          ctx.journal_epoch <- epoch + 1;
          Hac_obs.Metrics.incr ctx.instr.Instr.journal_checkpoints;
          Hac_obs.Metrics.set ctx.instr.Instr.journal_epoch (float_of_int ctx.journal_epoch);
          epoch))

let checkpoint ?durability (ctx : Ctx.t) =
  settle ?durability ctx;
  do_checkpoint ctx

(* Kept under its historical name for the recovery path: re-key the
   metadata area around this instance's uids.  The consolidated checkpoint
   *is* that re-keying — committed atomically instead of the old
   delete-then-rewrite, which a crash in the middle could halve. *)
let checkpoint_metadata (ctx : Ctx.t) = ignore (do_checkpoint ctx)

(* Truncate history a durable checkpoint has made redundant: segments at or
   below the newest checkpoint that proves readable, checkpoints older than
   it, any uncommitted checkpoint scratch, and structure files of uids the
   surviving chain no longer flags semantic (stale leftovers of previous
   lives — unreachable, since recovery only reads structure files for
   chain-semantic uids). *)
let compact (ctx : Ctx.t) =
  Ctx.with_maintenance ctx (fun () ->
      let removed = ref 0 in
      let rm p = if Fs.lexists ctx.fs p then begin Fs.unlink ctx.fs p; incr removed end in
      let segments, ckpts = Journal.scan ctx.fs in
      let newest_valid =
        List.fold_left
          (fun acc (e, p) ->
            match Journal.load_checkpoint ctx.fs p with Ok _ -> Some e | Error _ -> acc)
          None ckpts
      in
      (match newest_valid with
      | None -> ()
      | Some e ->
          List.iter (fun (se, p) -> if se <= e then rm p) segments;
          List.iter (fun (ce, p) -> if ce < e then rm p) ckpts);
      rm Journal.checkpoint_tmp;
      (match newest_valid with
      | None -> ()
      | Some _ ->
          let live = Journal.replay_chain (Journal.read_chain ctx.fs) in
          if Fs.is_dir ctx.fs Sync.meta_root then
            List.iter
              (fun name ->
                match Journal.sd_uid_of_name name with
                | Some uid when not (Hashtbl.mem live.Journal.sem uid) ->
                    rm (Sync.meta_root ^ "/" ^ name)
                | Some _ | None -> ())
              (Fs.readdir ctx.fs Sync.meta_root));
      (* The storage tier compacts alongside: fold the postings segments
         into one (size-tiered merge, publishing a fresh segment and
         manifest before the olds are unlinked) and sweep unreferenced
         blocks and abandoned scratch. *)
      (match ctx.store with
      | None -> ()
      | Some store ->
          ignore (Hac_store.Store.merge store : bool);
          removed := !removed + Hac_store.Store.sweep store);
      if !removed > 0 then Hac_obs.Metrics.incr ctx.instr.Instr.journal_compactions;
      !removed)

(* -- mounts ------------------------------------------------------------------ *)

let smount (ctx : Ctx.t) path ns =
  let uid = uid_of_dir ctx path in
  Hashtbl.replace ctx.namespaces ns.Namespace.ns_id ns;
  Mount_table.smount ctx.mounts ~uid ns;
  Sync.sync_all ctx

let smount_fs (ctx : Ctx.t) path ffs =
  let uid = uid_of_dir ctx path in
  if ffs == ctx.fs then fail "cannot syntactically mount a file system on itself";
  Hashtbl.replace ctx.syn_mounts uid ffs

let sumount_fs (ctx : Ctx.t) path =
  match Uidmap.uid_of_path ctx.uids (Vpath.normalize path) with
  | Some uid -> Hashtbl.remove ctx.syn_mounts uid
  | None -> ()

let syntactic_mount_points (ctx : Ctx.t) =
  Hashtbl.fold
    (fun uid _ acc ->
      match Uidmap.path_of_uid ctx.uids uid with Some p -> p :: acc | None -> acc)
    ctx.syn_mounts []
  |> List.sort compare

let sumount (ctx : Ctx.t) path ~ns_id =
  let uid = uid_of_dir ctx path in
  Mount_table.sumount ctx.mounts ~uid ~ns_id;
  Sync.sync_all ctx

let mounted_at (ctx : Ctx.t) path =
  match Uidmap.uid_of_path ctx.uids path with
  | None -> []
  | Some uid ->
      List.map (fun ns -> ns.Namespace.ns_id) (Mount_table.mounted ctx.mounts ~uid)

let refresh_mounts (ctx : Ctx.t) =
  if Mount_table.mount_points ctx.mounts <> [] then Sync.sync_all ctx

(* -- fault tolerance ---------------------------------------------------------- *)

let clock (ctx : Ctx.t) = ctx.clock

let remote_failures (ctx : Ctx.t) = ctx.remote_failures

let stale_serves (ctx : Ctx.t) = ctx.stale_serves

type mount_health = {
  mh_path : string;
  mh_ns : string;
  mh_health : Namespace.health option;
}

let mount_status (ctx : Ctx.t) =
  List.concat_map
    (fun uid ->
      match Uidmap.path_of_uid ctx.uids uid with
      | None -> []
      | Some path ->
          List.map
            (fun (ns_id, h) -> { mh_path = path; mh_ns = ns_id; mh_health = h })
            (Mount_table.health ctx.mounts ~uid))
    (Mount_table.mount_points ctx.mounts)

let stale_remotes (ctx : Ctx.t) path =
  match Ctx.semdir_of_path ctx path with
  | None -> []
  | Some sd -> List.filter (fun r -> r.Semdir.rr_stale) sd.Semdir.transient_remote

(* -- incremental-maintenance introspection ------------------------------------ *)

let result_cache_stats (ctx : Ctx.t) = Rescache.stats ctx.rescache

let reset_result_cache_stats (ctx : Ctx.t) = Rescache.reset_stats ctx.rescache

let scope_generation (ctx : Ctx.t) = ctx.scope_generation

(* -- observability ------------------------------------------------------------ *)

let metrics (ctx : Ctx.t) = ctx.instr.Instr.metrics

let tracer (ctx : Ctx.t) = ctx.instr.Instr.tracer

let flight (ctx : Ctx.t) = ctx.instr.Instr.flight

let instr (ctx : Ctx.t) = ctx.instr

(* -- accounting --------------------------------------------------------------- *)

type space = {
  semdir_bytes : int;
  uidmap_bytes : int;
  depgraph_bytes : int;
  index_bytes : int;
  fs_metadata_bytes : int;
}

let space (ctx : Ctx.t) =
  {
    semdir_bytes =
      Hashtbl.fold (fun _ sd acc -> acc + Semdir.approx_bytes sd) ctx.semdirs 0
      + Hashtbl.fold (fun _ sd acc -> acc + Semdir.approx_bytes sd) ctx.skeletons 0;
    uidmap_bytes = Uidmap.approx_bytes ctx.uids;
    depgraph_bytes = Depgraph.approx_bytes ctx.deps;
    index_bytes = Index.index_bytes ctx.index;
    fs_metadata_bytes = Fs.metadata_bytes ctx.fs;
  }

let hac_overhead_bytes s = s.semdir_bytes + s.uidmap_bytes + s.depgraph_bytes

let semdir_count (ctx : Ctx.t) = Hashtbl.length ctx.semdirs
