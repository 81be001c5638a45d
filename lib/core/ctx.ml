type t = {
  fs : Hac_vfs.Fs.t;
  index : Hac_index.Index.t;
  uids : Uidmap.t;
  semdirs : (int, Semdir.t) Hashtbl.t;
  deps : Hac_depgraph.Depgraph.t;
  mounts : Hac_remote.Mount_table.t;
  namespaces : (string, Hac_remote.Namespace.t) Hashtbl.t;
  syn_mounts : (int, Hac_vfs.Fs.t) Hashtbl.t;
  file_meta : (string, Hac_vfs.Fs.stat) Hashtbl.t;
  skeletons : (int, Semdir.t) Hashtbl.t;
  dirty : (string, unit) Hashtbl.t;
  mutable alive : bool;
  mutable maintenance : bool;
  mutable auto_sync : bool;
  mutable reindex_every : int option;
  mutable ops_since_reindex : int;
  mutable sync_stamp : int;
  clock : Hac_fault.Clock.t;
  mutable remote_failures : int;
  mutable stale_serves : int;
  rescache : Rescache.t;
  mutable scope_generation : int;
  mutable needs_full_sync : bool;
  mutable durability : [ `Always | `Batch ];
  mutable journal_epoch : int;
  mutable store : Hac_store.Store.t option;
  instr : Instr.t;
}

let create ?(block_size = 1) ?(stem = true) ?transducer ?(auto_sync = false) ?reindex_every fs =
  let clock = Hac_fault.Clock.create () in
  let instr = Instr.create ~now:(fun () -> Hac_fault.Clock.now clock) () in
  let t =
    {
      fs;
      index = Hac_index.Index.create ~block_size ~stem ?transducer ();
      uids = Uidmap.create ();
      semdirs = Hashtbl.create 64;
      deps = Hac_depgraph.Depgraph.create ();
      mounts = Hac_remote.Mount_table.create ();
      namespaces = Hashtbl.create 8;
      syn_mounts = Hashtbl.create 4;
      file_meta = Hashtbl.create 256;
      skeletons = Hashtbl.create 64;
      dirty = Hashtbl.create 64;
      alive = true;
      maintenance = false;
      auto_sync;
      reindex_every;
      ops_since_reindex = 0;
      sync_stamp = 0;
      clock;
      remote_failures = 0;
      stale_serves = 0;
      rescache = Rescache.create ~metrics:instr.Instr.metrics ();
      scope_generation = 0;
      needs_full_sync = false;
      durability = `Batch;
      journal_epoch = -1;
      store = None;
      instr;
    }
  in
  Hac_depgraph.Depgraph.add_node t.deps Uidmap.root_uid;
  t

let bump_generation t =
  t.scope_generation <- t.scope_generation + 1;
  Hac_obs.Metrics.set t.instr.Instr.generation (float_of_int t.scope_generation)

let force_full_sync t =
  t.needs_full_sync <- true;
  bump_generation t

(* Verification reads go through the block store's cache when the tier is
   on.  Two guards keep that equivalent to reading the file itself: a dirty
   path (changed since the last settle) must come from the tree — its block
   holds the pre-change content — and the caller's read permission is
   checked up front, since the block store is maintained by the superuser
   and must not leak bodies the current user cannot open.  A block that
   fails its seal (torn, rotted, swept) falls back to the tree. *)
let reader t =
  let native = Hac_remote.Remote_fs.fs_reader t.fs in
  let read path =
    match t.store with
    | Some store when not (Hashtbl.mem t.dirty path) -> (
        match Hac_index.Index.doc_of_path t.index path with
        | Some id when native.may_read path -> (
            match Hac_store.Store.read_doc store id with
            | Some content -> Some content
            | None -> native.read path)
        | _ -> native.read path)
    | _ -> native.read path
  in
  { native with read }

let mark_dirty t path =
  Hashtbl.replace t.dirty path ();
  Hac_index.Index.note_dirty t.index path

let semdir_of_uid t uid = Hashtbl.find_opt t.semdirs uid

let semdir_of_path t path =
  match Uidmap.uid_of_path t.uids path with
  | None -> None
  | Some uid -> semdir_of_uid t uid

(* HAC's own bookkeeping runs with events suppressed and as the superuser —
   the library must maintain its structures regardless of which user's call
   triggered the work (the metadata area is not user-writable). *)
let with_maintenance t f =
  if t.maintenance then f ()
  else begin
    t.maintenance <- true;
    let saved_user = Hac_vfs.Fs.current_user t.fs in
    Hac_vfs.Fs.set_user t.fs 0;
    let restore () =
      Hac_vfs.Fs.set_user t.fs saved_user;
      t.maintenance <- false
    in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        restore ();
        raise e
  end
