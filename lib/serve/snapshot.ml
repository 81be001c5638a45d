(* Immutable copy-on-write snapshots of the served namespace.

   A snapshot is three persistent maps — file contents, directory entries,
   semantic-directory link sets — captured at a settle boundary, so a
   reader never observes torn scope state: every read against one snapshot
   sees the same committed-write prefix ([seq]).  Publishing a new snapshot
   after a batch reuses the previous maps and refreshes only the touched
   paths and the semantic directories whose change stamp moved (a settle
   may rewrite link sets far from the touched paths, and every such
   rewrite moves the directory's stamp), so the copy cost tracks the
   batch, not the tree.

   Reads here are pure map lookups: no VFS access and no metrics. *)

module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Hac = Hac_core.Hac
module Link = Hac_core.Link
module SMap = Map.Make (String)

type t = {
  seq : int;  (** Committed writes reflected in this view. *)
  published_s : float;  (** Virtual publication time. *)
  files : string SMap.t;
  dirs : string list SMap.t;
  links : Msg.linkrow list SMap.t;
  stamps : int SMap.t;  (** Each semantic directory's stamp when its rows were built. *)
  rebuilt : int;  (** Semantic directories rebuilt to publish this view. *)
}

let seq t = t.seq
let published_s t = t.published_s
let file_count t = SMap.cardinal t.files
let dir_count t = SMap.cardinal t.dirs
let semdirs_rebuilt t = t.rebuilt

let equal a b =
  a.seq = b.seq
  && SMap.equal String.equal a.files b.files
  && SMap.equal ( = ) a.dirs b.dirs
  && SMap.equal ( = ) a.links b.links

let meta_root = "/.hac"

let in_meta path = path = meta_root || String.length path > 5 && String.sub path 0 6 = "/.hac/"

(* Directory listing as served: the metadata area never appears. *)
let dir_entries hac path =
  let names = Hac.readdir hac path in
  if path = "/" then List.filter (fun n -> n <> ".hac") names else names

let linkrows hac path =
  let stale =
    List.filter_map
      (fun (rr : Hac_core.Semdir.remote_result) ->
        if rr.rr_stale then Some rr.rr_uri else None)
      (Hac.stale_remotes hac path)
  in
  List.map
    (fun (l : Link.t) ->
      let key = Link.target_key l.target in
      {
        Msg.l_name = l.name;
        l_target = key;
        l_cls = Link.cls_name l.cls;
        l_stale = List.mem key stale;
      })
    (Hac.links hac path)

(* Refresh one path in the maps: as a file, as a directory, or gone. *)
let refresh hac path (files, dirs) =
  let fs = Hac.fs hac in
  let files =
    if Fs.is_file fs path then SMap.add path (Fs.read_file fs path) files
    else SMap.remove path files
  in
  let dirs =
    if Fs.is_dir fs path then SMap.add path (dir_entries hac path) dirs
    else SMap.remove path dirs
  in
  (files, dirs)

(* Rebuild the entries and link rows of each semantic directory that is new,
   whose stamp moved since [prev] recorded it, or that [force] names; keep
   the rest, and drop the rows of directories that are gone.  The stamps
   are read after building, because [Hac.links] can materialise links —
   only ever the links of a directory being built: every directory kept
   was materialised when its rows were first built. *)
let refresh_semdirs hac ~prev ~force (dirs, links) =
  let current = Hac.semdir_stamps hac in
  let stale (path, stamp) = force path || SMap.find_opt path prev <> Some stamp in
  let dirs, links, rebuilt =
    List.fold_left
      (fun ((dirs, links, n) as acc) ((path, _) as sd) ->
        if stale sd then
          (SMap.add path (dir_entries hac path) dirs, SMap.add path (linkrows hac path) links, n + 1)
        else acc)
      (dirs, links, 0) current
  in
  let stamps = SMap.of_seq (List.to_seq (Hac.semdir_stamps hac)) in
  let links = SMap.filter (fun path _ -> SMap.mem path stamps) links in
  (dirs, links, stamps, rebuilt)

let capture hac ~seq ~now =
  let fs = Hac.fs hac in
  let files = ref SMap.empty and dirs = ref SMap.empty in
  dirs := SMap.add "/" (dir_entries hac "/") !dirs;
  Fs.walk fs "/" (fun path st ->
      if not (in_meta path) then
        match st.Fs.st_kind with
        | Hac_vfs.Event.File -> files := SMap.add path (Fs.read_file fs path) !files
        | Hac_vfs.Event.Dir -> dirs := SMap.add path (dir_entries hac path) !dirs
        | Hac_vfs.Event.Link -> ());
  let dirs, links, stamps, rebuilt =
    refresh_semdirs hac ~prev:SMap.empty ~force:(fun _ -> true) (!dirs, SMap.empty)
  in
  { seq; published_s = now; files = !files; dirs; links; stamps; rebuilt }

let advance t hac ~seq ~now ~touched =
  (* Refresh the touched paths and their parents (an entry appeared or
     vanished there), then rebuild the semantic directories that changed —
     a settle may have rewritten link sets far from the touched paths, and
     each such rewrite moved the directory's stamp.  Everything else is
     shared structurally with the previous snapshot. *)
  let paths =
    List.sort_uniq compare
      (List.concat_map (fun p -> [ Vpath.normalize p; Vpath.normalize (Filename.dirname p) ]) touched)
  in
  let files, dirs = List.fold_left (fun acc p -> refresh hac p acc) (t.files, t.dirs) paths in
  let dirs, links, stamps, rebuilt =
    refresh_semdirs hac ~prev:t.stamps ~force:(fun p -> List.mem p paths) (dirs, t.links)
  in
  { seq; published_s = now; files; dirs; links; stamps; rebuilt }

(* Pure read against the snapshot.  Every failure surfaces as the same
   [Nack "unreadable"] the sequential spec produces, so the checker
   compares one normalized error surface. *)
let read t = function
  | Msg.Read p -> (
      match SMap.find_opt (Vpath.normalize p) t.files with
      | Some c -> Msg.Data c
      | None -> Msg.Nack "unreadable")
  | Msg.Readdir p -> (
      match SMap.find_opt (Vpath.normalize p) t.dirs with
      | Some es -> Msg.Entries es
      | None -> Msg.Nack "unreadable")
  | Msg.Links p -> (
      match SMap.find_opt (Vpath.normalize p) t.links with
      | Some rows -> Msg.Linkset rows
      | None -> Msg.Nack "unreadable")
