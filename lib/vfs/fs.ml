module Store = Hac_fault.Store

type t = {
  inodes : Inode.table;
  bus : Event.bus;
  mutable user : int;
  mutable disk : Store.t option;
      (* When attached, every successful mutation is recorded on the
         simulated device so the crash harness can rebuild any
         partially-persisted state.  Detached (the default) costs one
         match per mutation. *)
  mutable resolves : int;  (* path resolutions so far: a work count *)
}

type stat = {
  st_ino : Inode.ino;
  st_kind : Event.kind;
  st_size : int;
  st_mtime : int;
  st_ctime : int;
  st_nlink : int;
  st_uid : int;
  st_mode : int;
}

let max_symlink_depth = 40

let create () =
  {
    inodes = Inode.create_table ();
    bus = Event.create_bus ();
    user = 0;
    disk = None;
    resolves = 0;
  }

let set_user fs uid = fs.user <- uid

let current_user fs = fs.user

let attach_disk fs store = fs.disk <- Some store

let detach_disk fs = fs.disk <- None

let disk fs = fs.disk

let log_disk fs op = match fs.disk with None -> () | Some s -> Store.record s op

let fsync fs path = log_disk fs (Store.Fsync (Vpath.normalize path))

(* r=4, w=2, x=1.  The superuser bypasses everything; the owner uses the
   high bits, everyone else the low bits (group bits unused). *)
let allowed fs (n : Inode.t) want =
  fs.user = 0
  ||
  let bits = if fs.user = n.Inode.owner then n.Inode.mode lsr 6 else n.Inode.mode in
  bits land want = want

let require fs n want subject =
  if not (allowed fs n want) then Errno.raise_error Errno.EACCES subject

let events fs = fs.bus

let node fs ino = Inode.get fs.inodes ino

(* Resolve [path] to an inode.  [follow_last] controls whether a symlink in
   the final component is chased.  The loop is lexical-with-symlinks: we keep
   a stack of remaining components and splice in symlink targets, bounding
   total splices by [max_symlink_depth]. *)
let resolve_ino fs ~follow_last path =
  fs.resolves <- fs.resolves + 1;
  let orig = path in
  (* Carry the physical ancestor stack (inos up to the root) so ".." spliced
     in by relative symlink targets is O(1). *)
  let rec go stack comps depth =
    if depth > max_symlink_depth then Errno.raise_error Errno.ELOOP orig;
    match (stack, comps) with
    | ino :: _, [] -> ino
    | [], _ -> assert false
    | ino :: up, ".." :: rest ->
        let stack = if up = [] then [ ino ] else up in
        go stack rest depth
    | (ino :: _ as stack), name :: rest -> (
        let n = node fs ino in
        match n.Inode.body with
        | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR orig
        | Inode.Directory d -> (
            require fs n 1 orig (* search permission on every traversed dir *);
            match Hashtbl.find_opt d name with
            | None -> Errno.raise_error Errno.ENOENT orig
            | Some child_ino -> (
                let child = node fs child_ino in
                match child.Inode.body with
                | Inode.Symlink target when rest <> [] || follow_last ->
                    let tcomps = Vpath.split target in
                    let stack =
                      if Vpath.is_absolute target then [ List.nth stack (List.length stack - 1) ]
                      else stack
                    in
                    go stack (tcomps @ rest) (depth + 1)
                | _ -> go (child_ino :: stack) rest depth)))
  in
  go [ Inode.root_ino ] (Vpath.components path) 0

(* Like [resolve_ino] but also returns the physical path of the result, used
   by [resolve].  We rebuild names by tracking them alongside inos. *)
let resolve_physical fs path =
  fs.resolves <- fs.resolves + 1;
  let orig = path in
  let rec go stack comps depth =
    if depth > max_symlink_depth then Errno.raise_error Errno.ELOOP orig;
    match (stack, comps) with
    | _, [] -> List.rev_map snd stack
    | [], _ -> assert false
    | _ :: up, ".." :: rest ->
        let stack = if up = [] then stack else up in
        go stack rest depth
    | ((ino, _) :: _ as stack), name :: rest -> (
        let n = node fs ino in
        match n.Inode.body with
        | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR orig
        | Inode.Directory d -> (
            require fs n 1 orig;
            match Hashtbl.find_opt d name with
            | None -> Errno.raise_error Errno.ENOENT orig
            | Some child_ino -> (
                let child = node fs child_ino in
                match child.Inode.body with
                | Inode.Symlink target ->
                    let tcomps = Vpath.split target in
                    let stack =
                      if Vpath.is_absolute target then [ List.nth stack (List.length stack - 1) ]
                      else stack
                    in
                    go stack (tcomps @ rest) (depth + 1)
                | _ -> go ((child_ino, name) :: stack) rest depth)))
  in
  let names = go [ (Inode.root_ino, "") ] (Vpath.split (Vpath.normalize path)) 0 in
  match names with
  | [] | [ "" ] -> Vpath.root
  | "" :: rest -> "/" ^ String.concat "/" rest
  | _ -> assert false

(* Parent directory inode and final entry name of a path; the final
   component is *not* required to exist. *)
let locate_parent fs path =
  let path = Vpath.normalize path in
  if path = Vpath.root then Errno.raise_error Errno.EINVAL path;
  let parent = Vpath.dirname path and name = Vpath.basename path in
  if not (Vpath.valid_name name) then Errno.raise_error Errno.EINVAL path;
  let pino = resolve_ino fs ~follow_last:true parent in
  let pn = node fs pino in
  match pn.Inode.body with
  | Inode.Directory d -> (pn, d, name, path)
  | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR parent

let touch fs n =
  let stamp = Inode.tick fs.inodes in
  n.Inode.mtime <- stamp;
  n.Inode.ctime <- stamp

(* -- directories -------------------------------------------------------- *)

let mkdir fs path =
  let pn, d, name, path = locate_parent fs path in
  require fs pn 3 path (* write + search on the parent *);
  if Hashtbl.mem d name then Errno.raise_error Errno.EEXIST path;
  let n =
    Inode.alloc fs.inodes ~owner:fs.user ~mode:0o777 (Inode.Directory (Hashtbl.create 8))
  in
  n.Inode.nlink <- 1;
  Hashtbl.replace d name n.Inode.ino;
  log_disk fs (Store.Mkdir path);
  Event.publish fs.bus (Event.Created (Event.Dir, path))

let rec mkdir_p fs path =
  let path = Vpath.normalize path in
  if path <> Vpath.root then begin
    (try
       let ino = resolve_ino fs ~follow_last:true path in
       match (node fs ino).Inode.body with
       | Inode.Directory _ -> ()
       | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR path
     with Errno.Error (Errno.ENOENT, _) ->
       mkdir_p fs (Vpath.dirname path);
       mkdir fs path)
  end

let lookup_entry fs path =
  let pn, d, name, path = locate_parent fs path in
  match Hashtbl.find_opt d name with
  | None -> Errno.raise_error Errno.ENOENT path
  | Some ino -> (pn, d, name, ino, path)

let rmdir fs path =
  if Vpath.normalize path = Vpath.root then Errno.raise_error Errno.EBUSY path;
  let pn, d, name, ino, path = lookup_entry fs path in
  require fs pn 3 path;
  let n = node fs ino in
  (match n.Inode.body with
  | Inode.Directory entries ->
      if Hashtbl.length entries > 0 then Errno.raise_error Errno.ENOTEMPTY path
  | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR path);
  Hashtbl.remove d name;
  Inode.free fs.inodes ino;
  log_disk fs (Store.Rmdir path);
  Event.publish fs.bus (Event.Removed (Event.Dir, path))

let readdir fs path =
  let ino = resolve_ino fs ~follow_last:true path in
  let n = node fs ino in
  match n.Inode.body with
  | Inode.Directory d ->
      require fs n 4 (Vpath.normalize path);
      Hashtbl.fold (fun name _ acc -> name :: acc) d [] |> List.sort compare
  | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR path

(* -- files -------------------------------------------------------------- *)

let fresh_file () = Inode.Regular { Inode.bytes = Bytes.create 0; len = 0 }

let create_file fs path =
  let pn, d, name, path = locate_parent fs path in
  require fs pn 3 path;
  if Hashtbl.mem d name then Errno.raise_error Errno.EEXIST path;
  let n = Inode.alloc fs.inodes ~owner:fs.user ~mode:0o666 (fresh_file ()) in
  n.Inode.nlink <- 1;
  Hashtbl.replace d name n.Inode.ino;
  log_disk fs (Store.Create path);
  Event.publish fs.bus (Event.Created (Event.File, path))

let file_of_ino fs ino subject =
  let n = node fs ino in
  match n.Inode.body with
  | Inode.Regular f -> (n, f)
  | Inode.Directory _ -> Errno.raise_error Errno.EISDIR subject
  | Inode.Symlink _ -> Errno.raise_error Errno.EINVAL subject

let ensure_capacity f wanted =
  let open Inode in
  if Bytes.length f.bytes < wanted then begin
    let cap = max wanted (max 64 (2 * Bytes.length f.bytes)) in
    let bytes = Bytes.create cap in
    Bytes.blit f.bytes 0 bytes 0 f.len;
    f.bytes <- bytes
  end

let set_contents fs path content ~append =
  let path =
    try resolve_physical fs path with Errno.Error (Errno.ENOENT, _) -> Vpath.normalize path
  in
  let created =
    try
      ignore (resolve_ino fs ~follow_last:true path);
      false
    with Errno.Error (Errno.ENOENT, _) ->
      create_file fs path;
      true
  in
  let ino = resolve_ino fs ~follow_last:true path in
  let n, f = file_of_ino fs ino path in
  require fs n 2 path;
  let clen = String.length content in
  if append then begin
    ensure_capacity f (f.Inode.len + clen);
    Bytes.blit_string content 0 f.Inode.bytes f.Inode.len clen;
    f.Inode.len <- f.Inode.len + clen
  end
  else begin
    ensure_capacity f clen;
    Bytes.blit_string content 0 f.Inode.bytes 0 clen;
    f.Inode.len <- clen
  end;
  touch fs n;
  if not (created && clen = 0) then begin
    log_disk fs (if append then Store.Append (path, content) else Store.Write (path, content));
    Event.publish fs.bus (Event.Written path)
  end

let write_file fs path content = set_contents fs path content ~append:false

let append_file fs path content = set_contents fs path content ~append:true

let read_file fs path =
  let ino = resolve_ino fs ~follow_last:true path in
  let n, f = file_of_ino fs ino path in
  require fs n 4 (Vpath.normalize path);
  Bytes.sub_string f.Inode.bytes 0 f.Inode.len

let file_size fs path =
  let ino = resolve_ino fs ~follow_last:true path in
  let _, f = file_of_ino fs ino path in
  f.Inode.len

(* Drop entry [name] (inode [n], object [kind]) from directory table [d]. *)
let drop_entry fs d name (n : Inode.t) kind path =
  Hashtbl.remove d name;
  n.Inode.nlink <- n.Inode.nlink - 1;
  if n.Inode.nlink <= 0 then Inode.free fs.inodes n.Inode.ino;
  log_disk fs (Store.Unlink path);
  Event.publish fs.bus (Event.Removed (kind, path))

let unlink fs path =
  let pn, d, name, ino, path = lookup_entry fs path in
  require fs pn 3 path;
  let n = node fs ino in
  let kind =
    match n.Inode.body with
    | Inode.Directory _ -> Errno.raise_error Errno.EISDIR path
    | Inode.Regular _ -> Event.File
    | Inode.Symlink _ -> Event.Link
  in
  drop_entry fs d name n kind path

(* -- symlinks ------------------------------------------------------------ *)

(* Enter a new symbolic link [name] -> [target] into directory table [d]. *)
let enter_symlink fs d name path target =
  if Hashtbl.mem d name then Errno.raise_error Errno.EEXIST path;
  let n = Inode.alloc fs.inodes ~owner:fs.user ~mode:0o777 (Inode.Symlink target) in
  n.Inode.nlink <- 1;
  Hashtbl.add d name n.Inode.ino;
  log_disk fs (Store.Symlink { target; link = path });
  Event.publish fs.bus (Event.Created (Event.Link, path))

let symlink fs ~target ~link =
  let pn, d, name, path = locate_parent fs link in
  require fs pn 3 path;
  enter_symlink fs d name path target

let readlink fs path =
  let _, _, _, ino, path = lookup_entry fs path in
  match (node fs ino).Inode.body with
  | Inode.Symlink target -> target
  | Inode.Regular _ | Inode.Directory _ -> Errno.raise_error Errno.EINVAL path

(* -- link surgery on one directory ----------------------------------------

   A semantic directory's links come and go by the hundred.  Each
   operation below resolves the directory once and works on its entry
   table; the device still records, and the bus still publishes, one op and
   one event per link, in list order, as the per-link calls do. *)

let dir_table fs dir =
  let n = node fs (resolve_ino fs ~follow_last:true dir) in
  match n.Inode.body with
  | Inode.Directory d -> (n, d)
  | Inode.Regular _ | Inode.Symlink _ -> Errno.raise_error Errno.ENOTDIR dir

(* [dir] normalized and [name] a single entry name: no re-normalizing. *)
let entry_path dir name = if dir = Vpath.root then "/" ^ name else dir ^ "/" ^ name

let check_name dir name =
  if not (Vpath.valid_name name) then Errno.raise_error Errno.EINVAL (entry_path dir name)

let entry_test fs dir =
  let _, d = dir_table fs (Vpath.normalize dir) in
  fun name -> Hashtbl.mem d name

let add_symlinks fs dir links =
  match links with
  | [] -> ()
  | (first, _) :: _ ->
      let dir = Vpath.normalize dir in
      check_name dir first;
      let pn, d = dir_table fs dir in
      require fs pn 3 (entry_path dir first);
      List.iter
        (fun (name, target) ->
          check_name dir name;
          enter_symlink fs d name (entry_path dir name) target)
        links

let remove_symlinks fs dir names =
  if names = [] then 0
  else begin
    let dir = Vpath.normalize dir in
    let pn, d = dir_table fs dir in
    (* Write permission is checked where [unlink] would first need it: at
       the first link actually removed. *)
    let removed = ref 0 in
    List.iter
      (fun name ->
        check_name dir name;
        match Hashtbl.find_opt d name with
        | None -> ()
        | Some ino -> (
            let n = node fs ino in
            match n.Inode.body with
            | Inode.Symlink _ ->
                let path = entry_path dir name in
                if !removed = 0 then require fs pn 3 path;
                drop_entry fs d name n Event.Link path;
                incr removed
            | Inode.Regular _ | Inode.Directory _ -> ()))
      names;
    !removed
  end

let symlinks fs dir =
  let dir = Vpath.normalize dir in
  let n, d = dir_table fs dir in
  require fs n 4 dir;
  Hashtbl.fold
    (fun name ino acc ->
      match (node fs ino).Inode.body with
      | Inode.Symlink target -> (name, target) :: acc
      | Inode.Regular _ | Inode.Directory _ -> acc)
    d []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* -- rename --------------------------------------------------------------- *)

let rename fs ~src ~dst =
  let src_pn, src_d, src_name, src_ino, src_path = lookup_entry fs src in
  let dst_pn, dst_d, dst_name, dst_path = locate_parent fs dst in
  require fs src_pn 3 src_path;
  require fs dst_pn 3 dst_path;
  if src_path = dst_path then ()
  else begin
    let src_node = node fs src_ino in
    let src_is_dir =
      match src_node.Inode.body with Inode.Directory _ -> true | _ -> false
    in
    if src_is_dir && Vpath.is_prefix ~prefix:src_path dst_path then
      Errno.raise_error Errno.EINVAL dst_path;
    (match Hashtbl.find_opt dst_d dst_name with
    | None -> ()
    | Some old_ino -> (
        let old = node fs old_ino in
        match (src_node.Inode.body, old.Inode.body) with
        | _, Inode.Directory entries ->
            if not src_is_dir then Errno.raise_error Errno.EISDIR dst_path;
            if Hashtbl.length entries > 0 then Errno.raise_error Errno.ENOTEMPTY dst_path;
            Hashtbl.remove dst_d dst_name;
            Inode.free fs.inodes old_ino
        | Inode.Directory _, _ -> Errno.raise_error Errno.ENOTDIR dst_path
        | _, (Inode.Regular _ | Inode.Symlink _) ->
            Hashtbl.remove dst_d dst_name;
            old.Inode.nlink <- old.Inode.nlink - 1;
            if old.Inode.nlink <= 0 then Inode.free fs.inodes old_ino));
    Hashtbl.remove src_d src_name;
    Hashtbl.replace dst_d dst_name src_ino;
    touch fs src_node;
    log_disk fs (Store.Rename { src = src_path; dst = dst_path });
    Event.publish fs.bus (Event.Renamed (src_path, dst_path))
  end

(* -- status --------------------------------------------------------------- *)

let stat_of_node (n : Inode.t) =
  let kind =
    match n.Inode.body with
    | Inode.Regular _ -> Event.File
    | Inode.Directory _ -> Event.Dir
    | Inode.Symlink _ -> Event.Link
  in
  {
    st_ino = n.Inode.ino;
    st_kind = kind;
    st_size = Inode.size n;
    st_mtime = n.Inode.mtime;
    st_ctime = n.Inode.ctime;
    st_nlink = n.Inode.nlink;
    st_uid = n.Inode.owner;
    st_mode = n.Inode.mode;
  }

let stat fs path = stat_of_node (node fs (resolve_ino fs ~follow_last:true path))

let lstat fs path =
  if Vpath.normalize path = Vpath.root then stat fs Vpath.root
  else
    let _, _, _, ino, _ = lookup_entry fs path in
    stat_of_node (node fs ino)

let chmod fs ?(follow = true) path mode =
  let path = Vpath.normalize path in
  let n = node fs (resolve_ino fs ~follow_last:follow path) in
  if fs.user <> 0 && fs.user <> n.Inode.owner then Errno.raise_error Errno.EPERM path;
  n.Inode.mode <- mode land 0o777;
  touch fs n;
  log_disk fs (Store.Chmod (path, mode land 0o777))

let chown fs ?(follow = true) path uid =
  let path = Vpath.normalize path in
  let n = node fs (resolve_ino fs ~follow_last:follow path) in
  if fs.user <> 0 then Errno.raise_error Errno.EPERM path;
  n.Inode.owner <- uid;
  touch fs n;
  log_disk fs (Store.Chown (path, uid))

let access fs path want =
  match resolve_ino fs ~follow_last:true path with
  | ino -> allowed fs (node fs ino) want
  | exception Errno.Error _ -> false

let exists fs path =
  match stat fs path with _ -> true | exception Errno.Error _ -> false

let lexists fs path =
  match lstat fs path with _ -> true | exception Errno.Error _ -> false

let is_dir fs path =
  match stat fs path with
  | { st_kind = Event.Dir; _ } -> true
  | _ | (exception Errno.Error _) -> false

let is_file fs path =
  match stat fs path with
  | { st_kind = Event.File; _ } -> true
  | _ | (exception Errno.Error _) -> false

let is_symlink fs path =
  match lstat fs path with
  | { st_kind = Event.Link; _ } -> true
  | _ | (exception Errno.Error _) -> false

let resolve fs path = resolve_physical fs path

let walk fs dir f =
  let rec go dir_path =
    let names = readdir fs dir_path in
    let visit name =
      let p = Vpath.join dir_path name in
      let st = lstat fs p in
      f p st;
      if st.st_kind = Event.Dir then go p
    in
    List.iter visit names
  in
  let dir = Vpath.normalize dir in
  (match stat fs dir with
  | { st_kind = Event.Dir; _ } -> ()
  | _ -> Errno.raise_error Errno.ENOTDIR dir);
  go dir

let find_files fs dir =
  let acc = ref [] in
  walk fs dir (fun p st -> if st.st_kind = Event.File then acc := p :: !acc);
  List.sort compare !acc

let rmtree fs path =
  let path = Vpath.normalize path in
  (* Collect first, then delete children-before-parents. *)
  let objs = ref [] in
  walk fs path (fun p st -> objs := (p, st) :: !objs);
  let deeper (a, _) (b, _) = compare (Vpath.depth b) (Vpath.depth a) in
  List.iter
    (fun (p, st) -> if st.st_kind = Event.Dir then rmdir fs p else unlink fs p)
    (List.stable_sort deeper !objs);
  rmdir fs path

(* -- low-level ------------------------------------------------------------ *)

let ino_of_path fs path = resolve_ino fs ~follow_last:true path

let resolve_count fs = fs.resolves

let pread_ino fs ino ~pos ~len =
  if pos < 0 || len < 0 then Errno.raise_error Errno.EINVAL "pread";
  let n, f = file_of_ino fs ino "pread" in
  require fs n 4 "pread";
  if pos >= f.Inode.len then ""
  else
    let n = min len (f.Inode.len - pos) in
    Bytes.sub_string f.Inode.bytes pos n

let pwrite_ino fs ino ~path ~pos data =
  if pos < 0 then Errno.raise_error Errno.EINVAL "pwrite";
  let n, f = file_of_ino fs ino "pwrite" in
  require fs n 2 (Vpath.normalize path);
  let dlen = String.length data in
  ensure_capacity f (pos + dlen);
  if pos > f.Inode.len then Bytes.fill f.Inode.bytes f.Inode.len (pos - f.Inode.len) '\000';
  Bytes.blit_string data 0 f.Inode.bytes pos dlen;
  if pos + dlen > f.Inode.len then f.Inode.len <- pos + dlen;
  touch fs n;
  log_disk fs (Store.Pwrite (Vpath.normalize path, pos, data));
  Event.publish fs.bus (Event.Written (Vpath.normalize path));
  dlen

let size_ino fs ino =
  let _, f = file_of_ino fs ino "size" in
  f.Inode.len

(* -- accounting ------------------------------------------------------------ *)

let fold_tree fs f init =
  let acc = ref init in
  let root_stat = stat fs Vpath.root in
  acc := f Vpath.root root_stat !acc;
  walk fs Vpath.root (fun p st -> acc := f p st !acc);
  !acc

let file_count fs =
  fold_tree fs (fun _ st n -> if st.st_kind = Event.File then n + 1 else n) 0

let dir_count fs =
  fold_tree fs (fun _ st n -> if st.st_kind = Event.Dir then n + 1 else n) 0

let total_bytes fs =
  fold_tree fs (fun _ st n -> if st.st_kind = Event.File then n + st.st_size else n) 0

(* Rough per-object metadata estimate: a fixed inode record plus the entry
   name, mirroring what a real FS stores per object. *)
let inode_record_bytes = 64

let metadata_bytes fs =
  fold_tree fs
    (fun p _ n -> n + inode_record_bytes + String.length (Vpath.basename p))
    0
