type mode = Read_only | Write_only | Read_write

type entry = {
  ino : Inode.ino;
  path : string; (* the physical path at open time, for Written events *)
  mode : mode;
  mutable pos : int;
}

type t = {
  fs : Fs.t;
  mutable slots : entry option array;
  mutable open_slots : int;
}

let initial_slots = 64

let create fs = { fs; slots = Array.make initial_slots None; open_slots = 0 }

let find_free t =
  let n = Array.length t.slots in
  let rec go i = if i >= n then None else if t.slots.(i) = None then Some i else go (i + 1) in
  match go 0 with
  | Some i -> i
  | None ->
      let slots = Array.make (2 * n) None in
      Array.blit t.slots 0 slots 0 n;
      t.slots <- slots;
      n

let openfile t ?(create = false) mode path =
  (* Writes are announced under the file's physical path, as
     [Fs.write_file] does, so a write through a symbolic link names the
     file that observers (the content index) know. *)
  let path =
    try Fs.resolve t.fs path with Errno.Error (Errno.ENOENT, _) -> Vpath.normalize path
  in
  if create && not (Fs.exists t.fs path) then Fs.create_file t.fs path;
  let need = match mode with Read_only -> 4 | Write_only -> 2 | Read_write -> 6 in
  if Fs.exists t.fs path && not (Fs.access t.fs path need) then
    Errno.raise_error Errno.EACCES path;
  let ino = Fs.ino_of_path t.fs path in
  (* Reject directories now rather than on first read. *)
  ignore (Fs.pread_ino t.fs ino ~pos:0 ~len:0);
  let fd = find_free t in
  t.slots.(fd) <- Some { ino; path; mode; pos = 0 };
  t.open_slots <- t.open_slots + 1;
  fd

let entry t fd =
  if fd < 0 || fd >= Array.length t.slots then Errno.raise_error Errno.EBADF (string_of_int fd);
  match t.slots.(fd) with
  | None -> Errno.raise_error Errno.EBADF (string_of_int fd)
  | Some e -> e

let close t fd =
  ignore (entry t fd);
  t.slots.(fd) <- None;
  t.open_slots <- t.open_slots - 1

let read t fd len =
  let e = entry t fd in
  if e.mode = Write_only then Errno.raise_error Errno.EBADF (string_of_int fd);
  let data = Fs.pread_ino t.fs e.ino ~pos:e.pos ~len in
  e.pos <- e.pos + String.length data;
  data

let write t fd data =
  let e = entry t fd in
  if e.mode = Read_only then Errno.raise_error Errno.EBADF (string_of_int fd);
  let n = Fs.pwrite_ino t.fs e.ino ~path:e.path ~pos:e.pos data in
  e.pos <- e.pos + n;
  n

let seek t fd pos =
  if pos < 0 then Errno.raise_error Errno.EINVAL (string_of_int pos);
  let e = entry t fd in
  e.pos <- pos;
  pos

let position t fd = (entry t fd).pos

let size t fd = Fs.size_ino t.fs (entry t fd).ino

let read_all t fd =
  let e = entry t fd in
  let len = max 0 (Fs.size_ino t.fs e.ino - e.pos) in
  read t fd len

let open_count t = t.open_slots

(* One slot record is roughly: ino + mode + pos + path pointer + path
   bytes.  The array itself costs a word per slot. *)
let approx_bytes t =
  let word = Sys.int_size / 8 + 1 in
  let slot_cost acc = function
    | None -> acc + word
    | Some e -> acc + (5 * word) + String.length e.path
  in
  Array.fold_left slot_cost 0 t.slots
