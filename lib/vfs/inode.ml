type ino = int

type file_data = { mutable bytes : Bytes.t; mutable len : int }

type body =
  | Regular of file_data
  | Directory of (string, ino) Hashtbl.t
  | Symlink of string

type t = {
  ino : ino;
  mutable body : body;
  mutable nlink : int;
  mutable mtime : int;
  mutable ctime : int;
  mutable owner : int;
  mutable mode : int;
}

type table = {
  inodes : (ino, t) Hashtbl.t;
  mutable next : ino;
  mutable clock : int;
}

let root_ino = 0

let create_table () =
  let tbl = { inodes = Hashtbl.create 1024; next = 1; clock = 0 } in
  let root =
    {
      ino = root_ino;
      body = Directory (Hashtbl.create 16);
      nlink = 1;
      mtime = 0;
      ctime = 0;
      owner = 0;
      mode = 0o777;
    }
  in
  Hashtbl.replace tbl.inodes root_ino root;
  tbl

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let alloc t ?(owner = 0) ?(mode = 0o777) body =
  let ino = t.next in
  t.next <- t.next + 1;
  let stamp = tick t in
  let node = { ino; body; nlink = 0; mtime = stamp; ctime = stamp; owner; mode } in
  Hashtbl.add t.inodes ino node (* a fresh number: no binding to replace *);
  node

let get t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Inode.get: dangling inode %d" ino)

let free t ino = Hashtbl.remove t.inodes ino

let count t = Hashtbl.length t.inodes

let size n =
  match n.body with
  | Regular f -> f.len
  | Directory d -> Hashtbl.length d
  | Symlink s -> String.length s

let kind_name n =
  match n.body with
  | Regular _ -> "file"
  | Directory _ -> "dir"
  | Symlink _ -> "symlink"
