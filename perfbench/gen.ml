(* The served workloads' op stream, deterministic from its seed.

   Reads target only paths no write ever touches (the stable corpus, its
   directories, the semantic directories), so a read never depends on
   whether a write in the same batch has been published yet.  Writes
   churn a fixed set of slot paths under [churn_dir]: a create fills a free
   slot, an unlink empties a live one, an append grows a live one.  The
   create/unlink choice steers the live count back to [live_target], so it
   never leaves [live_target - 1, live_target + 1]; the stream issues no
   [smkdir], so the semantic-directory count is constant.  A long run
   therefore measures a steady state rather than a tree that keeps growing. *)

type op =
  | Read of string
  | Readdir of string
  | Links of string
  | Create of string * string
  | Append of string * string
  | Unlink of string

type config = {
  read_share : float;  (** Fraction of ops that are reads. *)
  file_share : float;  (** Of reads: file reads (Zipf over [files]). *)
  readdir_share : float;  (** Of reads: listings of [dirs]; the rest is [Links]. *)
  files : string array;  (** Stable read targets, most popular first. *)
  zipf_s : float;
  dirs : string array;
  semdirs : string array;
  churn_dir : string;
  slots : int;
  live_target : int;
  append_share : float;  (** Of writes; the rest is create/unlink. *)
  body : Rng.t -> string;  (** Content for creates. *)
  append_body : Rng.t -> string;
}

(* A set of slot ids with O(1) insert, delete and uniform draw. *)
type bag = { items : int array; pos : int array; mutable size : int }

let bag_create cap = { items = Array.make cap 0; pos = Array.make cap (-1); size = 0 }

let bag_add b x =
  b.items.(b.size) <- x;
  b.pos.(x) <- b.size;
  b.size <- b.size + 1

let bag_remove b x =
  let i = b.pos.(x) in
  let last = b.items.(b.size - 1) in
  b.items.(i) <- last;
  b.pos.(last) <- i;
  b.pos.(x) <- -1;
  b.size <- b.size - 1

let bag_draw rng b = b.items.(Rng.int rng b.size)

type t = {
  cfg : config;
  ops_rng : Rng.t;
  body_rng : Rng.t;
  zipf : Rng.zipf;
  live : bag;
  free : bag;
}

let slot_path cfg i = Printf.sprintf "%s/c%05d.txt" cfg.churn_dir i

let create cfg ~seed =
  assert (cfg.live_target >= 1 && cfg.live_target < cfg.slots);
  let root = Rng.make seed in
  let t =
    {
      cfg;
      ops_rng = Rng.derive root "ops";
      body_rng = Rng.derive root "bodies";
      zipf = Rng.zipf ~n:(max 1 (Array.length cfg.files)) ~s:cfg.zipf_s;
      live = bag_create cfg.slots;
      free = bag_create cfg.slots;
    }
  in
  for i = 0 to cfg.slots - 1 do
    bag_add (if i < cfg.live_target then t.live else t.free) i
  done;
  t

(* The churn files that exist before the first op, with their contents:
   the caller creates them during set-up. *)
let initial_files t =
  List.init t.cfg.live_target (fun i -> (slot_path t.cfg i, t.cfg.body t.body_rng))

let live_count t = t.live.size

let next_read t =
  let c = t.cfg and r = t.ops_rng in
  let u = Rng.float r in
  if u < c.file_share && Array.length c.files > 0 then Read c.files.(Rng.draw r t.zipf)
  else if u < c.file_share +. c.readdir_share && Array.length c.dirs > 0 then
    Readdir (Rng.pick r c.dirs)
  else Links (Rng.pick r c.semdirs)

let next_write t =
  let c = t.cfg and r = t.ops_rng in
  if Rng.chance r c.append_share then
    Append (slot_path c (bag_draw r t.live), c.append_body t.body_rng)
  else
    let n = t.live.size in
    let create = if n < c.live_target then true else if n > c.live_target then false else Rng.chance r 0.5 in
    if create then begin
      let s = bag_draw r t.free in
      bag_remove t.free s;
      bag_add t.live s;
      Create (slot_path c s, c.body t.body_rng)
    end
    else begin
      let s = bag_draw r t.live in
      bag_remove t.live s;
      bag_add t.free s;
      Unlink (slot_path c s)
    end

let next t = if Rng.chance t.ops_rng t.cfg.read_share then next_read t else next_write t

let is_write = function Create _ | Append _ | Unlink _ -> true | Read _ | Readdir _ | Links _ -> false

(* Bytes of user content an op writes. *)
let user_bytes = function Create (_, b) | Append (_, b) -> String.length b | _ -> 0

let describe = function
  | Read p -> "read " ^ p
  | Readdir p -> "readdir " ^ p
  | Links p -> "links " ^ p
  | Create (p, b) -> Printf.sprintf "create %s (%d B)" p (String.length b)
  | Append (p, b) -> Printf.sprintf "append %s (%d B)" p (String.length b)
  | Unlink p -> "unlink " ^ p
