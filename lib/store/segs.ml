(* Immutable on-disk postings segments.

   A segment file is a sealed {e term directory} followed by a raw
   payload:

     HACCKPT1 <dirlen> <dircrc>\n<directory text><payload bytes>

   The directory (one line per term: payload offset, slice length, slice
   checksum, cardinality, term key) is small, verified as a unit and kept
   memory-resident; term slices — the posting lists themselves — are
   loaded lazily with positioned reads ({!Hac_vfs.Fs.pread_ino}), never
   all at once, which is the mmap-style access the tier is after.  Reads
   go against the file-system tree the simulated device reconstructs, so
   torn and bit-flipped segment writes surface here exactly as a real
   crash would leave them.

   Damage is graded: an unreadable directory fails {!load} (the mount
   falls back to the full oracle), while a damaged individual slice
   returns {!Damaged} and the caller substitutes the whole live universe
   for that term — a sound superset, verification trims it. *)

module Fs = Hac_vfs.Fs
module Fileset = Hac_bitset.Fileset

type slot = { off : int; len : int; crc : int; card : int }

type t = {
  fs : Fs.t;
  path : string;
  ino : Hac_vfs.Inode.ino;
  base : int;  (* payload offset of slot 0 within the file *)
  dir : (string, slot) Hashtbl.t;
  loaded : (string, Fileset.t) Hashtbl.t;  (* verified, parsed slices *)
}

let path t = t.path
let term_count t = Hashtbl.length t.dir

(* -- writing --------------------------------------------------------------- *)

let render entries =
  let pay = Buffer.create 4096 in
  let dir = Buffer.create 1024 in
  List.iter
    (fun (term, ids) ->
      let slice = String.concat " " (List.map string_of_int ids) in
      Printf.bprintf dir "%d %d %08x %d %s\n" (Buffer.length pay) (String.length slice)
        (Seal.checksum slice) (List.length ids) term;
      Buffer.add_string pay slice)
    entries;
  Seal.seal_blob (Buffer.contents dir) ^ Buffer.contents pay

(* Publish atomically: scratch, fsync, rename, fsync — under the device's
   in-order durability model anything that later references this segment
   (manifest, checkpoint) can only be durable once the segment is. *)
let write fs path entries =
  let tmp = Layout.tmp_path ("seg-" ^ Hac_vfs.Vpath.basename path) in
  Fs.mkdir_p fs (Hac_vfs.Vpath.dirname path);
  Fs.write_file fs tmp (render entries);
  Fs.fsync fs tmp;
  Fs.rename fs ~src:tmp ~dst:path;
  Fs.fsync fs path

(* -- loading --------------------------------------------------------------- *)

let parse_dir_line line =
  match String.split_on_char ' ' line with
  | off :: len :: crc :: card :: (_ :: _ as term) -> (
      match
        ( int_of_string_opt off,
          int_of_string_opt len,
          int_of_string_opt ("0x" ^ crc),
          int_of_string_opt card )
      with
      | Some off, Some len, Some crc, Some card when off >= 0 && len >= 0 ->
          Some (String.concat " " term, { off; len; crc; card })
      | _ -> None)
  | _ -> None

let load fs path : (t, string) result =
  match Fs.ino_of_path fs path with
  | exception Hac_vfs.Errno.Error _ -> Error (path ^ ": missing")
  | ino -> (
      let head = Fs.pread_ino fs ino ~pos:0 ~len:80 in
      match String.index_opt head '\n' with
      | None -> Error (path ^ ": bad segment header")
      | Some nl -> (
          match String.split_on_char ' ' (String.sub head 0 nl) with
          | [ magic; len_s; crc_s ] when magic = Seal.blob_magic -> (
              match (int_of_string_opt len_s, int_of_string_opt ("0x" ^ crc_s)) with
              | Some dlen, Some crc when dlen >= 0 ->
                  let dtext = Fs.pread_ino fs ino ~pos:(nl + 1) ~len:dlen in
                  if String.length dtext <> dlen || Seal.checksum dtext <> crc then
                    Error (path ^ ": torn term directory")
                  else begin
                    let dir = Hashtbl.create 256 in
                    let ok = ref true in
                    List.iter
                      (fun line ->
                        if line <> "" then
                          match parse_dir_line line with
                          | Some (term, slot) -> Hashtbl.replace dir term slot
                          | None -> ok := false)
                      (String.split_on_char '\n' dtext);
                    if not !ok then Error (path ^ ": malformed term directory")
                    else
                      Ok
                        {
                          fs;
                          path;
                          ino;
                          base = nl + 1 + dlen;
                          dir;
                          loaded = Hashtbl.create 64;
                        }
                  end
              | _ -> Error (path ^ ": bad segment header"))
          | _ -> Error (path ^ ": not a segment")))

type lookup = Hit of Fileset.t | Absent | Damaged

let rec digits tok i =
  i = String.length tok || match tok.[i] with '0' .. '9' -> digits tok (i + 1) | _ -> false

(* A slice as [render] writes it: document ids in decimal, one space
   apart.  Any other token — negative, not a decimal number, empty, past
   [max_int] — makes the whole slice [None]: dropping the token would lose
   postings, where a damaged slice must widen them. *)
let parse_slice slice =
  let id tok = if tok <> "" && digits tok 0 then int_of_string tok else failwith "Segs.id" in
  if slice = "" then Some []
  else
    match List.map id (String.split_on_char ' ' slice) with
    | ids -> Some ids
    | exception Failure _ -> None

(* [term t key ~on_load] — the posting set of one term key, faulting the
   slice in on first touch.  [on_load] fires once per slice actually read
   from the device (the [store.seg.loads] instrument).  Total: a slice that
   fails its checksum or does not parse is [Damaged]. *)
let term t key ~on_load =
  match Hashtbl.find_opt t.loaded key with
  | Some s -> Hit s
  | None -> (
      match Hashtbl.find_opt t.dir key with
      | None -> Absent
      | Some slot ->
          on_load ();
          let slice = Fs.pread_ino t.fs t.ino ~pos:(t.base + slot.off) ~len:slot.len in
          if String.length slice <> slot.len || Seal.checksum slice <> slot.crc then
            Damaged
          else
            match parse_slice slice with
            | None -> Damaged
            | Some ids ->
                let s = Fileset.of_list ids in
                Hashtbl.replace t.loaded key s;
                Hit s)

(* Cardinality straight from the verified directory — the planner's cost
   estimate never touches the payload. *)
let cost t key =
  match Hashtbl.find_opt t.dir key with Some slot -> slot.card | None -> 0

let iter_terms t f = Hashtbl.iter (fun key slot -> f key slot.card) t.dir
