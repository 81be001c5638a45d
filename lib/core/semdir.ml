type remote_result = {
  rr_ns : string;
  rr_uri : string;
  rr_name : string;
  rr_stale : bool;
}

type t = {
  uid : int;
  mutable query : Hac_query.Ast.t;
  links : (string, Link.t) Hashtbl.t;
  by_target : (string, string) Hashtbl.t;
  next_suffix : (string, int ref) Hashtbl.t;
  mutable listing : Link.t list option;
  mutable transient_local : Hac_bitset.Fileset.t;
  mutable transient_remote : remote_result list;
  mutable materialized : bool;
  prohibited : (string, unit) Hashtbl.t;
  mutable last_synced : int;
  mutable meta_dirty : bool;
  mutable stamp : int;
}

(* One counter for the whole process: a directory removed and recreated at
   the same path never reuses a stamp a reader may have recorded. *)
let stamps = Atomic.make 0

let next_stamp () = Atomic.fetch_and_add stamps 1 + 1

let bump sd = sd.stamp <- next_stamp ()

let create ~uid query =
  {
    uid;
    query;
    links = Hashtbl.create 16;
    by_target = Hashtbl.create 16;
    next_suffix = Hashtbl.create 8;
    listing = None;
    transient_local = Hac_bitset.Fileset.empty;
    transient_remote = [];
    materialized = false;
    prohibited = Hashtbl.create 8;
    last_synced = 0;
    meta_dirty = true;
    stamp = next_stamp ();
  }

(* The query is persisted metadata: a change must reach disk even when the
   result it selects is unchanged. *)
let set_query sd q =
  sd.query <- q;
  sd.meta_dirty <- true

let set_transient_local sd s =
  sd.transient_local <- s;
  bump sd

let set_transient_remote sd rs =
  sd.transient_remote <- rs;
  bump sd

let set_materialized sd b =
  sd.materialized <- b;
  bump sd

let mark_synced sd stamp = sd.last_synced <- stamp

let mark_persisted sd = sd.meta_dirty <- false

let mark_meta_dirty sd = sd.meta_dirty <- true

let find_link sd name = Hashtbl.find_opt sd.links name

let names_of_key sd key = Hashtbl.find_all sd.by_target key

(* Aliases (several links to one target) are rare, so a key has few
   bindings; among aliases the smallest name answers. *)
let link_by_target sd target =
  match names_of_key sd (Link.target_key target) with
  | [] -> None
  | n :: rest -> find_link sd (List.fold_left min n rest)

let links_to sd key = List.filter_map (find_link sd) (names_of_key sd key)

let has_permanent sd key =
  List.exists (fun l -> l.Link.cls = Link.Permanent) (links_to sd key)

(* -- the naming memo ---------------------------------------------------------

   Collision names are [base~i], i >= 2.  [next_suffix] keeps, per base, a
   suffix below which every [base~i] is a present link, so a fresh name is
   sought from there instead of from 2.  Adding [base~m] at the memo moves
   it to m+1; removing [base~i] lowers it to [i].  A name splits at its
   last '~' into the one (base, i) it can collide as; a suffix that is not
   the canonical decimal of some i >= 2 collides as nothing. *)

(* [base ^ "~" ^ string_of_int i] for i >= 0, in one allocation and
   without [string_of_int]'s format interpretation. *)
let suffixed base i =
  let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
  let w = width i and bl = String.length base in
  let b = Bytes.create (bl + 1 + w) in
  Bytes.blit_string base 0 b 0 bl;
  Bytes.set b bl '~';
  let rec fill n pos =
    Bytes.set b pos (Char.unsafe_chr (48 + (n mod 10)));
    if n >= 10 then fill (n / 10) (pos - 1)
  in
  fill i (bl + w);
  Bytes.unsafe_to_string b

let split_suffix name =
  match String.rindex_opt name '~' with
  | None -> None
  | Some j -> (
      let digits = String.sub name (j + 1) (String.length name - j - 1) in
      match int_of_string_opt digits with
      | Some i when i >= 2 && string_of_int i = digits -> Some (String.sub name 0 j, i)
      | Some _ | None -> None)

let memo sd base = match Hashtbl.find_opt sd.next_suffix base with Some m -> !m | None -> 2

let memo_cell sd base =
  match Hashtbl.find_opt sd.next_suffix base with
  | Some r -> r
  | None ->
      let r = ref 2 in
      Hashtbl.add sd.next_suffix base r;
      r

(* [by_target] holds one binding per alias, and a key nearly always has
   just one. *)
let unindex_name sd key name =
  match Hashtbl.find_all sd.by_target key with
  | [ n ] when n = name -> Hashtbl.remove sd.by_target key
  | names ->
      List.iter (fun _ -> Hashtbl.remove sd.by_target key) names;
      List.iter (fun n -> if n <> name then Hashtbl.add sd.by_target key n) (List.rev names)

(* Only the permanent links are persisted metadata; a transient link is
   the result bitmap's to record. *)
let note_meta sd l = if l.Link.cls = Link.Permanent then sd.meta_dirty <- true

let forget sd name =
  match Hashtbl.find_opt sd.links name with
  | None -> None
  | Some l ->
      Hashtbl.remove sd.links name;
      unindex_name sd (Link.target_key l.Link.target) name;
      sd.listing <- None;
      note_meta sd l;
      Some l

(* Enter [l], whose name is not present, into the tables. *)
let insert sd l =
  Hashtbl.add sd.links l.Link.name l;
  sd.listing <- None;
  Hashtbl.add sd.by_target (Link.target_key l.Link.target) l.Link.name;
  note_meta sd l;
  bump sd

let add_link sd l =
  ignore (forget sd l.Link.name);
  insert sd l;
  match split_suffix l.Link.name with
  | Some (base, i) when i = memo sd base -> memo_cell sd base := i + 1
  | Some _ | None -> ()

let remove_link sd name =
  match forget sd name with
  | None -> None
  | Some l ->
      (match split_suffix name with
      | Some (base, i) when i < memo sd base -> memo_cell sd base := i
      | Some _ | None -> ());
      bump sd;
      Some l

let sorted_links ls = List.sort (fun a b -> compare a.Link.name b.Link.name) ls

let links_of_cls sd cls =
  Hashtbl.fold (fun _ l acc -> if l.Link.cls = cls then l :: acc else acc) sd.links []
  |> sorted_links

let all_links sd =
  match sd.listing with
  | Some ls -> ls
  | None ->
      let ls = Hashtbl.fold (fun _ l acc -> l :: acc) sd.links [] |> sorted_links in
      sd.listing <- Some ls;
      ls

let prohibit sd key =
  Hashtbl.replace sd.prohibited key ();
  sd.meta_dirty <- true

let unprohibit sd key =
  if Hashtbl.mem sd.prohibited key then begin
    Hashtbl.remove sd.prohibited key;
    sd.meta_dirty <- true
  end

let is_prohibited sd key = Hashtbl.mem sd.prohibited key

let prohibited_keys sd =
  Hashtbl.fold (fun k () acc -> k :: acc) sd.prohibited [] |> List.sort compare

type found =
  | Plain
  | Suffixed of { memo : int ref; suffix : int; frontier : int }
      (** The base's memo cell, the suffix taken, and the first suffix from
          the memo on that is not a present link — it never passes a
          [taken] entry, which may go away unseen. *)

(* The rule: the display name, else the smallest [base~i] (i >= 2) that is
   neither a present link nor [taken].  Every suffix below the memo is a
   present link, so the search starts there.  Returns the name, how it was
   found, and the candidates tested. *)
let search sd ~taken base =
  if not (Hashtbl.mem sd.links base || taken base) then (base, Plain, 1)
  else
    let memo = memo_cell sd base in
    let rec go i probes frontier =
      let candidate = suffixed base i in
      if Hashtbl.mem sd.links candidate then
        go (i + 1) (probes + 1) (if frontier = i then i + 1 else frontier)
      else if taken candidate then go (i + 1) (probes + 1) frontier
      else (candidate, Suffixed { memo; suffix = i; frontier }, probes + 1)
    in
    go !memo 1 !memo

let fresh_link_name sd ~taken target =
  let name, found, probes = search sd ~taken (Link.display_name target) in
  (match found with Suffixed { memo; frontier; _ } -> memo := frontier | Plain -> ());
  (name, probes)

(* Once the name is in, the frontier passes it when the two meet. *)
let add_fresh_link sd ~taken target cls =
  let name, found, probes = search sd ~taken (Link.display_name target) in
  insert sd { Link.name; target; cls };
  (match found with
  | Suffixed { memo; suffix; frontier } ->
      memo := if suffix = frontier then suffix + 1 else frontier
  | Plain -> ());
  (name, probes)

let approx_bytes sd =
  let word = Sys.int_size / 8 + 1 in
  let query_bytes = Hac_query.Ast.size sd.query * 4 * word in
  (* A link's record, plus its by-target binding (a bucket cell; the key
     and name strings are the record's). *)
  let links_bytes =
    Hashtbl.fold
      (fun name l acc ->
        acc + String.length name + String.length (Link.target_key l.Link.target) + (12 * word))
      sd.links 0
  in
  let result_bytes =
    Hac_bitset.Fileset.byte_size sd.transient_local
    + List.fold_left
        (fun acc r -> acc + String.length r.rr_uri + String.length r.rr_name + (4 * word))
        0 sd.transient_remote
  in
  let prohibited_bytes =
    Hashtbl.fold (fun k () acc -> acc + String.length k + (3 * word)) sd.prohibited 0
  in
  query_bytes + links_bytes + result_bytes + prohibited_bytes + (8 * word)
