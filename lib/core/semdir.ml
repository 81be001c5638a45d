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

let find_link sd name = Hashtbl.find_opt sd.links name

let link_by_target sd target =
  let key = Link.target_key target in
  Hashtbl.fold
    (fun _ l acc ->
      match acc with
      | Some _ -> acc
      | None -> if Link.target_key l.Link.target = key then Some l else None)
    sd.links None

let add_link sd l =
  Hashtbl.replace sd.links l.Link.name l;
  sd.meta_dirty <- true;
  bump sd

let remove_link sd name =
  match Hashtbl.find_opt sd.links name with
  | None -> None
  | Some l ->
      Hashtbl.remove sd.links name;
      sd.meta_dirty <- true;
      bump sd;
      Some l

let sorted_links ls = List.sort (fun a b -> compare a.Link.name b.Link.name) ls

let links_of_cls sd cls =
  Hashtbl.fold (fun _ l acc -> if l.Link.cls = cls then l :: acc else acc) sd.links []
  |> sorted_links

let all_links sd = Hashtbl.fold (fun _ l acc -> l :: acc) sd.links [] |> sorted_links

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

let fresh_link_name sd ~taken target =
  let base = Link.display_name target in
  let used name = Hashtbl.mem sd.links name || taken name in
  if not (used base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s~%d" base i in
      if used candidate then go (i + 1) else candidate
    in
    go 2

let approx_bytes sd =
  let word = Sys.int_size / 8 + 1 in
  let query_bytes = Hac_query.Ast.size sd.query * 4 * word in
  let links_bytes =
    Hashtbl.fold
      (fun name l acc ->
        acc + String.length name + String.length (Link.target_key l.Link.target) + (6 * word))
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
