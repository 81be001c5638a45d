module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Index = Hac_index.Index
module Search = Hac_index.Search
module Fileset = Hac_bitset.Fileset

(* A '/' inside the namespace id would make "hacfs://<ns_id><path>" ambiguous
   to split, so it is rejected wherever an id enters this module. *)
let check_ns_id ns_id =
  if ns_id = "" || String.contains ns_id '/' then
    invalid_arg (Printf.sprintf "Remote_fs: bad ns_id %S (must be non-empty, no '/')" ns_id)

let uri_of_path ~ns_id path =
  check_ns_id ns_id;
  "hacfs://" ^ ns_id ^ Vpath.normalize path

let path_of_uri ~ns_id uri =
  check_ns_id ns_id;
  let prefix = "hacfs://" ^ ns_id ^ "/" in
  let plen = String.length prefix in
  if String.length uri >= plen && String.sub uri 0 plen = prefix then
    Some (Vpath.normalize (String.sub uri (plen - 1) (String.length uri - plen + 1)))
  else None

let fs_reader fs =
  {
    Search.read = (fun path -> try Some (Fs.read_file fs path) with Hac_vfs.Errno.Error _ -> None);
    may_read = (fun path -> Fs.access fs path 4 (* R_OK *));
  }

let create ~ns_id fs index =
  check_ns_id ns_id;
  let reader = fs_reader fs in
  let attr_match key value id =
    match Index.doc_path index id with
    | None -> false
    | Some path -> Vpath.matches_builtin_attr ~key ~value path
  in
  let env =
    {
      Hac_query.Eval.universe = (fun () -> Index.universe index);
      word = (fun ?within w -> Search.search_word ?within index reader w);
      phrase = (fun ?within ws -> Search.search_phrase ?within index reader ws);
      approx =
        (fun ?within w k -> Search.search_approx ?within index reader ~word:w ~errors:k);
      attr =
        (fun ?within:_ key value ->
          Fileset.filter (attr_match key value) (Index.universe index));
      regex = (fun ?within r -> Search.search_regex ?within index reader r);
      dirref = (fun ?within:_ _ -> Fileset.empty);
    }
  in
  let entry_of_id id =
    match Index.doc_path index id with
    | None -> None
    | Some path ->
        Some
          {
            Namespace.name = Vpath.basename path;
            uri = uri_of_path ~ns_id path;
            summary = path;
          }
  in
  let search q =
    match Hac_query.Parser.parse_result q with
    | Error _ -> []
    | Ok ast ->
        Fileset.fold
          (fun id acc -> match entry_of_id id with Some e -> e :: acc | None -> acc)
          (Hac_query.Eval.eval env ast) []
        |> List.rev
  in
  let fetch uri =
    match path_of_uri ~ns_id uri with None -> None | Some path -> reader.read path
  in
  let list_all () =
    Fileset.fold
      (fun id acc -> match entry_of_id id with Some e -> e :: acc | None -> acc)
      (Index.universe index) []
    |> List.rev
  in
  Namespace.make ~ns_id ~lang:Namespace.Hac_syntax ~search ~fetch ~list_all ()
