(* Differential property tests for data consistency (section 2.4): after any
   sequence of file operations and a reindex, the content index must agree
   exactly with the file system — and searching must find exactly the files
   whose current contents match. *)

module Hac = Hac_core.Hac
module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Index = Hac_index.Index
module Search = Hac_index.Search
module Fileset = Hac_bitset.Fileset
module StrSet = Set.Make (String)

let files = [| "/d0/a.txt"; "/d0/b.txt"; "/d1/c.txt"; "/d1/d.txt"; "/d2/e.txt" |]

let words = [| "red"; "green"; "blue"; "cyan" |]

type op =
  | Write of int * int (* file slot, word slot *)
  | Delete of int
  | MoveFile of int * int
  | MoveDir (* shuffle /d1 <-> /d3 *)

let pp_op = function
  | Write (f, w) -> Printf.sprintf "Write(%d,%d)" f w
  | Delete f -> Printf.sprintf "Delete(%d)" f
  | MoveFile (a, b) -> Printf.sprintf "MoveFile(%d,%d)" a b
  | MoveDir -> "MoveDir"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun f w -> Write (f, w)) (int_bound 4) (int_bound 3));
        (2, map (fun f -> Delete f) (int_bound 4));
        (2, map2 (fun a b -> MoveFile (a, b)) (int_bound 4) (int_bound 4));
        (1, return MoveDir);
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 30) gen_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let apply t op =
  let ignore_errors f = try f () with Hac_vfs.Errno.Error _ | Hac.Hac_error _ -> () in
  match op with
  | Write (f, w) ->
      ignore_errors (fun () ->
          Hac.write_file t files.(f) (Printf.sprintf "some %s text\n" words.(w)))
  | Delete f -> ignore_errors (fun () -> Hac.unlink t files.(f))
  | MoveFile (a, b) ->
      ignore_errors (fun () -> Hac.rename t ~src:files.(a) ~dst:files.(b))
  | MoveDir ->
      ignore_errors (fun () ->
          if Hac.exists t "/d1" then Hac.rename t ~src:"/d1" ~dst:"/d3"
          else Hac.rename t ~src:"/d3" ~dst:"/d1")

let fs_files t =
  Fs.find_files (Hac.fs t) "/"
  |> List.filter (fun p -> not (Vpath.is_prefix ~prefix:"/.hac" p))
  |> StrSet.of_list

let indexed_files t =
  Fileset.fold
    (fun id acc ->
      match Index.doc_path (Hac.index t) id with
      | Some p -> StrSet.add p acc
      | None -> acc)
    (Index.universe (Hac.index t))
    StrSet.empty

let build ops =
  let t = Hac.create ~stem:false () in
  List.iter (fun d -> Hac.mkdir_p t d) [ "/d0"; "/d1"; "/d2" ];
  List.iter (apply t) ops;
  ignore (Hac.reindex t ());
  t

let prop_index_matches_fs =
  QCheck.Test.make ~name:"after reindex the index mirrors the fs" ~count:200 arb_ops
    (fun ops ->
      let t = build ops in
      if not (StrSet.equal (fs_files t) (indexed_files t)) then
        QCheck.Test.fail_reportf "fs {%s} vs index {%s}"
          (String.concat ", " (StrSet.elements (fs_files t)))
          (String.concat ", " (StrSet.elements (indexed_files t)))
      else true)

let prop_search_matches_grep =
  QCheck.Test.make ~name:"search equals a grep over the fs" ~count:200 arb_ops
    (fun ops ->
      let t = build ops in
      let reader = Hac_remote.Remote_fs.fs_reader (Hac.fs t) in
      List.for_all
        (fun w ->
          let found =
            Fileset.fold
              (fun id acc ->
                match Index.doc_path (Hac.index t) id with
                | Some p -> StrSet.add p acc
                | None -> acc)
              (Search.search_word (Hac.index t) reader w)
              StrSet.empty
          in
          let expect =
            StrSet.filter
              (fun p ->
                Hac_index.Tokenizer.contains_word (Fs.read_file (Hac.fs t) p) w)
              (fs_files t)
          in
          StrSet.equal found expect)
        (Array.to_list words))

let prop_dirty_clears =
  QCheck.Test.make ~name:"reindex leaves nothing dirty" ~count:200 arb_ops (fun ops ->
      let t = build ops in
      Hac.dirty_count t = 0)

let () =
  Alcotest.run "consistency_prop"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_index_matches_fs; prop_search_matches_grep; prop_dirty_clears ] );
    ]
