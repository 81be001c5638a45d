(* Tests for attribute transducers (SFS-style metadata extraction) and their
   integration with the index and the query language. *)

module Transducer = Hac_index.Transducer
module Index = Hac_index.Index
module Fileset = Hac_bitset.Fileset
module Hac = Hac_core.Hac
module Link = Hac_core.Link

let check_bool = Alcotest.(check bool)

let check_list = Alcotest.(check (list string))

let check_pairs = Alcotest.(check (list (pair string string)))

let mail =
  "From: Ana Lopez\nTo: bob\nSubject: Budget Draft\n\nPlease review the numbers.\n"

(* -- extraction units ---------------------------------------------------------- *)

let test_email_extraction () =
  let attrs = Transducer.email.Transducer.extract ~path:"/m.eml" ~content:mail in
  check_bool "from" true (List.mem ("from", "ana lopez") attrs);
  check_bool "to" true (List.mem ("to", "bob") attrs);
  check_bool "whole subject" true (List.mem ("subject", "budget draft") attrs);
  check_bool "subject word" true (List.mem ("subject", "budget") attrs);
  check_bool "body not headers" false (List.exists (fun (k, _) -> k = "please") attrs)

let test_email_ignores_nonmail () =
  check_pairs "plain text yields nothing" []
    (Transducer.email.Transducer.extract ~path:"/t.txt" ~content:"just some words\n")

let test_key_value () =
  let attrs =
    Transducer.key_value.Transducer.extract ~path:"/c.conf"
      ~content:"host: example\nport: 8080\n\nbody text: ignored? no - line 4 counts\n"
  in
  check_bool "host" true (List.mem ("host", "example") attrs);
  check_bool "port" true (List.mem ("port", "8080") attrs);
  (* Keys must be all letters. *)
  check_pairs "weird keys dropped" []
    (Transducer.key_value.Transducer.extract ~path:"/x" ~content:"a1b2: nope\n")

let test_file_type () =
  let ty path content =
    List.assoc "type" (Transducer.file_type.Transducer.extract ~path ~content)
  in
  Alcotest.(check string) "code" "code" (ty "/a.ml" "let x = 1");
  Alcotest.(check string) "mail ext" "mail" (ty "/a.eml" "hi");
  Alcotest.(check string) "mail sniffed" "mail" (ty "/a" mail);
  Alcotest.(check string) "text" "text" (ty "/a.txt" "plain words")

let test_combine () =
  let td = Transducer.combine [ Transducer.email; Transducer.file_type ] in
  let attrs = td.Transducer.extract ~path:"/m.eml" ~content:mail in
  check_bool "email attrs present" true (List.mem_assoc "from" attrs);
  check_bool "type present" true (List.mem_assoc "type" attrs)

(* -- index integration ----------------------------------------------------------- *)

let test_index_attr_docs () =
  let idx = Index.create ~block_size:1 ~transducer:Transducer.email () in
  let id = Index.add_document idx ~path:"/m1.eml" ~content:mail in
  ignore (Index.add_document idx ~path:"/m2.eml" ~content:"From: carol\n\nhi\n");
  check_bool "by from" true (Fileset.mem (Index.attr_docs idx "from" "ana lopez") id);
  check_bool "case folded" true (Fileset.mem (Index.attr_docs idx "FROM" "Ana Lopez") id);
  check_bool "other doc not" false (Fileset.mem (Index.attr_docs idx "from" "carol") id);
  check_bool "unknown attr empty" true (Fileset.is_empty (Index.attr_docs idx "zz" "x"));
  check_bool "attributes listed" true (List.mem ("from", "carol") (Index.attributes idx))

let test_index_without_transducer () =
  let idx = Index.create () in
  ignore (Index.add_document idx ~path:"/m.eml" ~content:mail);
  check_bool "no transducer, no attrs" true (Fileset.is_empty (Index.attr_docs idx "from" "ana lopez"))

let test_rebuild_keeps_attrs () =
  let docs = [ ("/m1.eml", mail) ] in
  let idx = Index.create ~block_size:1 ~transducer:Transducer.email () in
  List.iter (fun (p, c) -> ignore (Index.add_document idx ~path:p ~content:c)) docs;
  Index.rebuild idx ~may_read:(fun _ -> true) (fun id ->
      Option.bind (Index.doc_path idx id) (fun p -> List.assoc_opt p docs));
  check_bool "attrs survive rebuild" false
    (Fileset.is_empty (Index.attr_docs idx "from" "ana lopez"))

(* -- end to end through HAC --------------------------------------------------------- *)

let mail_world () =
  let t =
    Hac.create ~auto_sync:true
      ~transducer:(Transducer.combine [ Transducer.email; Transducer.file_type ])
      ()
  in
  Hac.mkdir_p t "/mail";
  Hac.write_file t "/mail/m1.eml" "From: ana\nSubject: budget\n\nnumbers\n";
  Hac.write_file t "/mail/m2.eml" "From: bob\nSubject: lunch\n\nfood\n";
  Hac.write_file t "/mail/m3.eml" "From: ana\nSubject: offsite\n\ntravel\n";
  Hac.write_file t "/notes.txt" "ana wrote about the budget\n";
  t

let transient_targets t dir =
  Hac.links t dir
  |> List.filter_map (fun l ->
         if l.Link.cls = Link.Transient then Some (Link.target_key l.Link.target) else None)
  |> List.sort compare

let test_attr_query_through_hac () =
  let t = mail_world () in
  Hac.smkdir t "/from-ana" "from:ana";
  (* Attribute match, not content match: notes.txt merely contains "ana". *)
  check_list "only ana's mail" [ "/mail/m1.eml"; "/mail/m3.eml" ] (transient_targets t "/from-ana");
  Hac.smkdir t "/ana-budget" "from:ana AND subject:budget";
  check_list "conjunction with attrs" [ "/mail/m1.eml" ] (transient_targets t "/ana-budget");
  Hac.smkdir t "/mailish" "type:mail";
  check_list "type attribute" [ "/mail/m1.eml"; "/mail/m2.eml"; "/mail/m3.eml" ]
    (transient_targets t "/mailish")

let test_attr_query_tracks_updates () =
  let t = mail_world () in
  Hac.smkdir t "/from-ana" "from:ana";
  Hac.write_file t "/mail/m4.eml" "From: ana\nSubject: new one\n\nmore\n";
  check_list "new mail appears"
    [ "/mail/m1.eml"; "/mail/m3.eml"; "/mail/m4.eml" ]
    (transient_targets t "/from-ana");
  (* Changing the sender moves the message out at the next settle. *)
  Hac.write_file t "/mail/m1.eml" "From: dave\nSubject: budget\n\nnumbers\n";
  ignore (Hac.reindex t ());
  check_list "rewritten sender leaves"
    [ "/mail/m3.eml"; "/mail/m4.eml" ]
    (transient_targets t "/from-ana")

let test_attr_no_transducer_empty () =
  let t = Hac.create ~auto_sync:true () in
  Hac.write_file t "/m.eml" mail;
  Hac.smkdir t "/q" "from:ana";
  check_list "no transducer -> nothing" [] (transient_targets t "/q")

let () =
  Alcotest.run "transducer"
    [
      ( "extraction",
        [
          Alcotest.test_case "email" `Quick test_email_extraction;
          Alcotest.test_case "email vs plain text" `Quick test_email_ignores_nonmail;
          Alcotest.test_case "key_value" `Quick test_key_value;
          Alcotest.test_case "file_type" `Quick test_file_type;
          Alcotest.test_case "combine" `Quick test_combine;
        ] );
      ( "index",
        [
          Alcotest.test_case "attr_docs" `Quick test_index_attr_docs;
          Alcotest.test_case "without transducer" `Quick test_index_without_transducer;
          Alcotest.test_case "rebuild keeps attrs" `Quick test_rebuild_keeps_attrs;
        ] );
      ( "hac",
        [
          Alcotest.test_case "attr queries" `Quick test_attr_query_through_hac;
          Alcotest.test_case "tracks updates" `Quick test_attr_query_tracks_updates;
          Alcotest.test_case "no transducer" `Quick test_attr_no_transducer_empty;
        ] );
    ]
