(* Tests for crash recovery (metadata persistence + reload), the prohibit
   API, and syntactic mount points. *)

module Hac = Hac_core.Hac
module Recover = Hac_core.Recover
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Errno = Hac_vfs.Errno

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_list = Alcotest.(check (list string))

let transient_targets t dir =
  Hac.links t dir
  |> List.filter_map (fun l ->
         if l.Link.cls = Link.Transient then Some (Link.target_key l.Link.target) else None)
  |> List.sort compare

let permanent_targets t dir =
  Hac.links t dir
  |> List.filter_map (fun l ->
         if l.Link.cls = Link.Permanent then Some (Link.target_key l.Link.target) else None)
  |> List.sort compare

(* Build a world, let HAC persist its structures, then "crash": keep only
   the raw file system and bring up a fresh instance over it. *)
let build_and_crash () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/a.txt" "alpha text\n";
  Hac.write_file t "/docs/b.txt" "alpha and beta\n";
  Hac.write_file t "/docs/c.txt" "gamma only\n";
  Hac.smkdir t "/alpha" "alpha";
  ignore (Hac.readdir t "/alpha") (* materialise so physical links persist *);
  Hac.remove_link t ~dir:"/alpha" ~name:"b.txt" (* prohibition to recover *);
  ignore (Hac.add_permanent t ~dir:"/alpha" ~target:"/docs/c.txt");
  Hac.ssync t "/alpha";
  Hac.shutdown ~graceful:false t;
  Hac.fs t (* the "disk" that survives the crash *)

(* End-to-end over the real event path (not just replay_journal): a
   semantic directory whose path contains spaces must come back. *)
let test_recover_dir_with_spaces () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/my docs";
  Hac.write_file t "/my docs/a.txt" "alpha text\n";
  Hac.smkdir t "/my docs/alpha files" "alpha";
  ignore (Hac.readdir t "/my docs/alpha files");
  Hac.shutdown ~graceful:false t;
  let t2 = Hac.of_fs ~auto_sync:true (Hac.fs t) in
  check_int "restored" 1 (Recover.reload t2);
  check_bool "semantic again" true (Hac.is_semantic t2 "/my docs/alpha files");
  check_list "links back" [ "/my docs/a.txt" ] (transient_targets t2 "/my docs/alpha files")

(* A mount that falls back to full replay reads the journal chain — and so
   loads the checkpoint image — once: the fast path's refusal hands its
   chain to [Hac.of_fs] and [Recover.reload_report]. *)
let test_full_replay_reads_chain_once () =
  let t = Hac.create () in
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/a.txt" "alpha text\n";
  Hac.smkdir t "/alpha" "alpha";
  Hac.enable_store t;
  ignore (Hac.checkpoint t : int);
  (* A post-checkpoint directory rename (an M record) refuses the fast path. *)
  Hac.mkdir_p t "/old";
  Hac.settle t;
  Hac.rename t ~src:"/old" ~dst:"/new";
  Hac.settle t;
  Hac.shutdown ~graceful:false t;
  let before = Hac_core.Journal.chain_reads () in
  let t2, mode = Recover.mount (Hac.fs t) in
  check_bool "full replay" true (mode = `Full);
  check_int "one chain read" 1 (Hac_core.Journal.chain_reads () - before);
  check_list "links back" [ "/docs/a.txt" ] (transient_targets t2 "/alpha")

(* A dirref persists as its target's path, so renaming an ancestor of the
   target must rewrite the referring directory's query file.  Otherwise a
   remount by full replay (the journal tail holds the rename's M record)
   cannot resolve the old path, and the referring directory is lost. *)
let test_dirref_survives_rename () =
  let t = Hac.create () in
  Hac.mkdir_p t "/a";
  Hac.write_file t "/a/x.txt" "apple banana\n";
  Hac.write_file t "/a/y.txt" "apple only\n";
  Hac.smkdir t "/a/q" "banana";
  Hac.smkdir t "/s" "apple AND {/a/q}";
  Hac.enable_store t;
  ignore (Hac.checkpoint t : int);
  Hac.rename t ~src:"/a" ~dst:"/b";
  Hac.settle t;
  Alcotest.(check (option string)) "query follows the rename" (Some "apple AND {/b/q}")
    (Hac.sreadin t "/s");
  Hac.shutdown t;
  let t2, mode = Recover.mount (Hac.fs t) in
  check_bool "full replay" true (mode = `Full);
  check_bool "target still semantic" true (Hac.is_semantic t2 "/b/q");
  check_bool "referrer still semantic" true (Hac.is_semantic t2 "/s");
  Alcotest.(check (option string)) "query recovered" (Some "apple AND {/b/q}")
    (Hac.sreadin t2 "/s");
  check_list "links back" [ "/b/x.txt" ] (transient_targets t2 "/s")

let test_journal_accounting () =
  let fs = build_and_crash () in
  (* Damage the log: one garbage line up front, one torn record at the end. *)
  let log = Fs.read_file fs "/.hac/dirs.log" in
  Fs.write_file fs "/.hac/dirs.log"
    ("not a sealed record\n" ^ String.sub log 0 (String.length log - 4) ^ "\n");
  let t2 = Hac.of_fs ~auto_sync:true fs in
  let r = Recover.reload_report t2 in
  check_int "corrupt counted" 2 r.Recover.journal.Recover.corrupt;
  check_bool "intact records applied" true (r.Recover.journal.Recover.applied >= 1);
  check_int "nothing malformed" 0 r.Recover.journal.Recover.malformed

let test_metadata_persisted () =
  let fs = build_and_crash () in
  check_bool "journal exists" true (Fs.is_file fs "/.hac/dirs.log");
  (* One structure-file set for the semantic directory. *)
  let metas = List.filter (fun n -> String.length n > 3 && String.sub n 0 3 = "sd-") (Fs.readdir fs "/.hac") in
  check_int "four structure files" 4 (List.length metas)

let test_reload_restores_everything () =
  let fs = build_and_crash () in
  let t2 = Hac.of_fs ~auto_sync:true fs in
  check_bool "plain before reload" false (Hac.is_semantic t2 "/alpha");
  let n = Recover.reload t2 in
  check_int "one restored" 1 n;
  check_bool "semantic again" true (Hac.is_semantic t2 "/alpha");
  Alcotest.(check (option string)) "query recovered" (Some "alpha") (Hac.sreadin t2 "/alpha");
  check_list "prohibition recovered" [ "/docs/b.txt" ] (Hac.prohibited t2 "/alpha");
  check_list "permanent recovered" [ "/docs/c.txt" ] (permanent_targets t2 "/alpha");
  check_list "transient recovered" [ "/docs/a.txt" ] (transient_targets t2 "/alpha");
  (* And the restored directory is live: new matching files flow in, the
     prohibition still holds. *)
  Hac.write_file t2 "/docs/d.txt" "more alpha\n";
  check_list "live after recovery" [ "/docs/a.txt"; "/docs/d.txt" ]
    (transient_targets t2 "/alpha")

let test_reload_idempotent () =
  let fs = build_and_crash () in
  let t2 = Hac.of_fs ~auto_sync:true fs in
  check_int "first" 1 (Recover.reload t2);
  check_int "second is a no-op" 0 (Recover.reload t2)

let test_reload_survives_rename () =
  (* Rename the semantic directory before the crash; the journal's M record
     must route recovery to the new path. *)
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/a.txt" "alpha\n";
  Hac.smkdir t "/old" "alpha";
  Hac.rename t ~src:"/old" ~dst:"/new";
  Hac.ssync t "/new";
  Hac.shutdown t;
  let t2 = Hac.of_fs ~auto_sync:true (Hac.fs t) in
  check_int "restored" 1 (Recover.reload t2);
  check_bool "at new path" true (Hac.is_semantic t2 "/new");
  check_bool "not at old" false (Hac.is_semantic t2 "/old")

let test_reload_skips_removed () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/a.txt" "alpha\n";
  Hac.smkdir t "/gone" "alpha";
  Hac.srmdir t "/gone";
  Hac.shutdown t;
  let t2 = Hac.of_fs ~auto_sync:true (Hac.fs t) in
  check_int "nothing to restore" 0 (Recover.reload t2)

let test_reload_restores_dirrefs () =
  (* Queries referencing other directories persist as paths and re-resolve
     against the new instance's identifiers. *)
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/a.txt" "alpha beta\n";
  Hac.write_file t "/docs/b.txt" "alpha only\n";
  Hac.smkdir t "/alpha" "alpha";
  Hac.smkdir t "/combo" "{/alpha} AND beta";
  Hac.shutdown t;
  let t2 = Hac.of_fs ~auto_sync:true (Hac.fs t) in
  check_int "both restored" 2 (Recover.reload t2);
  (* Restoring evaluates nothing: the reload's one full pass does. *)
  let count name =
    match Hac_obs.Metrics.find (Hac.metrics t2) name with
    | Some (Hac_obs.Metrics.Counter_value n) -> n
    | _ -> -1
  in
  check_int "no per-directory pass" 0 (count "sync.from.count");
  check_int "one full pass" 1 (count "sync.full.count");
  Alcotest.(check (option string))
    "dirref query recovered" (Some "{/alpha} AND beta") (Hac.sreadin t2 "/combo");
  check_list "dirref still evaluates" [ "/docs/a.txt" ] (transient_targets t2 "/combo");
  (* ...and the dependency edge is live again: prune upstream, downstream
     follows. *)
  Hac.remove_link t2 ~dir:"/alpha" ~name:"a.txt";
  Hac.ssync t2 "/alpha";
  check_list "propagation works post-recovery" [] (transient_targets t2 "/combo")

let test_journal_paths () =
  let fs = build_and_crash () in
  let t2 = Hac.of_fs fs in
  let paths = List.map snd (Recover.journal_paths t2) in
  check_bool "docs journaled" true (List.mem "/docs" paths);
  check_bool "alpha journaled" true (List.mem "/alpha" paths)

let test_checkpoint_rewrites () =
  let fs = build_and_crash () in
  let t2 = Hac.of_fs ~auto_sync:true fs in
  ignore (Recover.reload t2);
  (* After reload+checkpoint, a second crash/recovery round works too. *)
  Hac.shutdown t2;
  let t3 = Hac.of_fs ~auto_sync:true (Hac.fs t2) in
  check_int "second generation recovers" 1 (Recover.reload t3);
  check_list "state intact" [ "/docs/b.txt" ] (Hac.prohibited t3 "/alpha")

(* -- prohibit_target -------------------------------------------------------------- *)

let test_prohibit_target_api () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/a.txt" "alpha\n";
  Hac.write_file t "/docs/b.txt" "alpha too\n";
  Hac.smkdir t "/q" "alpha";
  (* Prohibit a currently-linked target: link disappears. *)
  Hac.prohibit_target t ~dir:"/q" ~target:"/docs/a.txt";
  Hac.ssync t "/q";
  check_list "linked target removed" [ "/docs/b.txt" ] (transient_targets t "/q");
  (* Prohibit a not-yet-linked target: it never appears. *)
  Hac.prohibit_target t ~dir:"/q" ~target:"/docs/c.txt";
  Hac.write_file t "/docs/c.txt" "alpha as well\n";
  check_list "pre-prohibited never appears" [ "/docs/b.txt" ] (transient_targets t "/q")

(* -- syntactic mounts -------------------------------------------------------------- *)

let other_user_fs () =
  let fs = Fs.create () in
  Fs.mkdir_p fs "/projects/fp";
  Fs.write_file fs "/projects/fp/notes.txt" "their fingerprint notes\n";
  Fs.symlink fs ~target:"/projects/fp/notes.txt" ~link:"/projects/fp/alias";
  fs

let test_syntactic_mount_browsing () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/home/me";
  Hac.mkdir_p t "/net/peer";
  Hac.smount_fs t "/net/peer" (other_user_fs ());
  check_list "mount point listed" [ "/net/peer" ] (Hac.syntactic_mount_points t);
  check_list "browse root" [ "projects" ] (Hac.readdir t "/net/peer");
  check_list "browse deeper" [ "alias"; "notes.txt" ] (Hac.readdir t "/net/peer/projects/fp");
  Alcotest.(check string)
    "read through" "their fingerprint notes\n"
    (Hac.read_file t "/net/peer/projects/fp/notes.txt");
  Alcotest.(check string)
    "readlink through" "/projects/fp/notes.txt"
    (Hac.readlink t "/net/peer/projects/fp/alias");
  check_bool "exists" true (Hac.exists t "/net/peer/projects");
  check_bool "is_dir" true (Hac.is_dir t "/net/peer/projects")

let test_syntactic_mount_read_only () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/net/peer";
  Hac.smount_fs t "/net/peer" (other_user_fs ());
  let expect_rofs f =
    match f () with
    | _ -> Alcotest.fail "expected EROFS"
    | exception Errno.Error (Errno.EROFS, _) -> ()
  in
  expect_rofs (fun () -> Hac.write_file t "/net/peer/projects/evil.txt" "x");
  expect_rofs (fun () -> Hac.mkdir t "/net/peer/projects/sub");
  expect_rofs (fun () -> Hac.unlink t "/net/peer/projects/fp/notes.txt");
  expect_rofs (fun () -> Hac.rename t ~src:"/net/peer/projects" ~dst:"/mine")

let test_syntactic_unmount () =
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/net/peer";
  Hac.write_file t "/net/peer/local.txt" "shadowed\n";
  Hac.smount_fs t "/net/peer" (other_user_fs ());
  check_bool "local shadowed" false (List.mem "local.txt" (Hac.readdir t "/net/peer"));
  Hac.sumount_fs t "/net/peer";
  check_list "local reappears" [ "local.txt" ] (Hac.readdir t "/net/peer");
  check_list "no mounts" [] (Hac.syntactic_mount_points t)

let test_combined_mounts () =
  (* Section 3.2: combine syntactic (by-name) and semantic (by-content)
     access to the same remote system. *)
  let peer_fs = other_user_fs () in
  let peer_index = Hac_index.Index.create () in
  List.iter
    (fun p ->
      ignore
        (Hac_index.Index.add_document peer_index ~path:p ~content:(Fs.read_file peer_fs p)))
    (Fs.find_files peer_fs "/");
  let t = Hac.create ~auto_sync:true () in
  Hac.mkdir_p t "/net/peer";
  Hac.smount_fs t "/net/peer" peer_fs;
  Hac.smount t "/net/peer" (Hac_remote.Remote_fs.create ~ns_id:"peer" peer_fs peer_index);
  Hac.smkdir t "/net/peer-fp" "fingerprint";
  (* Content-based access found the remote file... *)
  check_list "semantic result" [ "hacfs://peer/projects/fp/notes.txt" ]
    (transient_targets t "/net/peer-fp");
  (* ...and name-based access reads the same bytes. *)
  Alcotest.(check (option string))
    "bytes agree"
    (Some (Hac.read_file t "/net/peer/projects/fp/notes.txt"))
    (Hac.resolve_link t "/net/peer-fp/notes.txt")

let () =
  Alcotest.run "recover"
    [
      ( "persistence",
        [
          Alcotest.test_case "metadata persisted" `Quick test_metadata_persisted;
          Alcotest.test_case "journal paths" `Quick test_journal_paths;
        ] );
      ( "reload",
        [
          Alcotest.test_case "restores everything" `Quick test_reload_restores_everything;
          Alcotest.test_case "idempotent" `Quick test_reload_idempotent;
          Alcotest.test_case "survives rename" `Quick test_reload_survives_rename;
          Alcotest.test_case "restores dirrefs" `Quick test_reload_restores_dirrefs;
          Alcotest.test_case "skips removed" `Quick test_reload_skips_removed;
          Alcotest.test_case "checkpoint enables round two" `Quick test_checkpoint_rewrites;
          Alcotest.test_case "dir with spaces" `Quick test_recover_dir_with_spaces;
          Alcotest.test_case "journal accounting" `Quick test_journal_accounting;
          Alcotest.test_case "dirref survives a rename" `Quick test_dirref_survives_rename;
          Alcotest.test_case "full replay reads the chain once" `Quick
            test_full_replay_reads_chain_once;
        ] );
      ( "prohibit",
        [ Alcotest.test_case "prohibit_target" `Quick test_prohibit_target_api ] );
      ( "syntactic mounts",
        [
          Alcotest.test_case "browsing" `Quick test_syntactic_mount_browsing;
          Alcotest.test_case "read-only" `Quick test_syntactic_mount_read_only;
          Alcotest.test_case "unmount" `Quick test_syntactic_unmount;
          Alcotest.test_case "combined with semantic" `Quick test_combined_mounts;
        ] );
    ]
