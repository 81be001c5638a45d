(* Tests for the VFS permission model (owner/mode/current-user) and its
   interaction with HAC — "HAC does not contain any security and access
   control features of its own; it borrows them from the underlying
   operating system" (section 4). *)

module Fs = Hac_vfs.Fs
module Fd = Hac_vfs.Fd_table
module Errno = Hac_vfs.Errno
module Hac = Hac_core.Hac
module Link = Hac_core.Link

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let expect code f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Errno.to_string code)
  | exception Errno.Error (got, _) ->
      Alcotest.check (Alcotest.testable Errno.pp ( = )) (Errno.to_string code) code got

(* A world owned by alice (uid 1) with a private and a public area. *)
let alice = 1

let bob = 2

let world () =
  let fs = Fs.create () in
  Fs.set_user fs alice;
  Fs.mkdir fs "/pub";
  Fs.write_file fs "/pub/open.txt" "anyone may read this\n";
  Fs.mkdir fs "/priv";
  Fs.write_file fs "/priv/secret.txt" "alice only\n";
  Fs.chmod fs "/priv" 0o700;
  Fs.chmod fs "/priv/secret.txt" 0o600;
  fs

(* -- ownership and defaults ---------------------------------------------------------- *)

let test_ownership_and_defaults () =
  let fs = world () in
  check_int "file owner" alice (Fs.stat fs "/pub/open.txt").Fs.st_uid;
  check_int "file default mode" 0o666 (Fs.stat fs "/pub/open.txt").Fs.st_mode;
  check_int "dir default mode" 0o777 (Fs.stat fs "/pub").Fs.st_mode;
  check_int "root owned by superuser" 0 (Fs.stat fs "/").Fs.st_uid

let test_world_readable_by_default () =
  let fs = world () in
  Fs.set_user fs bob;
  Alcotest.(check string) "default open" "anyone may read this\n" (Fs.read_file fs "/pub/open.txt");
  Fs.write_file fs "/pub/bobs.txt" "bob can write in open dirs\n";
  check_int "bob owns his file" bob (Fs.stat fs "/pub/bobs.txt").Fs.st_uid

(* -- read/write/execute enforcement --------------------------------------------------- *)

let test_file_read_denied () =
  let fs = world () in
  Fs.set_user fs bob;
  expect Errno.EACCES (fun () -> Fs.read_file fs "/priv/secret.txt")

let test_file_write_denied () =
  let fs = world () in
  Fs.chmod fs "/pub/open.txt" 0o644;
  Fs.set_user fs bob;
  expect Errno.EACCES (fun () -> Fs.write_file fs "/pub/open.txt" "overwrite")

let test_dir_traversal_denied () =
  let fs = world () in
  Fs.set_user fs bob;
  (* /priv is 0o700: even reaching the file fails on the x bit. *)
  expect Errno.EACCES (fun () -> Fs.stat fs "/priv/secret.txt")

let test_dir_listing_denied () =
  let fs = world () in
  Fs.chmod fs "/priv" 0o711 (* x but not r: enter, don't list *);
  Fs.set_user fs bob;
  expect Errno.EACCES (fun () -> Fs.readdir fs "/priv");
  (* ...but a known name can still be stat'ed through the x bit. *)
  check_bool "traverse ok" true (Fs.exists fs "/priv/secret.txt")

let test_create_in_readonly_dir () =
  let fs = world () in
  Fs.chmod fs "/pub" 0o755;
  Fs.set_user fs bob;
  expect Errno.EACCES (fun () -> Fs.write_file fs "/pub/new.txt" "x");
  expect Errno.EACCES (fun () -> Fs.mkdir fs "/pub/sub");
  expect Errno.EACCES (fun () -> Fs.unlink fs "/pub/open.txt");
  expect Errno.EACCES (fun () -> Fs.rename fs ~src:"/pub/open.txt" ~dst:"/pub/renamed")

let test_owner_keeps_access () =
  let fs = world () in
  Alcotest.(check string) "owner reads 0600" "alice only\n" (Fs.read_file fs "/priv/secret.txt");
  Fs.write_file fs "/priv/secret.txt" "updated\n";
  Alcotest.(check string) "owner writes" "updated\n" (Fs.read_file fs "/priv/secret.txt")

let test_superuser_bypasses () =
  let fs = world () in
  Fs.set_user fs 0;
  Alcotest.(check string) "root reads anything" "alice only\n"
    (Fs.read_file fs "/priv/secret.txt");
  Fs.write_file fs "/priv/secret.txt" "root was here\n"

let test_access_call () =
  let fs = world () in
  check_bool "owner rw" true (Fs.access fs "/priv/secret.txt" 6);
  Fs.set_user fs bob;
  check_bool "bob denied" false (Fs.access fs "/priv/secret.txt" 4);
  check_bool "nonexistent false" false (Fs.access fs "/nope" 4);
  check_bool "public ok" true (Fs.access fs "/pub/open.txt" 4)

(* -- chmod / chown rules ---------------------------------------------------------------- *)

let test_chmod_rules () =
  let fs = world () in
  Fs.chmod fs "/pub/open.txt" 0o640;
  check_int "mode set" 0o640 (Fs.stat fs "/pub/open.txt").Fs.st_mode;
  Fs.set_user fs bob;
  expect Errno.EPERM (fun () -> Fs.chmod fs "/pub/open.txt" 0o777)

let test_chown_rules () =
  let fs = world () in
  expect Errno.EPERM (fun () -> Fs.chown fs "/pub/open.txt" bob);
  Fs.set_user fs 0;
  Fs.chown fs "/pub/open.txt" bob;
  check_int "new owner" bob (Fs.stat fs "/pub/open.txt").Fs.st_uid

(* -- descriptor table -------------------------------------------------------------------- *)

let test_fd_open_checks () =
  let fs = world () in
  Fs.chmod fs "/pub/open.txt" 0o644;
  let t = Fd.create fs in
  Fs.set_user fs bob;
  (* Read is allowed, write is not. *)
  let fd = Fd.openfile t Fd.Read_only "/pub/open.txt" in
  Alcotest.(check string) "fd read" "anyone may read this\n" (Fd.read_all t fd);
  Fd.close t fd;
  expect Errno.EACCES (fun () -> Fd.openfile t Fd.Write_only "/pub/open.txt");
  expect Errno.EACCES (fun () -> Fd.openfile t Fd.Read_write "/pub/open.txt")

let test_fd_checks_follow_chmod () =
  let fs = world () in
  let t = Fd.create fs in
  let fd = Fd.openfile t Fd.Read_only "/priv/secret.txt" in
  (* Tightening the mode after open denies subsequent reads (our per-op
     checks are stricter than POSIX's open-time-only semantics). *)
  Fs.chmod fs "/priv/secret.txt" 0o000;
  Fs.set_user fs bob;
  expect Errno.EACCES (fun () -> Fd.read t fd 5);
  Fd.close t fd

(* -- HAC integration ------------------------------------------------------------------------ *)

let hac_world ?auto_sync () =
  let t = Hac.create ?auto_sync () in
  let fs = Hac.fs t in
  Fs.set_user fs alice;
  Hac.mkdir_p t "/docs";
  Hac.write_file t "/docs/open.txt" "shared apple notes\n";
  Hac.write_file t "/docs/secret.txt" "private apple stash\n";
  Fs.chmod fs "/docs/secret.txt" 0o600;
  t

let transient_targets t dir =
  Hac.links t dir
  |> List.filter_map (fun l ->
         if l.Link.cls = Link.Transient then Some (Link.target_key l.Link.target) else None)
  |> List.sort compare

let test_hac_metadata_protected () =
  let t = hac_world ~auto_sync:true () in
  (* The metadata area was created by the library (superuser); users write
     through HAC without ever touching it directly, and HAC's own
     bookkeeping succeeds regardless of the calling user. *)
  Hac.smkdir t "/apples" "apple";
  check_bool "metadata maintained" true (Fs.is_file (Hac.fs t) "/.hac/dirs.log");
  check_int "semdir owned by alice" alice (Fs.stat (Hac.fs t) "/apples").Fs.st_uid

let test_hac_indexing_respects_permissions () =
  (* Lazy mode: alice's writes are still dirty when BOB runs the
     data-consistency pass, so indexing happens under bob's credentials —
     the unreadable file cannot be indexed and never matches. *)
  let t = hac_world () in
  Fs.set_user (Hac.fs t) bob;
  ignore (Hac.reindex t ());
  Hac.smkdir t "/apples" "apple";
  Alcotest.(check (list string))
    "only the readable file" [ "/docs/open.txt" ]
    (transient_targets t "/apples")

let test_hac_indexing_as_owner_sees_all () =
  let t = hac_world () in
  ignore (Hac.reindex t ()) (* still alice *);
  Hac.smkdir t "/apples" "apple";
  Alcotest.(check (list string))
    "owner sees both"
    [ "/docs/open.txt"; "/docs/secret.txt" ]
    (transient_targets t "/apples")

(* Postings the index vouches for spare verification its content read, not
   its permission check: a document indexed under alice's credentials must
   not match for bob once he cannot read it. *)
let test_hac_settled_postings_checked_for_reader () =
  let t = hac_world () in
  Hac.settle t (* as alice: both documents indexed *);
  Fs.set_user (Hac.fs t) bob;
  Hac.smkdir t "/apples" "apple";
  Alcotest.(check (list string))
    "bob sees only the readable file" [ "/docs/open.txt" ]
    (transient_targets t "/apples")

let test_hac_chmod_after_settle () =
  let t = hac_world () in
  Hac.settle t;
  (* chmod changes no content and dirties nothing: the postings still name
     the file, and only the permission check keeps it from matching. *)
  Fs.chmod (Hac.fs t) "/docs/open.txt" 0o600;
  Fs.set_user (Hac.fs t) bob;
  Hac.smkdir t "/apples" "apple";
  Alcotest.(check (list string)) "nothing readable" [] (transient_targets t "/apples")

(* -- properties -------------------------------------------------------------------------- *)

(* access(2) must predict exactly whether reads and writes succeed, for any
   owner / mode / acting-user combination. *)
let prop_access_predicts_outcomes =
  let gen =
    QCheck.Gen.(
      quad (int_bound 3) (* owner *) (int_bound 0o777) (* mode *)
        (int_bound 3) (* acting user *) bool (* try write (else read) *))
  in
  QCheck.Test.make ~name:"access() predicts op outcomes" ~count:1000
    (QCheck.make gen ~print:(fun (o, m, u, w) ->
         Printf.sprintf "owner=%d mode=%o user=%d %s" o m u (if w then "write" else "read")))
    (fun (owner, mode, user, try_write) ->
      let fs = Fs.create () in
      Fs.write_file fs "/f" "payload";
      Fs.chown fs "/f" owner;
      Fs.chmod fs "/f" mode;
      Fs.set_user fs user;
      let predicted = Fs.access fs "/f" (if try_write then 2 else 4) in
      let actual =
        match
          if try_write then Fs.write_file fs "/f" "new" else ignore (Fs.read_file fs "/f")
        with
        | () -> true
        | exception Errno.Error (Errno.EACCES, _) -> false
      in
      predicted = actual)

(* Traversal: reaching /d/f requires x on /d for non-owners exactly when the
   other-x bit is clear. *)
let prop_traversal_needs_x =
  let gen = QCheck.Gen.(pair (int_bound 0o777) (int_bound 3)) in
  QCheck.Test.make ~name:"directory traversal needs the x bit" ~count:500
    (QCheck.make gen ~print:(fun (m, u) -> Printf.sprintf "mode=%o user=%d" m u))
    (fun (mode, user) ->
      let fs = Fs.create () in
      Fs.set_user fs 1;
      Fs.mkdir fs "/d";
      Fs.write_file fs "/d/f" "x";
      Fs.chmod fs "/d" mode;
      Fs.set_user fs user;
      let can_x = user = 0 || (if user = 1 then mode lsr 6 else mode) land 1 = 1 in
      let reached =
        match Fs.stat fs "/d/f" with
        | _ -> true
        | exception Errno.Error (Errno.EACCES, _) -> false
      in
      reached = can_x)

let () =
  Alcotest.run "perms"
    [
      ( "ownership",
        [
          Alcotest.test_case "defaults" `Quick test_ownership_and_defaults;
          Alcotest.test_case "world readable by default" `Quick
            test_world_readable_by_default;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "file read denied" `Quick test_file_read_denied;
          Alcotest.test_case "file write denied" `Quick test_file_write_denied;
          Alcotest.test_case "dir traversal denied" `Quick test_dir_traversal_denied;
          Alcotest.test_case "dir listing denied" `Quick test_dir_listing_denied;
          Alcotest.test_case "create in read-only dir" `Quick test_create_in_readonly_dir;
          Alcotest.test_case "owner keeps access" `Quick test_owner_keeps_access;
          Alcotest.test_case "superuser bypasses" `Quick test_superuser_bypasses;
          Alcotest.test_case "access call" `Quick test_access_call;
        ] );
      ( "chmod/chown",
        [
          Alcotest.test_case "chmod rules" `Quick test_chmod_rules;
          Alcotest.test_case "chown rules" `Quick test_chown_rules;
        ] );
      ( "descriptors",
        [
          Alcotest.test_case "open checks" `Quick test_fd_open_checks;
          Alcotest.test_case "checks follow chmod" `Quick test_fd_checks_follow_chmod;
        ] );
      ( "hac",
        [
          Alcotest.test_case "metadata protected" `Quick test_hac_metadata_protected;
          Alcotest.test_case "indexing respects permissions" `Quick
            test_hac_indexing_respects_permissions;
          Alcotest.test_case "owner indexes everything" `Quick
            test_hac_indexing_as_owner_sees_all;
          Alcotest.test_case "settled postings still permission-checked" `Quick
            test_hac_settled_postings_checked_for_reader;
          Alcotest.test_case "chmod after settle hides the file" `Quick
            test_hac_chmod_after_settle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_access_predicts_outcomes; prop_traversal_needs_x ] );
    ]
