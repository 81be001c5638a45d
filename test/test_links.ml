(* Link surgery: the naming memo of semantic directories and the batched
   directory operations of the VFS.

   - The memoised [Semdir.fresh_link_name] must return exactly what the
     reference rule returns — the display name, else the smallest
     [base~i] (i >= 2) that is neither a present link nor a physical entry
     — over any history of adds, removals and colliding physical entries.
   - [Fs.add_symlinks] / [Fs.remove_symlinks] / [Fs.symlinks] must leave
     the same tree, the same device record stream and the same event
     sequence as the per-link calls they replace, errors included. *)

module Semdir = Hac_core.Semdir
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Errno = Hac_vfs.Errno
module Event = Hac_vfs.Event
module Vpath = Hac_vfs.Vpath
module Store = Hac_fault.Store

(* -- naming ------------------------------------------------------------------ *)

(* Targets share basenames, and one basename already looks like a
   collision name, so names such as [f~2~3] come up too. *)
let targets =
  [|
    "/a/f"; "/b/f"; "/c/f"; "/d/f"; "/e/f"; "/a/g"; "/b/g"; "/a/f~2"; "/b/f~2"; "/x/h.txt";
  |]

(* Names a history may place in the directory by hand: collision-shaped
   ones, non-canonical suffixes and plain ones. *)
let odd_names = [| "f"; "f~2"; "f~3"; "f~5"; "f~02"; "f~1"; "g~2"; "f~2~2"; "f~"; "h.txt~2" |]

type step =
  | Add of int * bool (* target; through add_fresh_link or fresh_link_name + add_link *)
  | Remove of int (* rank among present links *)
  | Place of int (* a link under a hand-picked name *)
  | Physical of int (* toggle a non-link entry *)

let pp_step = function
  | Add (t, f) -> Printf.sprintf "Add(%s,%b)" targets.(t) f
  | Remove r -> Printf.sprintf "Remove(%d)" r
  | Place n -> Printf.sprintf "Place(%s)" odd_names.(n)
  | Physical n -> Printf.sprintf "Physical(%s)" odd_names.(n)

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun t f -> Add (t, f)) (int_bound (Array.length targets - 1)) bool);
        (3, map (fun r -> Remove r) (int_bound 20));
        (1, map (fun n -> Place n) (int_bound (Array.length odd_names - 1)));
        (2, map (fun n -> Physical n) (int_bound (Array.length odd_names - 1)));
      ])

let arb_history =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 120) gen_step)
    ~print:(fun h -> String.concat "; " (List.map pp_step h))

let reference sd ~taken target =
  let base = Link.display_name target in
  let used n = Semdir.find_link sd n <> None || taken n in
  if not (used base) then base
  else
    let rec go i =
      let c = Printf.sprintf "%s~%d" base i in
      if used c then go (i + 1) else c
    in
    go 2

let prop_memo_matches_reference =
  QCheck.Test.make ~name:"memoised naming equals the smallest-free-suffix rule" ~count:300
    arb_history (fun history ->
      let sd = Semdir.create ~uid:1 Hac_query.Ast.All in
      let physical = Hashtbl.create 8 in
      let taken n = Hashtbl.mem physical n in
      List.iteri
        (fun i step ->
          match step with
          | Add (t, fresh) ->
              let target = Link.Local targets.(t) in
              let expect = reference sd ~taken target in
              let got =
                if fresh then fst (Semdir.add_fresh_link sd ~taken target Link.Transient)
                else begin
                  let name, _ = Semdir.fresh_link_name sd ~taken target in
                  Semdir.add_link sd { Link.name; target; cls = Link.Transient };
                  name
                end
              in
              if got <> expect then
                QCheck.Test.fail_reportf "step %d: named %S, the rule names %S" i got expect
          | Remove r -> (
              match Semdir.all_links sd with
              | [] -> ()
              | ls ->
                  let l = List.nth ls (r mod List.length ls) in
                  ignore (Semdir.remove_link sd l.Link.name))
          | Place n ->
              let name = odd_names.(n) in
              if not (taken name) then
                Semdir.add_link sd { Link.name; target = Link.Local "/p"; cls = Link.Permanent }
          | Physical n ->
              let name = odd_names.(n) in
              if Hashtbl.mem physical name then Hashtbl.remove physical name
              else if Semdir.find_link sd name = None then Hashtbl.replace physical name ())
        history;
      true)

(* Probes stay flat as links sharing a basename pile up: the memo starts
   each search past the names already taken. *)
let test_probes_stay_flat () =
  let sd = Semdir.create ~uid:1 Hac_query.Ast.All in
  let probes =
    List.init 200 (fun i ->
        snd
          (Semdir.add_fresh_link sd ~taken:(fun _ -> false)
             (Link.Local (Printf.sprintf "/d%03d/f" i))
             Link.Transient))
  in
  Alcotest.(check int) "first link: the display name" 1 (List.hd probes);
  Alcotest.(check bool) "every later link: two candidates" true
    (List.for_all (fun p -> p = 2) (List.tl probes));
  Alcotest.(check bool) "the 200th is f~200" true (Semdir.find_link sd "f~200" <> None);
  ignore (Semdir.remove_link sd "f~7");
  Alcotest.(check string) "a freed suffix is reused first" "f~7"
    (fst (Semdir.fresh_link_name sd ~taken:(fun _ -> false) (Link.Local "/z/f")))

let test_by_target_index () =
  let sd = Semdir.create ~uid:1 Hac_query.Ast.All in
  let add name cls = Semdir.add_link sd { Link.name; target = Link.Local "/d/a"; cls } in
  add "b" Link.Transient;
  add "a" Link.Transient;
  Alcotest.(check (option string))
    "the smallest alias answers" (Some "a")
    (Option.map (fun l -> l.Link.name) (Semdir.link_by_target sd (Link.Local "/d/a")));
  Alcotest.(check bool) "no permanent yet" false (Semdir.has_permanent sd "/d/a");
  add "b" Link.Permanent;
  Alcotest.(check bool) "replacing a name reindexes it" true (Semdir.has_permanent sd "/d/a");
  Alcotest.(check (list string))
    "two aliases" [ "a"; "b" ]
    (List.sort compare (List.map (fun l -> l.Link.name) (Semdir.links_to sd "/d/a")));
  ignore (Semdir.remove_link sd "a");
  Alcotest.(check (option string))
    "the other alias remains" (Some "b")
    (Option.map (fun l -> l.Link.name) (Semdir.link_by_target sd (Link.Local "/d/a")));
  ignore (Semdir.remove_link sd "b");
  Alcotest.(check bool) "gone" true (Semdir.link_by_target sd (Link.Local "/d/a") = None)

(* -- batched directory operations --------------------------------------------- *)

let names = [| "a"; "b"; "c"; "d"; "e" |]

type op =
  | Add_links of int list * int (* names, target variant *)
  | Remove_links of int list
  | List_links
  | Make_file of int
  | Drop_entry of int
  | Toggle_dir (* the directory exists or not *)
  | Dir_as_file (* replace the directory by a regular file *)
  | Chmod of int (* 0o777, 0o555 (no write), 0o666 (no search) *)
  | Chmod_parent of int
  | As_user of bool (* root or uid 1 *)

let pp_op = function
  | Add_links (ns, v) ->
      Printf.sprintf "Add[%s]/%d" (String.concat "," (List.map (Array.get names) ns)) v
  | Remove_links ns ->
      Printf.sprintf "Remove[%s]" (String.concat "," (List.map (Array.get names) ns))
  | List_links -> "List"
  | Make_file n -> "File " ^ names.(n)
  | Drop_entry n -> "Drop " ^ names.(n)
  | Toggle_dir -> "Toggle"
  | Dir_as_file -> "DirAsFile"
  | Chmod m -> Printf.sprintf "Chmod %d" m
  | Chmod_parent m -> Printf.sprintf "ChmodParent %d" m
  | As_user u -> Printf.sprintf "AsUser %b" u

let modes = [| 0o777; 0o555; 0o666 |]

let gen_names = QCheck.Gen.(list_size (int_range 0 4) (int_bound (Array.length names - 1)))

let gen_fs_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun ns v -> Add_links (ns, v)) gen_names (int_bound 2));
        (4, map (fun ns -> Remove_links ns) gen_names);
        (2, return List_links);
        (2, map (fun n -> Make_file n) (int_bound (Array.length names - 1)));
        (2, map (fun n -> Drop_entry n) (int_bound (Array.length names - 1)));
        (1, return Toggle_dir);
        (1, return Dir_as_file);
        (1, map (fun m -> Chmod m) (int_bound 2));
        (1, map (fun m -> Chmod_parent m) (int_bound 2));
        (2, map (fun u -> As_user u) bool);
      ])

let arb_fs_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 40) gen_fs_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let dir = "/p/d"

let path name = Vpath.join dir name

type world = { fs : Fs.t; disk : Store.t; events : Event.t list ref; out : string list ref }

let world () =
  let fs = Fs.create () in
  Fs.mkdir_p fs dir;
  let disk = Store.create () in
  Fs.attach_disk fs disk;
  let events = ref [] in
  Event.subscribe (Fs.events fs) (fun ev -> events := ev :: !events);
  { fs; disk; events; out = ref [] }

let outcome w f =
  let r =
    match f () with
    | s -> "ok " ^ s
    | exception Errno.Error (e, subject) -> Printf.sprintf "%s %s" (Errno.to_string e) subject
  in
  w.out := r :: !(w.out)

let as_root w f =
  let u = Fs.current_user w.fs in
  Fs.set_user w.fs 0;
  Fun.protect ~finally:(fun () -> Fs.set_user w.fs u) f

(* The per-link forms: what HAC did before the batched operations. *)
let loop_add fs links =
  List.iter (fun (name, target) -> Fs.symlink fs ~target ~link:(path name)) links

let loop_remove fs names =
  List.fold_left
    (fun n name ->
      let p = path name in
      match Fs.lstat fs p with
      | { Fs.st_kind = Event.Link; _ } ->
          Fs.unlink fs p;
          n + 1
      | _ -> n
      | exception Errno.Error (Errno.ENOENT, s) when s = p -> n)
    0 names

let loop_list fs =
  List.filter_map
    (fun name ->
      if Fs.is_symlink fs (path name) then Some (name, Fs.readlink fs (path name)) else None)
    (Fs.readdir fs dir)

let render_links ls = String.concat "," (List.map (fun (n, t) -> n ^ ">" ^ t) ls)

let apply ~batched w op =
  let fs = w.fs in
  let quiet f = try as_root w f with Errno.Error _ -> () in
  match op with
  | Add_links (ns, v) ->
      let links = List.map (fun n -> (names.(n), Printf.sprintf "/t%d/%s" v names.(n))) ns in
      outcome w (fun () ->
          if batched then Fs.add_symlinks fs dir links else loop_add fs links;
          "")
  | Remove_links ns ->
      let ns = List.map (Array.get names) ns in
      outcome w (fun () ->
          string_of_int (if batched then Fs.remove_symlinks fs dir ns else loop_remove fs ns))
  | List_links ->
      outcome w (fun () -> render_links (if batched then Fs.symlinks fs dir else loop_list fs))
  | Make_file n ->
      let p = path names.(n) in
      quiet (fun () -> if not (Fs.lexists fs p) then Fs.write_file fs p "x")
  | Drop_entry n -> quiet (fun () -> Fs.unlink fs (path names.(n)))
  | Toggle_dir ->
      quiet (fun () -> if Fs.lexists fs dir then Fs.rmtree fs dir else Fs.mkdir fs dir)
  | Dir_as_file ->
      quiet (fun () ->
          if Fs.is_dir fs dir then Fs.rmtree fs dir;
          if not (Fs.lexists fs dir) then Fs.write_file fs dir "not a directory")
  | Chmod m -> quiet (fun () -> Fs.chmod fs dir modes.(m))
  | Chmod_parent m -> quiet (fun () -> Fs.chmod fs "/p" modes.(m))
  | As_user u -> Fs.set_user fs (if u then 1 else 0)

let dump w =
  as_root w (fun () ->
      let b = Buffer.create 256 in
      Fs.walk w.fs "/" (fun p st ->
          Buffer.add_string b
            (match st.Fs.st_kind with
            | Event.Link -> Printf.sprintf "L %s>%s\n" p (Fs.readlink w.fs p)
            | Event.Dir -> Printf.sprintf "D %s %o\n" p st.Fs.st_mode
            | Event.File -> Printf.sprintf "F %s\n" p));
      Buffer.contents b)

let events w = List.rev_map (Format.asprintf "%a" Event.pp) !(w.events)

let op_name = function
  | Store.Symlink { target; link } -> "symlink " ^ link ^ ">" ^ target
  | Store.Unlink p -> "unlink " ^ p
  | Store.Mkdir p -> "mkdir " ^ p
  | Store.Rmdir p -> "rmdir " ^ p
  | Store.Create p -> "create " ^ p
  | Store.Write (p, _) -> "write " ^ p
  | Store.Chmod (p, m) -> Printf.sprintf "chmod %s %o" p m
  | _ -> "other"

let prop_batch_equals_loop =
  QCheck.Test.make ~name:"batched link surgery equals the per-link calls" ~count:400 arb_fs_ops
    (fun ops ->
      let a = world () and b = world () in
      List.iter
        (fun op ->
          apply ~batched:true a op;
          apply ~batched:false b op)
        ops;
      let same what x y =
        if x <> y then QCheck.Test.fail_reportf "%s differ:\nbatched %s\nper-link %s" what x y
      in
      let outcomes w = String.concat "|" (List.rev !(w.out)) in
      same "outcomes" (outcomes a) (outcomes b);
      same "trees" (dump a) (dump b);
      same "events" (String.concat "|" (events a)) (String.concat "|" (events b));
      same "device records"
        (String.concat "|" (List.map op_name (Store.ops a.disk)))
        (String.concat "|" (List.map op_name (Store.ops b.disk)));
      true)

let test_bad_names () =
  let fs = Fs.create () in
  Fs.mkdir fs "/d";
  let einval f =
    match f () with
    | _ -> false
    | exception Errno.Error (Errno.EINVAL, _) -> true
  in
  Alcotest.(check bool) "add: a path is no entry name" true
    (einval (fun () -> Fs.add_symlinks fs "/d" [ ("ok", "/t"); ("x/y", "/t") ]));
  Alcotest.(check bool) "the links before it stay" true (Fs.is_symlink fs "/d/ok");
  Alcotest.(check bool) "remove: '..' is no entry name" true
    (einval (fun () -> Fs.remove_symlinks fs "/d" [ ".." ]));
  Alcotest.(check int) "empty batches touch nothing, not even the directory" 0
    (Fs.add_symlinks fs "/missing" [];
     Fs.remove_symlinks fs "/missing" [])

let test_one_resolve_per_batch () =
  let fs = Fs.create () in
  Fs.mkdir_p fs "/a/b/c";
  let links = List.init 50 (fun i -> (Printf.sprintf "l%d" i, "/t")) in
  let r0 = Fs.resolve_count fs in
  Fs.add_symlinks fs "/a/b/c" links;
  Alcotest.(check int) "add: one resolve" 1 (Fs.resolve_count fs - r0);
  let r1 = Fs.resolve_count fs in
  Alcotest.(check int) "listed" 50 (List.length (Fs.symlinks fs "/a/b/c"));
  Alcotest.(check int) "list: one resolve" 1 (Fs.resolve_count fs - r1);
  let r2 = Fs.resolve_count fs in
  Alcotest.(check int) "removed" 50 (Fs.remove_symlinks fs "/a/b/c" (List.map fst links));
  Alcotest.(check int) "remove: one resolve" 1 (Fs.resolve_count fs - r2)

let () =
  Alcotest.run "links"
    [
      ( "naming",
        [
          QCheck_alcotest.to_alcotest prop_memo_matches_reference;
          Alcotest.test_case "probes stay flat" `Quick test_probes_stay_flat;
          Alcotest.test_case "by-target index" `Quick test_by_target_index;
        ] );
      ( "batched fs",
        [
          QCheck_alcotest.to_alcotest prop_batch_equals_loop;
          Alcotest.test_case "bad names" `Quick test_bad_names;
          Alcotest.test_case "one resolve per batch" `Quick test_one_resolve_per_batch;
        ] );
    ]
