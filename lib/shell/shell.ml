module Hac = Hac_core.Hac
module Export = Hac_core.Export
module Recover = Hac_core.Recover
module Link = Hac_core.Link
module Vpath = Hac_vfs.Vpath
module Fs = Hac_vfs.Fs
module Errno = Hac_vfs.Errno

module Namespace = Hac_remote.Namespace
module Fault = Hac_fault.Fault

type session = {
  mutable t : Hac.t;
  mutable wd : string;
  (* Fault injectors of the demo namespaces, by ns_id.  They share the
     instance's virtual clock, so they die with it on [restore]. *)
  faults : (string, Fault.t) Hashtbl.t;
  (* Pre-rendered per-session table of the last [serve] run, for
     [sessions] to print. *)
  mutable serve_report : string option;
  (* Pre-rendered SLO burn-rate report of the last [serve] run, for
     [slo] to print. *)
  mutable slo_report : string option;
}

let help_text =
  {|Commands:
  pwd | cd DIR | ls [-l] [DIR]        navigate
  mkdir DIR | rmdir DIR               plain directories
  write FILE TEXT...                  create/overwrite a file
  append FILE TEXT...                 append a line
  cat FILE                            show contents (follows links, local or remote)
  rm PATH                             remove file or link (link removal prohibits it)
  mv SRC DST                          rename/move
  ln TARGET LINK                      symbolic link (permanent inside a semantic dir)
  chmod MODE PATH | chown UID PATH    permissions (octal MODE, e.g. 600)
  su UID                              switch current user (0 = superuser)
  smkdir DIR QUERY...                 create a semantic directory
  srmdir DIR                          remove a semantic directory
  schquery DIR QUERY...               change (or retro-fit) a directory's query
  sreadin DIR                         show a directory's query
  ssearch QUERY...                    evaluate a query ad hoc (no directory)
  sfind QUERY...                      alias of ssearch
  sgrep REGEX [DIR]                   regex search, with matching lines
  links [DIR]                         show links with their classes
  prohibited [DIR]                    show prohibited targets
  sact LINK                           show the lines that match the query
  ssync [DIR]                         re-evaluate a directory and its dependents
  sreindex                            settle data consistency now
  smount DIR demo-library|demo-web    mount a built-in demo namespace
  sumount DIR NS                      unmount a namespace
  sprohibit DIR TARGET                prohibit a target directly
  sunprohibit DIR TARGET              lift a prohibition
  sexport [DIR]                       export semantic directories as text
  srecover [-v]                       restore semantic state from /.hac metadata
                                      (-v adds journal integrity accounting)
  checkpoint                          commit an atomic checkpoint of the journal chain
  compact                             drop journal history a checkpoint supersedes
  store [BUDGET]                      enable the durable storage tier (block store,
                                      on-disk postings, fast-mount checkpoints)
  crashtest [SEED]                    run the exhaustive crash-point recovery harness
  serve [SESSIONS] [OPS]              serving-layer demo: concurrent sessions,
                                      snapshot reads, group-commit writes
  sessions                            per-session table of the last serve run
  mount-status                        health of every mounted namespace
  fault NS fail N|outage|latency S|corrupt|flaky P
                                      inject a failure plan into a demo namespace
  fault NS clear | fault NS           clear / show a namespace's plans
  fault tick S                        advance the virtual clock S seconds
  save HOSTFILE | restore HOSTFILE    snapshot the whole fs to the host disk
  sdirs                               list semantic directories
  stats                               space and consistency counters
  trace [on|off|dump|json|clear]      span tracing (virtual-clock timestamps)
  flight [show|dump FILE|read FILE|auto DIR|auto off]
                                      flight-recorder ring: status, entries, dumps
  slo                                 SLO burn-rate report of the last serve run
  metrics [-json|-jsonl|-prom]        dump the metrics registry
  profile CMD...                      run any command in a root span: tree,
                                      per-stage totals, SLO verdict
  help | quit

Query syntax: words, "phrases", ~approx, /regex/, attr:value (from:, subject:,
type:, name:, ext:, path:), {/dir} references, AND OR NOT ( ) *|}

let transducer = Hac_index.Transducer.(combine [ email; file_type ])

let demo_library () =
  Hac_remote.Namespace.static ~ns_id:"demo-library"
    [
      ("sorting.ps", "dlib://demo/sorting.ps", "A taxonomy of sorting algorithms.\n");
      ("btrees.ps", "dlib://demo/btrees.ps", "B-tree indexing for databases and file systems.\n");
      ("raft.ps", "dlib://demo/raft.ps", "Consensus made understandable.\n");
    ]

let demo_web () =
  Hac_remote.Web_search.create "demo-web"
    [
      {
        Hac_remote.Web_search.title = "filesystem-tuning";
        uri = "http://demo-web/fs-tuning";
        body = "tuning file systems for small files";
      };
      {
        Hac_remote.Web_search.title = "index-compression";
        uri = "http://demo-web/index-compression";
        body = "compressing inverted index postings";
      };
    ]

let load_demo t =
  Hac.mkdir_p t "/home/demo/notes";
  Hac.mkdir_p t "/home/demo/src";
  Hac.write_file t "/home/demo/notes/fs.txt"
    "Ideas about file systems and indexing.\nSemantic directories are folders with queries.\n";
  Hac.write_file t "/home/demo/notes/todo.txt" "Buy coffee.\nFix the parser.\n";
  Hac.write_file t "/home/demo/src/main.ml" "let () = print_endline \"indexing demo\"\n"

let make ?(demo = false) () =
  let t = Hac.create ~auto_sync:true ~transducer () in
  if demo then load_demo t;
  { t; wd = "/"; faults = Hashtbl.create 4; serve_report = None; slo_report = None }

let of_hac t =
  { t; wd = "/"; faults = Hashtbl.create 4; serve_report = None; slo_report = None }

(* Demo namespaces mount behind the full resilience stack: a fault injector
   (driven by the [fault] command) under the retry/breaker policy, all on
   the instance's virtual clock. *)
let resilient_mount s dir ns =
  let clock = Hac.clock s.t in
  let inj = Fault.create ~seed:(Hashtbl.hash ns.Namespace.ns_id) ~clock () in
  Hashtbl.replace s.faults ns.Namespace.ns_id inj;
  (* The instance's registry, so `metrics` shows every namespace's
     resilience accounting alongside the core's instruments. *)
  Hac.smount s.t dir
    (Namespace.with_policy ~metrics:(Hac.metrics s.t) ~clock
       (Namespace.with_faults inj ns))

let hac s = s.t

let cwd s = s.wd

let resolve s p = Vpath.normalize_under ~cwd:s.wd p

let out buf fmt = Printf.ksprintf (fun msg -> Buffer.add_string buf msg) fmt

let show_links s buf dir =
  List.iter
    (fun l ->
      out buf "%-24s -> %-40s [%s]\n" l.Link.name
        (Link.target_key l.Link.target)
        (Link.cls_name l.Link.cls))
    (Hac.links s.t dir)

let cmd_ls s buf long args =
  let dir = match args with [] -> s.wd | d :: _ -> resolve s d in
  List.iter
    (fun name ->
      let p = Vpath.join dir name in
      if long then begin
        let st = Fs.lstat (Hac.fs s.t) p in
        let kind =
          match st.Fs.st_kind with
          | Hac_vfs.Event.Dir -> if Hac.is_semantic s.t p then "sdir" else "dir "
          | Hac_vfs.Event.File -> "file"
          | Hac_vfs.Event.Link -> "link"
        in
        out buf "%s %3o %2d %8d  %s\n" kind st.Fs.st_mode st.Fs.st_uid st.Fs.st_size name
      end
      else out buf "%s\n" name)
    (Hac.readdir s.t dir)

let cmd_ssearch s buf query =
  match Hac_query.Parser.parse_result query with
  | Error msg -> out buf "bad query: %s\n" msg
  | Ok _ -> (
      (* Evaluate through a throwaway semantic directory, then clean up —
         the paper's point that queries and directories are the same thing. *)
      let dir = "/.ssearch-tmp" in
      match Hac.smkdir s.t dir query with
      | () ->
          List.iter
            (fun l -> out buf "%s\n" (Link.target_key l.Link.target))
            (Hac.links s.t dir);
          Hac.srmdir s.t dir
      | exception Hac.Hac_error msg -> out buf "error: %s\n" msg)

let cmd_sgrep s buf pattern dir =
  (* Accept the query language's /re/ spelling as well as a bare pattern. *)
  let pattern =
    let n = String.length pattern in
    if n >= 2 && pattern.[0] = '/' && pattern.[n - 1] = '/' then String.sub pattern 1 (n - 2)
    else pattern
  in
  match Hac_index.Regex.compile_result pattern with
  | Error msg -> out buf "bad regex: %s\n" msg
  | Ok re ->
      let fs = Hac.fs s.t in
      let files =
        try Fs.find_files fs dir with Errno.Error _ -> []
      in
      List.iter
        (fun p ->
          if not (Vpath.is_prefix ~prefix:"/.hac" p) then
            match Fs.read_file fs p with
            | content ->
                Hac_index.Tokenizer.iter_lines content (fun lineno line ->
                    if Hac_index.Regex.matches re line then
                      out buf "%s:%d: %s\n" p lineno line)
            | exception Errno.Error _ -> ())
        files

let mount_status_report s buf =
  (match Hac.mount_status s.t with
  | [] -> out buf "no mounted namespaces\n"
  | rows ->
      List.iter
        (fun { Hac.mh_path; mh_ns; mh_health } ->
          match mh_health with
          | None -> out buf "%-16s %-14s (no resilience policy)\n" mh_path mh_ns
          | Some h ->
              out buf
                "%-16s %-14s breaker=%-9s calls=%d failures=%d retries=%d trips=%d%s\n"
                mh_path mh_ns
                (Hac_fault.Breaker.state_name h.Namespace.breaker)
                h.Namespace.total_calls h.Namespace.total_failures
                h.Namespace.total_retries h.Namespace.breaker_trips
                (match h.Namespace.last_error with
                | Some e -> Printf.sprintf " last-error=%S" e
                | None -> ""))
        rows);
  List.iter
    (fun dir ->
      match Hac.stale_remotes s.t dir with
      | [] -> ()
      | stale ->
          out buf "%s: %d stale entr%s (%s)\n" dir (List.length stale)
            (if List.length stale = 1 then "y" else "ies")
            (String.concat ", "
               (List.map (fun r -> r.Hac_core.Semdir.rr_name) stale)))
    (Hac.semantic_dirs s.t);
  out buf "clock=%.2fs remote-failures=%d stale-serves=%d\n"
    (Hac_fault.Clock.now (Hac.clock s.t))
    (Hac.remote_failures s.t) (Hac.stale_serves s.t)

let fault_usage = "fault NS fail N|outage|latency S|corrupt|flaky P|clear — or: fault NS, fault tick S"

let cmd_fault s buf args =
  match args with
  | [ "tick"; secs ] -> (
      match float_of_string_opt secs with
      | Some d when d >= 0.0 ->
          Hac_fault.Clock.advance (Hac.clock s.t) d;
          out buf "clock=%.2fs\n" (Hac_fault.Clock.now (Hac.clock s.t))
      | Some _ | None -> out buf "fault tick: bad duration %s\n" secs)
  | ns :: rest -> (
      match Hashtbl.find_opt s.faults ns with
      | None ->
          out buf "fault: %s is not an injectable namespace (mount a demo namespace first)\n" ns
      | Some inj -> (
          let show () =
            match Fault.plans inj with
            | [] -> out buf "%s: no active faults (%d calls, %d injected)\n" ns
                      (Fault.calls inj) (Fault.injected inj)
            | plans ->
                out buf "%s: %s (%d calls, %d injected)\n" ns
                  (String.concat ", " (List.map Fault.plan_to_string plans))
                  (Fault.calls inj) (Fault.injected inj)
          in
          match rest with
          | [] -> show ()
          | [ "clear" ] ->
              Fault.clear inj;
              show ()
          | [ "fail"; n ] -> (
              match int_of_string_opt n with
              | Some n when n > 0 ->
                  Fault.add_plan inj (Fault.Fail_times n);
                  show ()
              | Some _ | None -> out buf "fault: bad count %s\n" n)
          | [ "outage" ] ->
              Fault.add_plan inj Fault.Outage;
              show ()
          | [ "latency"; d ] -> (
              match float_of_string_opt d with
              | Some d when d >= 0.0 ->
                  Fault.add_plan inj (Fault.Latency d);
                  show ()
              | Some _ | None -> out buf "fault: bad duration %s\n" d)
          | [ "corrupt" ] ->
              Fault.add_plan inj Fault.Corrupt;
              show ()
          | [ "flaky"; p ] -> (
              match float_of_string_opt p with
              | Some p when p >= 0.0 && p <= 1.0 ->
                  Fault.add_plan inj (Fault.Flaky p);
                  show ()
              | Some _ | None -> out buf "fault: bad probability %s\n" p)
          | _ -> out buf "%s\n" fault_usage))
  | [] -> out buf "%s\n" fault_usage

let space_report s buf =
  let sp = Hac.space s.t in
  out buf "semantic dirs        : %d\n" (Hac.semdir_count s.t);
  out buf "dirty (stale index)  : %d files\n" (Hac.dirty_count s.t);
  out buf "indexed documents    : %d\n" (Hac_index.Index.doc_count (Hac.index s.t));
  out buf "index bytes          : %d\n" sp.Hac.index_bytes;
  out buf "HAC structure bytes  : %d (semdirs %d, uidmap %d, depgraph %d)\n"
    (Hac.hac_overhead_bytes sp) sp.Hac.semdir_bytes sp.Hac.uidmap_bytes sp.Hac.depgraph_bytes;
  out buf "fs metadata bytes    : %d\n" sp.Hac.fs_metadata_bytes;
  let cs = Hac.index_report s.t in
  out buf "postings             : %d bytes, %d terms\n" cs.Hac_index.Cas.bytes
    cs.Hac_index.Cas.terms;
  out buf "containers           : %d arrays, %d bitmaps, %d runs\n" cs.Hac_index.Cas.arrays
    cs.Hac_index.Cas.bitmaps cs.Hac_index.Cas.run_containers;
  (* The ratio prices the alternative the compression replaces: one flat
     doc-id-universe bitmap per term (the paper's N/8-byte result bitmaps,
     applied to postings). *)
  let ratio =
    if cs.Hac_index.Cas.bytes = 0 then 1.0
    else float_of_int cs.Hac_index.Cas.uncompressed_bytes /. float_of_int cs.Hac_index.Cas.bytes
  in
  out buf "vs flat bitmaps      : %d bytes uncompressed (%.1fx compression)\n"
    cs.Hac_index.Cas.uncompressed_bytes ratio;
  let rc = Hac.result_cache_stats s.t in
  out buf "scope generation     : %d\n" (Hac.scope_generation s.t);
  out buf "result cache         : %d hits, %d misses, %d entries, %d bytes\n"
    rc.Hac_core.Rescache.hits rc.Hac_core.Rescache.misses rc.Hac_core.Rescache.entries
    rc.Hac_core.Rescache.bytes;
  (match Hac.store s.t with
  | None -> out buf "storage tier         : off\n"
  | Some store ->
      let c = Hac_store.Store.cache store in
      out buf "storage tier         : on (lineage %d)\n" (Hac_store.Store.lineage store);
      out buf "block cache          : %d hits, %d misses, %d/%d bytes (peak %d)\n"
        (Hac_store.Cache.hits c) (Hac_store.Cache.misses c) (Hac_store.Cache.bytes c)
        (Hac_store.Cache.budget c) (Hac_store.Cache.peak_bytes c);
      out buf "postings segments    : %d on disk\n" (Hac_store.Store.segment_count store));
  out buf "current user         : %d\n" (Fs.current_user (Hac.fs s.t))

module Trace = Hac_obs.Trace
module Metrics = Hac_obs.Metrics
module Flight = Hac_obs.Flight
module Slo = Hac_obs.Slo

(* Mount-time integrity warnings: recovery is best-effort by design, so any
   record or directory it had to drop must be surfaced, not silently eaten. *)
let recovery_warnings buf (r : Recover.reload_report) =
  let j = r.Recover.journal in
  let bad = j.Recover.corrupt + j.Recover.malformed in
  if bad > 0 then
    out buf "warning: skipped %d journal record(s) (%d corrupt, %d malformed)\n" bad
      j.Recover.corrupt j.Recover.malformed;
  if r.Recover.skipped > 0 then
    out buf "warning: skipped %d director%s (already semantic, or metadata damaged)\n"
      r.Recover.skipped
      (if r.Recover.skipped = 1 then "y" else "ies")

let cmd_trace s buf args =
  let tr = Hac.tracer s.t in
  match args with
  | [ "on" ] ->
      Trace.set_enabled tr true;
      out buf "tracing on\n"
  | [ "off" ] ->
      Trace.set_enabled tr false;
      out buf "tracing off\n"
  | [ "dump" ] -> Buffer.add_string buf (Trace.render tr)
  | [ "json" ] -> Buffer.add_string buf (Trace.to_jsonl tr)
  | [ "clear" ] ->
      Trace.clear tr;
      out buf "trace buffer cleared\n"
  | [] ->
      out buf "tracing %s: %d spans buffered, %d finished, %d dropped\n"
        (if Trace.enabled tr then "on" else "off")
        (List.length (Trace.finished tr))
        (Trace.total tr) (Trace.dropped tr)
  | _ -> out buf "trace [on|off|dump|json|clear]\n"

let cmd_flight s buf args =
  let fl = Hac.flight s.t in
  match args with
  | [] ->
      out buf "flight ring: %d/%d buffered, %d recorded, %d evicted, %d dump(s) written\n"
        (Flight.stored fl) (Flight.capacity fl) (Flight.total fl) (Flight.dropped fl)
        (Flight.dumps fl);
      out buf "auto-dump: %s\n"
        (match Flight.auto_dump fl with Some d -> d | None -> "off")
  | [ "show" ] -> Buffer.add_string buf (Flight.render (Flight.entries fl))
  | [ "dump"; path ] -> (
      match Flight.dump_to fl ~reason:"shell flight dump" path with
      | () -> out buf "wrote %s\n" path
      | exception Sys_error msg -> out buf "flight dump: %s\n" msg)
  | [ "read"; path ] -> (
      match Flight.load path with
      | Ok d -> Buffer.add_string buf (Flight.render_dump d)
      | Error e -> out buf "flight read: %s: %s\n" path e)
  | [ "auto"; "off" ] ->
      Flight.set_auto_dump fl None;
      out buf "auto-dump off\n"
  | [ "auto"; dir ] ->
      Flight.set_auto_dump fl (Some dir);
      out buf "auto-dump to %s\n" dir
  | _ -> out buf "flight [show|dump FILE|read FILE|auto DIR|auto off]\n"

(* serve [SESSIONS] [OPS]: a self-contained serving-layer simulation over
   the current instance.  Seeds a dedicated subtree (a few corpus files
   and one semantic directory), drives SESSIONS deterministic client
   streams through a multi-session server wrapping this instance
   (snapshot-isolated reads, group-commit writes, admission control),
   prints the aggregate stats and stores the per-session table for the
   [sessions] command. *)
let cmd_serve s buf args =
  let module Server = Hac_serve.Server in
  let module Admission = Hac_serve.Admission in
  let module Msg = Hac_serve.Msg in
  let module Sess = Hac_serve.Session in
  let module Serveload = Hac_workload.Serveload in
  let module Corpus = Hac_workload.Corpus in
  let num d v = match int_of_string_opt v with Some n -> n | None -> d in
  let sessions_n, ops_n =
    match args with
    | a :: b :: _ -> (num 3 a, num 12 b)
    | [ a ] -> (num 3 a, 12)
    | [] -> (3, 12)
  in
  let sessions_n = max 1 (min 16 sessions_n) in
  let ops_n = max 1 (min 200 ops_n) in
  let root =
    let rec pick k =
      let p = Printf.sprintf "/serve%d" k in
      if Fs.exists (Hac.fs s.t) p then pick (k + 1) else p
    in
    pick 0
  in
  Hac.mkdir s.t root;
  Hac.mkdir s.t (root ^ "/docs");
  let seeded =
    List.mapi
      (fun i w ->
        let p = Printf.sprintf "%s/docs/doc%d.txt" root i in
        Hac.write_file s.t p (w ^ " corpus document for the serving demo\n");
        p)
      [ "servealpha"; "servebeta"; "servealpha servebeta" ]
  in
  Hac.smkdir s.t (root ^ "/q-alpha") "servealpha";
  let config =
    {
      Hac_serve.Server.default_config with
      max_batch = 8;
      admission = { Admission.default with queue_bound = 64; slo_s = 60.0; seed = 11 };
    }
  in
  let server = Server.create ~config s.t in
  let corpus = Corpus.make ~seed:11 () in
  let profile = { Serveload.default with ops_per_session = ops_n } in
  let streams =
    Array.init sessions_n (fun i ->
        ref
          (List.map Msg.of_workload
             (Serveload.session_ops profile ~corpus ~seed:11 ~session:i
                ~files:(Array.of_list seeded)
                ~semdirs:[| root ^ "/q-alpha" |]
                ~fresh_root:root)))
  in
  let k = ref 0 in
  while Array.exists (fun r -> !r <> []) streams do
    Array.iteri
      (fun i r ->
        match !r with
        | [] -> ()
        | op :: rest ->
            r := rest;
            incr k;
            ignore (Server.submit server ~session:(Printf.sprintf "s%d" i) op);
            if !k mod 4 = 0 then Server.pump server)
      streams
  done;
  Server.drain server;
  let st = Server.stats server in
  let table =
    String.concat "\n" (List.map Sess.render (Server.sessions server)) ^ "\n"
  in
  s.serve_report <- Some table;
  s.slo_report <-
    Some
      (let causes = Server.degraded_causes server in
       Slo.render (Server.slo server)
       ^
       if causes = [] then ""
       else "degraded causes: " ^ String.concat ", " causes ^ "\n");
  Server.stop server;
  out buf
    "served %d ops from %d sessions under %s:\n\
    \  admitted %d, shed %d, commits %d in %d batches, acked %d, stale reads %d\n"
    st.Server.submitted sessions_n root st.Server.admitted st.Server.shed
    st.Server.commits st.Server.batches st.Server.acked st.Server.stale_reads;
  out buf "per-session table stored (print it with: sessions)\n"

let rec run s buf line =
  let parts =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  match parts with
  | [] -> true
  | "quit" :: _ | "exit" :: _ -> false
  | cmd :: args ->
      (try
         match (cmd, args) with
         | "help", _ -> out buf "%s\n" help_text
         | "pwd", _ -> out buf "%s\n" s.wd
         | "cd", [ d ] ->
             let d = resolve s d in
             if Hac.is_dir s.t d then s.wd <- d else out buf "cd: %s: not a directory\n" d
         | "ls", "-l" :: rest -> cmd_ls s buf true rest
         | "ls", rest -> cmd_ls s buf false rest
         | "mkdir", [ d ] -> Hac.mkdir s.t (resolve s d)
         | "rmdir", [ d ] -> Hac.rmdir s.t (resolve s d)
         | "write", f :: text ->
             Hac.write_file s.t (resolve s f) (String.concat " " text ^ "\n")
         | "append", f :: text ->
             Hac.append_file s.t (resolve s f) (String.concat " " text ^ "\n")
         | "cat", [ f ] -> (
             match Hac.resolve_link s.t (resolve s f) with
             | Some c -> Buffer.add_string buf c
             | None -> out buf "cat: %s: cannot read\n" f)
         | "rm", [ p ] -> Hac.unlink s.t (resolve s p)
         | "mv", [ a; b ] -> Hac.rename s.t ~src:(resolve s a) ~dst:(resolve s b)
         | "ln", [ target; link ] ->
             Hac.symlink s.t ~target:(resolve s target) ~link:(resolve s link)
         | "chmod", [ mode; p ] -> (
             match int_of_string_opt ("0o" ^ mode) with
             | Some m -> Fs.chmod (Hac.fs s.t) (resolve s p) m
             | None -> out buf "chmod: bad octal mode %s\n" mode)
         | "chown", [ uid; p ] -> (
             match int_of_string_opt uid with
             | Some u -> Fs.chown (Hac.fs s.t) (resolve s p) u
             | None -> out buf "chown: bad uid %s\n" uid)
         | "su", [ uid ] -> (
             match int_of_string_opt uid with
             | Some u -> Fs.set_user (Hac.fs s.t) u
             | None -> out buf "su: bad uid %s\n" uid)
         | "smkdir", d :: q when q <> [] -> Hac.smkdir s.t (resolve s d) (String.concat " " q)
         | "srmdir", [ d ] -> Hac.srmdir s.t (resolve s d)
         | "schquery", d :: q when q <> [] ->
             Hac.schquery s.t (resolve s d) (String.concat " " q)
         | "sreadin", [ d ] -> (
             match Hac.sreadin s.t (resolve s d) with
             | Some q -> out buf "%s\n" q
             | None -> out buf "%s is not semantic\n" d)
         | "ssearch", q when q <> [] -> cmd_ssearch s buf (String.concat " " q)
         | "sfind", q when q <> [] -> cmd_ssearch s buf (String.concat " " q)
         | "sgrep", pattern :: rest ->
             cmd_sgrep s buf pattern (match rest with [] -> s.wd | d :: _ -> resolve s d)
         | "links", rest -> show_links s buf (match rest with [] -> s.wd | d :: _ -> resolve s d)
         | "prohibited", rest ->
             let dir = match rest with [] -> s.wd | d :: _ -> resolve s d in
             List.iter (fun k -> out buf "%s\n" k) (Hac.prohibited s.t dir)
         | "sact", [ l ] ->
             List.iter
               (fun (n, line) -> out buf "%d: %s\n" n line)
               (Hac.sact s.t (resolve s l))
         | "ssync", rest -> Hac.ssync s.t (match rest with [] -> s.wd | d :: _ -> resolve s d)
         | "sreindex", _ -> out buf "reindexed %d files\n" (Hac.reindex s.t ())
         | "smount", [ d; "demo-library" ] -> resilient_mount s (resolve s d) (demo_library ())
         | "smount", [ d; "demo-web" ] -> resilient_mount s (resolve s d) (demo_web ())
         | "sumount", [ d; ns ] -> Hac.sumount s.t (resolve s d) ~ns_id:ns
         | "sprohibit", [ d; target ] ->
             Hac.prohibit_target s.t ~dir:(resolve s d) ~target:(resolve s target)
         | "sunprohibit", [ d; target ] ->
             Hac.unprohibit s.t ~dir:(resolve s d) ~target:(resolve s target)
         | "sexport", [] -> Buffer.add_string buf (Export.export_all s.t)
         | "sexport", [ d ] -> (
             match Export.export_dir s.t (resolve s d) with
             | Some text -> Buffer.add_string buf text
             | None -> out buf "%s is not semantic\n" d)
         | "srecover", [ "-v" ] ->
             let r = Recover.reload_report s.t in
             out buf "restored %d semantic directories (%d skipped)\n" r.Recover.restored
               r.Recover.skipped;
             out buf "journal: %d records applied, %d corrupt, %d malformed\n"
               r.Recover.journal.Recover.applied r.Recover.journal.Recover.corrupt
               r.Recover.journal.Recover.malformed;
             (match r.Recover.checkpoint_epoch with
             | Some e ->
                 out buf "chain: checkpoint epoch %d + %d segment(s) replayed\n" e
                   r.Recover.segments_replayed
             | None ->
                 out buf "chain: no checkpoint, %d segment(s) replayed\n"
                   r.Recover.segments_replayed);
             recovery_warnings buf r
         | "srecover", _ ->
             let r = Recover.reload_report s.t in
             out buf "restored %d semantic directories\n" r.Recover.restored;
             recovery_warnings buf r
         | "checkpoint", _ ->
             let e = Hac.checkpoint s.t in
             out buf "checkpoint committed for epoch %d; appends continue in epoch %d\n" e
               (Hac.journal_epoch s.t)
         | "compact", _ ->
             out buf "compaction removed %d superseded metadata file(s)\n" (Hac.compact s.t)
         | "store", rest -> (
             if Hac.store_enabled s.t then
               out buf "storage tier already enabled (see stats)\n"
             else
               let budget =
                 match rest with
                 | [] -> Some Hac_store.Store.default_budget
                 | n :: _ -> (
                     match int_of_string_opt n with
                     | Some b when b > 0 -> Some b
                     | Some _ | None -> None)
               in
               match budget with
               | None -> out buf "store: expected a positive cache budget in bytes\n"
               | Some b ->
                   Hac.enable_store ~budget:b s.t;
                   out buf
                     "storage tier enabled: %d-byte block cache; checkpoint commits \
                      the fast-mount image\n"
                     b)
         | "serve", rest -> cmd_serve s buf rest
         | "sessions", _ -> (
             match s.serve_report with
             | Some table -> Buffer.add_string buf table
             | None -> out buf "no serve run yet (try: serve 3 12)\n")
         | "crashtest", rest ->
             let seed =
               match rest with
               | [ n ] -> ( match int_of_string_opt n with Some v -> v | None -> 1)
               | _ -> 1
             in
             Buffer.add_string buf (Hac_crash.Harness.summary (Hac_crash.Harness.run ~seed ()))
         | "save", [ host ] ->
             Hac_vfs.Image.save_file (Hac.fs s.t) host;
             out buf "saved image to %s\n" host
         | "restore", [ host ] -> (
             match Hac_vfs.Image.load_file host with
             | Error msg -> out buf "restore failed: %s\n" msg
             | Ok fs ->
                 Hac.shutdown ~graceful:false s.t;
                 s.t <- Hac.of_fs ~auto_sync:true ~transducer fs;
                 s.wd <- "/";
                 (* The injectors reference the dead instance's clock, and
                    their namespaces are gone with its mount table. *)
                 Hashtbl.reset s.faults;
                 let r = Recover.reload_report s.t in
                 out buf "restored image; recovered %d semantic directories\n"
                   r.Recover.restored;
                 recovery_warnings buf r)
         | "sdirs", _ -> List.iter (fun d -> out buf "%s\n" d) (Hac.semantic_dirs s.t)
         | "mount-status", _ -> mount_status_report s buf
         | "fault", rest -> cmd_fault s buf rest
         | "stats", _ -> space_report s buf
         | "trace", rest -> cmd_trace s buf rest
         | "flight", rest -> cmd_flight s buf rest
         | "slo", _ -> (
             match s.slo_report with
             | Some report -> Buffer.add_string buf report
             | None ->
                 out buf "no serve run yet (try: serve 3 12); default objectives:\n";
                 List.iter
                   (fun (o : Slo.objective) ->
                     out buf "  %-6s %3.0f%% under %.1fs\n" o.Slo.op (o.Slo.goal *. 100.)
                       o.Slo.latency_s)
                   Slo.default_objectives)
         | "metrics", [] -> Buffer.add_string buf (Metrics.render (Hac.metrics s.t))
         | "metrics", [ "-json" ] ->
             Buffer.add_string buf (Metrics.to_json (Hac.metrics s.t))
         | "metrics", [ "-prom" ] ->
             Buffer.add_string buf (Hac_obs.Export.render_prom (Hac.metrics s.t))
         | "metrics", [ "-jsonl" ] ->
             Buffer.add_string buf (Hac_obs.Export.to_jsonl (Hac.metrics s.t))
         | "profile", rest when rest <> [] ->
             (* Wrap the inner command in a root span with tracing forced
                on, then print that subtree; the previous tracing setting
                is restored either way. *)
             let tr = Hac.tracer s.t in
             let was = Trace.enabled tr in
             Trace.set_enabled tr true;
             let finish () = Trace.set_enabled tr was in
             (match
                Trace.with_span tr ~name:("profile:" ^ List.hd rest) (fun () ->
                    ignore (run s buf (String.concat " " rest)))
              with
             | () -> finish ()
             | exception e ->
                 finish ();
                 raise e);
             let tr = Hac.tracer s.t in
             Buffer.add_string buf (Trace.render_last tr);
             (match Trace.last_subtree tr with
             | [] -> ()
             | spans ->
                 (* Aggregate the subtree per span name: how often each
                    stage ran and where the time went. *)
                 let agg = Hashtbl.create 8 in
                 let order = ref [] in
                 List.iter
                   (fun sp ->
                     let name = sp.Trace.name in
                     let c, v, cpu =
                       match Hashtbl.find_opt agg name with
                       | Some x -> x
                       | None ->
                           order := name :: !order;
                           (0, 0.0, 0.0)
                     in
                     Hashtbl.replace agg name
                       (c + 1, v +. Trace.v_duration sp, cpu +. Trace.cpu_duration sp))
                   spans;
                 out buf "\n  stage                        count     v (ms)   cpu (ms)\n";
                 List.iter
                   (fun name ->
                     let c, v, cpu = Hashtbl.find agg name in
                     out buf "  %-28s %5d %10.3f %10.3f\n" name c (v *. 1000.)
                       (cpu *. 1000.))
                   (List.rev !order);
                 (* Verdict against the interactive (read) objective: the
                    root span closes last, so it is the newest in the ring. *)
                 match List.rev spans with
                 | [] -> ()
                 | root :: _ ->
                     let v = Trace.v_duration root in
                     let target =
                       match
                         List.find_opt (fun o -> o.Slo.op = "read") Slo.default_objectives
                       with
                       | Some o -> o.Slo.latency_s
                       | None -> 2.0
                     in
                     out buf "  slo verdict: %s (v=%.3fs vs read target %.2fs)\n"
                       (if v <= target then "ok" else "breach")
                       v target)
         | _, _ -> out buf "unknown or malformed command (try: help)\n"
       with
      | Errno.Error (code, subject) -> out buf "error: %s: %s\n" subject (Errno.message code)
      | Hac.Hac_error msg -> out buf "error: %s\n" msg);
      true

let run_string s input =
  let buf = Buffer.create 256 in
  List.iter (fun line -> ignore (run s buf line)) (String.split_on_char ';' input);
  Buffer.contents buf
