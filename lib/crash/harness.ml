module Fs = Hac_vfs.Fs
module Store = Hac_fault.Store
module Hac = Hac_core.Hac
module Recover = Hac_core.Recover
module Journal = Hac_core.Journal
module Link = Hac_core.Link

type violation = { point : string; what : string }

type outcome = {
  seed : int;
  ops : int;
  boundaries : int;
  points : int;
  oracle_points : int;
  recovery_points : int;
  compaction_points : int;
  truncated_batch_points : int;
  dropped_fsyncs : int;
  violations : violation list;
}

(* -- observable state of an instance ---------------------------------------

   Two instances agree when every semantic directory shows the same query,
   the same named links (with targets and classes) and the same prohibition
   set.  uids are deliberately absent: each recovered life allocates fresh
   ones. *)

type dir_state = {
  path : string;
  query : string;
  links : (string * string * string) list;  (* name, target key, class *)
  prohibited : string list;
}

let state_of t =
  Hac.semantic_dirs t
  |> List.map (fun path ->
         {
           path;
           query = Option.value ~default:"?" (Hac.sreadin t path);
           links =
             Hac.links t path
             |> List.map (fun l ->
                    (l.Link.name, Link.target_key l.Link.target, Link.cls_name l.Link.cls))
             |> List.sort compare;
           prohibited = List.sort compare (Hac.prohibited t path);
         })

let describe ds =
  ds
  |> List.map (fun d ->
         Printf.sprintf "%s[%s] links=%s proh=%s" d.path d.query
           (String.concat ","
              (List.map (fun (n, tgt, c) -> Printf.sprintf "%s->%s(%s)" n tgt c) d.links))
           (String.concat "," d.prohibited))
  |> String.concat "; "
  |> fun s -> if s = "" then "(no semantic dirs)" else s

let diff_states expected got =
  Printf.sprintf "expected %s / got %s" (describe expected) (describe got)

(* -- the recorded workload -------------------------------------------------

   A smoke workload exercising every journal record kind and both chain
   operations: directory and file churn, semantic creation, re-query,
   curation (permanent + prohibited links), rename, semantic removal, an
   explicit checkpoint and a compaction.  Small on purpose — the harness
   recovers a full instance at every single op boundary of this script. *)

type boundary = { label : string; at : int; state : dir_state list }

type recording = {
  store : Store.t;
  all_ops : Store.op list;
  bounds : boundary list;  (* ascending by [at] *)
  legal : (string * string, unit) Hashtbl.t;  (* acknowledged (path, query) *)
}

let steps t =
  [
    ("seed files", fun () ->
        Hac.mkdir t "/docs";
        Hac.write_file t "/docs/a.txt" "alpha notes here";
        Hac.write_file t "/docs/b.txt" "beta draft notes");
    ("smkdir alpha", fun () -> Hac.smkdir t "/alpha" "alpha");
    ("grow corpus", fun () -> Hac.write_file t "/docs/c.txt" "alpha beta mixed");
    ("smkdir beta", fun () -> Hac.smkdir t "/beta" "beta");
    ("rename target", fun () -> Hac.rename t ~src:"/docs/b.txt" ~dst:"/docs/bb.txt");
    ("curate links", fun () ->
        Hac.prohibit_target t ~dir:"/alpha" ~target:"/docs/c.txt";
        ignore (Hac.add_permanent t ~dir:"/alpha" ~target:"/docs/bb.txt"));
    ("checkpoint", fun () -> ignore (Hac.checkpoint t));
    ("post-checkpoint file", fun () -> Hac.write_file t "/docs/d.txt" "alpha again");
    ("requery beta", fun () -> Hac.schquery t "/beta" "notes");
    ("smkdir scratch", fun () -> Hac.smkdir t "/scratch" "mixed");
    ("srmdir scratch", fun () -> Hac.srmdir t "/scratch");
    ("compact", fun () -> ignore (Hac.compact t));
    ("tail file", fun () -> Hac.write_file t "/docs/e.txt" "beta finale");
  ]

(* A batched writer's workload — the serving layer's write path.  The
   "group commit" step applies several mutations with per-mutation settles
   disabled, so the step's single settle is the only completion barrier
   the whole batch gets.  Kept separate from [steps] so the batch
   truncation scan stays cheap. *)
let batch_steps t =
  [
    ("seed corpus", fun () ->
        Hac.mkdir t "/docs";
        Hac.write_file t "/docs/a.txt" "alpha notes";
        Hac.smkdir t "/alpha" "alpha");
    ("group commit", fun () ->
        Hac.set_auto_sync t false;
        Fun.protect
          ~finally:(fun () -> Hac.set_auto_sync t true)
          (fun () ->
            Hac.write_file t "/docs/g1.txt" "alpha group first";
            Hac.write_file t "/docs/g2.txt" "alpha group second";
            Hac.rename t ~src:"/docs/g1.txt" ~dst:"/docs/g_first.txt";
            Hac.write_file t "/docs/g3.txt" "beta group third"));
    ("tail", fun () -> Hac.write_file t "/docs/z.txt" "alpha finale");
  ]

let record ~seed ?(sabotage = fun _ _ -> ()) ?(steps_of = steps) ~on_boundary () =
  let fs = Fs.create () in
  let store = Store.create ~seed () in
  Fs.attach_disk fs store;
  let t = Hac.of_fs fs in
  let legal = Hashtbl.create 32 in
  let bounds = ref [] in
  List.iter
    (fun (label, f) ->
      sabotage label store;
      f ();
      (* Materialise every directory's physical links before the settle so
         the completion barrier covers them — [state_of] below must observe,
         not mutate, the acknowledged disk state. *)
      List.iter (fun d -> ignore (Hac.links t d)) (Hac.semantic_dirs t);
      Hac.settle t;
      let state = state_of t in
      List.iter (fun d -> Hashtbl.replace legal (d.path, d.query) ()) state;
      let b = { label; at = Store.op_count store; state } in
      on_boundary store b;
      bounds := b :: !bounds)
    (steps_of t);
  Fs.detach_disk fs;
  Hac.shutdown ~graceful:false t;
  { store; all_ops = Store.ops store; bounds = List.rev !bounds; legal }

(* -- recovery invariants ---------------------------------------------------

   For every crash state the harness checks:
   + recovery never raises, whatever the disk contains;
   + the recovered state is a settle fixpoint (links are exactly the
     current scopes' query results — re-settling changes nothing);
   + every recovered (path, query) was acknowledged at some settle of the
     original run (nothing invented, no silently mis-parsed query);
   + the re-keyed journal chain agrees with the instance: chain-semantic
     paths = live semantic dirs, and every journaled directory exists;
   + recovering the same disk twice yields the same state. *)

let take n l = List.filteri (fun i _ -> i < n) l

let check ~legal ~add ?(double = false) point fs =
  match
    let t = Hac.of_fs fs in
    let rep = Recover.reload_report t in
    (t, rep)
  with
  | exception e ->
      add point (Printf.sprintf "recovery raised %s" (Printexc.to_string e));
      None
  | t, rep ->
      let st = state_of t in
      Hac.sync_all t;
      let st' = state_of t in
      if st <> st' then
        add point ("recovered state is not a settle fixpoint: " ^ diff_states st st');
      List.iter
        (fun d ->
          if not (Hashtbl.mem legal (d.path, d.query)) then
            add point
              (Printf.sprintf "recovered (%s, %s) was never an acknowledged state" d.path
                 d.query))
        st;
      let r = Journal.replay_chain (Journal.read_chain fs) in
      let chain_sem = List.map snd (Journal.semantic_entries r) |> List.sort compare in
      let live_sem = List.map (fun d -> d.path) st in
      if chain_sem <> live_sem then
        add point
          (Printf.sprintf "chain flags [%s] semantic but instance has [%s]"
             (String.concat "," chain_sem)
             (String.concat "," live_sem));
      Hashtbl.iter
        (fun _ p ->
          if not (Fs.is_dir fs p) then
            add point (Printf.sprintf "journal names %s but no such directory" p))
        r.Journal.map;
      if double then begin
        Hac.shutdown ~graceful:false t;
        match
          let t2 = Hac.of_fs fs in
          ignore (Recover.reload t2);
          t2
        with
        | exception e ->
            add point (Printf.sprintf "second recovery raised %s" (Printexc.to_string e))
        | t2 ->
            let st2 = state_of t2 in
            if st <> st2 then
              add point ("double recovery diverged: " ^ diff_states st st2);
            Hac.shutdown ~graceful:false t2
      end;
      Some (rep, st)

(* Crash during recovery itself: record the recovery's own writes on a
   second device, then enumerate every prefix of (base crash state +
   recovery writes) and recover each — covering torn re-keying, the
   checkpoint rename, and every partially-restored structure file. *)
let recovery_crash_points ~seed ~legal ~add (base_label, base_ops) =
  let fs0 = Sim.replay base_ops in
  let store2 = Store.create ~seed () in
  Fs.attach_disk fs0 store2;
  let t = Hac.of_fs fs0 in
  ignore (Recover.reload t);
  Fs.detach_disk fs0;
  Hac.shutdown ~graceful:false t;
  let rec_ops = Store.ops store2 in
  let n = List.length rec_ops in
  for j = 0 to n do
    let fs = Sim.replay ~into:(Sim.replay base_ops) (take j rec_ops) in
    let point = Printf.sprintf "%s + recovery op %d/%d" base_label j n in
    ignore (check ~legal ~add ~double:(j = n || j mod 5 = 0) point fs)
  done;
  n + 1

let run ?(seed = 1) ?(double_stride = 7) ?flight_dir () =
  let violations = ref [] in
  let add point what = violations := { point; what } :: !violations in
  (* The oracle run: every settle acknowledges durability, so at each step
     boundary the whole log must be durable and recovering exactly the
     durable prefix must reproduce the acknowledged state. *)
  let rec_main =
    record ~seed
      ~on_boundary:(fun store b ->
        if Store.durable_count store <> Store.op_count store then
          add
            (Printf.sprintf "boundary %s" b.label)
            (Printf.sprintf "settle acknowledged with %d of %d ops durable"
               (Store.durable_count store) (Store.op_count store)))
      ()
  in
  let ops_n = List.length rec_main.all_ops in
  let label_of k =
    match List.find_opt (fun b -> k <= b.at) rec_main.bounds with
    | Some b -> b.label
    | None -> "tail"
  in
  let compact_range =
    let rec find prev = function
      | [] -> (0, 0)
      | b :: rest -> if b.label = "compact" then (prev, b.at) else find b.at rest
    in
    find 0 rec_main.bounds
  in
  let points = ref 0 and oracle_points = ref 0 and compaction_points = ref 0 in
  for k = 0 to ops_n do
    let prefix = Store.ops ~upto:k rec_main.store in
    let point = Printf.sprintf "op %d/%d (%s) clean" k ops_n (label_of k) in
    incr points;
    if k > fst compact_range && k <= snd compact_range then incr compaction_points;
    (match
       check ~legal:rec_main.legal ~add
         ~double:(k mod double_stride = 0 || k = ops_n)
         point (Sim.replay prefix)
     with
    | Some (_, st) -> (
        match List.find_opt (fun b -> b.at = k) rec_main.bounds with
        | Some b ->
            incr oracle_points;
            if st <> b.state then
              add point ("acknowledged state not recovered: " ^ diff_states b.state st)
        | None -> ())
    | None -> ());
    if k < ops_n then begin
      let op = List.nth rec_main.all_ops k in
      List.iter
        (fun (vlabel, damaged) ->
          match damaged with
          | None -> ()
          | Some d ->
              incr points;
              let point = Printf.sprintf "op %d/%d (%s) %s" k ops_n (label_of k) vlabel in
              ignore (check ~legal:rec_main.legal ~add point (Sim.replay (prefix @ [ d ]))))
        [
          ("torn", Store.torn op ~keep:(Store.tear_point rec_main.store op));
          ("flipped", Store.flipped op ~at:(Store.flip_point rec_main.store op));
          ("interrupted", Store.interrupted op);
        ]
    end
  done;
  (* Crash points inside recovery itself, from two bases: the state right
     after the explicit checkpoint (re-keying on top of a fresh base) and
     the final state (recovery after compaction). *)
  let ckpt_at =
    match List.find_opt (fun b -> b.label = "checkpoint") rec_main.bounds with
    | Some b -> b.at
    | None -> ops_n
  in
  let recovery_points =
    recovery_crash_points ~seed ~legal:rec_main.legal ~add
      ("ckpt boundary", Store.ops ~upto:ckpt_at rec_main.store)
    + recovery_crash_points ~seed ~legal:rec_main.legal ~add
        ("final state", rec_main.all_ops)
  in
  (* Post-checkpoint replay bound: recovering the final state must start
     from the checkpoint and replay only the open segment, not history. *)
  (match check ~legal:rec_main.legal ~add "final chain" (Sim.replay rec_main.all_ops) with
  | Some (rep, _) ->
      if rep.Recover.checkpoint_epoch = None then
        add "final chain" "no readable checkpoint after an explicit checkpoint";
      if rep.Recover.segments_replayed > 1 then
        add "final chain"
          (Printf.sprintf "replayed %d segments past the checkpoint (want <= 1)"
             rep.Recover.segments_replayed)
  | None -> ());
  (* A device that acknowledges fsyncs it never performs: the tail of the
     run is lost even though settle acknowledged it.  Consistency must
     survive; only durability of the lied-about suffix is forfeit. *)
  let dropped =
    let rec_drop =
      record ~seed
        ~sabotage:(fun label store ->
          if label = "post-checkpoint file" then Store.drop_fsyncs store 2)
        ~on_boundary:(fun _ _ -> ())
        ()
    in
    let d = Store.dropped_fsync_count rec_drop.store in
    if d = 0 then add "dropped-fsync run" "fault injection armed but no fsync was dropped";
    incr points;
    ignore
      (check ~legal:rec_drop.legal ~add ~double:true "dropped-fsync durable frontier"
         (Sim.replay (Store.ops ~upto:(Store.durable_count rec_drop.store) rec_drop.store)));
    d
  in
  (* Crash inside a group commit: a batched writer applies several
     mutations with per-mutation settles disabled, so one settle — one
     completion barrier — covers the whole batch.  A crash anywhere inside
     the batch leaves partially applied writes with no acknowledging
     settle; every truncation (and a torn variant of the first lost op)
     must still recover to an acknowledged (path, query) world, and the
     full batch must recover to exactly its acknowledged state.  A second
     run has the device swallow the batch's barrier and everything after:
     settle acknowledged a batch the disk never completed, and the durable
     prefix — ending before the batch — must recover clean. *)
  let truncated_batch =
    let rec_batch =
      record ~seed ~steps_of:batch_steps ~on_boundary:(fun _ _ -> ()) ()
    in
    let batch_b =
      match List.find_opt (fun b -> b.label = "group commit") rec_batch.bounds with
      | Some b -> b
      | None -> invalid_arg "batch workload lost its group step"
    in
    let prev_at =
      List.fold_left
        (fun acc b -> if b.at < batch_b.at then max acc b.at else acc)
        0 rec_batch.bounds
    in
    let n = ref 0 in
    for k = prev_at to batch_b.at do
      let prefix = Store.ops ~upto:k rec_batch.store in
      let point = Printf.sprintf "batch op %d/%d clean" k batch_b.at in
      incr n;
      (match
         check ~legal:rec_batch.legal ~add ~double:(k = batch_b.at) point
           (Sim.replay prefix)
       with
      | Some (_, st) when k = batch_b.at ->
          if st <> batch_b.state then
            add point ("acknowledged batch state not recovered: " ^ diff_states batch_b.state st)
      | Some _ | None -> ());
      if k < batch_b.at then begin
        let op = List.nth rec_batch.all_ops k in
        match Store.torn op ~keep:(Store.tear_point rec_batch.store op) with
        | None -> ()
        | Some d ->
            incr n;
            let point = Printf.sprintf "batch op %d/%d torn" k batch_b.at in
            ignore (check ~legal:rec_batch.legal ~add point (Sim.replay (prefix @ [ d ])))
      end
    done;
    let rec_lying =
      record ~seed ~steps_of:batch_steps
        ~sabotage:(fun label store ->
          if label = "group commit" then Store.drop_fsyncs store 100)
        ~on_boundary:(fun _ _ -> ())
        ()
    in
    if Store.dropped_fsync_count rec_lying.store = 0 then
      add "batch dropped-fsync run" "fault injection armed but no fsync was dropped";
    incr n;
    ignore
      (check ~legal:rec_lying.legal ~add ~double:true "batch dropped barrier"
         (Sim.replay (Store.ops ~upto:(Store.durable_count rec_lying.store) rec_lying.store)));
    !n
  in
  (* Freeze the violations into a flight dump: the harness spins up many
     short-lived engines, so their per-instance recorders are gone by the
     time a violation is reported — a dedicated recorder (indexed by
     violation order, not wall time) keeps the evidence in one artifact
     that CI can upload. *)
  (match (flight_dir, !violations) with
  | Some dir, (_ :: _ as vs) ->
      let k = ref 0.0 in
      let fl = Hac_obs.Flight.create ~capacity:(List.length vs + 1) ~now:(fun () -> !k) () in
      Hac_obs.Flight.set_auto_dump fl (Some dir);
      List.iter
        (fun v ->
          k := !k +. 1.0;
          Hac_obs.Flight.transition fl ~subsystem:"crash" ~from_:"recovered"
            ~to_:"violated"
            ~reason:(v.point ^ ": " ^ v.what))
        (List.rev vs);
      ignore (Hac_obs.Flight.breach fl ~reason:"crash harness recovery violations")
  | _ -> ());
  {
    seed;
    ops = ops_n;
    boundaries = List.length rec_main.bounds;
    points = !points;
    oracle_points = !oracle_points;
    recovery_points;
    compaction_points = !compaction_points;
    truncated_batch_points = truncated_batch;
    dropped_fsyncs = dropped;
    violations = List.rev !violations;
  }

let summary o =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "crash harness: seed %d, %d ops, %d crash states (%d oracle boundaries, %d in \
        compaction, %d during recovery, %d in a group commit, %d dropped fsyncs)\n"
       o.seed o.ops o.points o.oracle_points o.compaction_points o.recovery_points
       o.truncated_batch_points o.dropped_fsyncs);
  if o.violations = [] then Buffer.add_string b "no invariant violations\n"
  else
    List.iter
      (fun v -> Buffer.add_string b (Printf.sprintf "VIOLATION at %s: %s\n" v.point v.what))
      o.violations;
  Buffer.contents b

(* -- the storage-tier sweep -------------------------------------------------

   Same machinery, pointed at the durable storage tier: a workload that
   enables the tier mid-run (block puts, a checkpoint committing the
   postings segment and document table, a compaction sweeping scratch),
   crashed at every op boundary plus torn/flipped variants.  Every crash
   state is recovered twice — through the full oracle ({!check}, exactly as
   the base sweep) and through {!Hac_core.Recover.mount}, whose fast path
   rebuilds from the reconstruction images and must fall back whenever the
   images cannot vouch for the bytes.  At settle boundaries the two
   recoveries must agree exactly; in between, each must independently
   satisfy every invariant.  A second phase grows a second postings
   segment (a fast mount installs the cold provider, so the next
   checkpoint appends a delta) and crashes inside the compaction that
   merges them — the segment-merge commit points. *)

type store_outcome = {
  st_seed : int;
  st_ops : int;
  st_points : int;  (** Crash states swept (each recovered both ways). *)
  st_boundary_points : int;  (** Points where mount and oracle were compared. *)
  st_merge_points : int;  (** Crash states inside the segment merge phase. *)
  st_fast_mounts : int;
  st_full_mounts : int;
  st_violations : violation list;
}

(* Budget of 64 payload bytes: the bodies below are ~16 bytes each, so the
   cache holds only a few blocks and the sweep exercises eviction too. *)
let store_steps t =
  [
    ("seed files", fun () ->
        Hac.mkdir t "/docs";
        Hac.write_file t "/docs/a.txt" "alpha notes here";
        Hac.write_file t "/docs/b.txt" "beta draft notes");
    ("enable store", fun () -> Hac.enable_store ~budget:64 t);
    ("smkdir alpha", fun () -> Hac.smkdir t "/alpha" "alpha");
    ("grow corpus", fun () -> Hac.write_file t "/docs/c.txt" "alpha beta mixed");
    ("checkpoint", fun () -> ignore (Hac.checkpoint t));
    ("post-checkpoint file", fun () -> Hac.write_file t "/docs/d.txt" "alpha again");
    (* A nested directory, a dirref directory, curation and a requery: the
       states a fast mount's result adoption must tell apart. *)
    ("nested", fun () ->
        Hac.smkdir t "/alpha/inner" "notes";
        ignore (Hac.links t "/alpha"));
    ("dirref", fun () -> Hac.smkdir t "/beta" "{/alpha} AND again");
    ("curate", fun () ->
        Hac.prohibit_target t ~dir:"/alpha" ~target:"/docs/c.txt";
        ignore (Hac.add_permanent t ~dir:"/alpha" ~target:"/docs/b.txt"));
    ("requery", fun () -> Hac.schquery t "/alpha/inner" "draft");
    ("overwrite", fun () -> Hac.write_file t "/docs/a.txt" "alpha revised now");
    ("rename file", fun () -> Hac.rename t ~src:"/docs/b.txt" ~dst:"/docs/bb.txt");
    ("compact", fun () -> ignore (Hac.compact t));
    ("tail file", fun () -> Hac.write_file t "/docs/e.txt" "beta finale");
  ]

let check_mount ~legal ~add point fs =
  match Recover.mount ~budget:64 fs with
  | exception e ->
      add point (Printf.sprintf "mount raised %s" (Printexc.to_string e));
      None
  | t, mode ->
      let st = state_of t in
      Hac.sync_all t;
      let st' = state_of t in
      if st <> st' then
        add point ("mounted state is not a settle fixpoint: " ^ diff_states st st');
      List.iter
        (fun d ->
          if not (Hashtbl.mem legal (d.path, d.query)) then
            add point
              (Printf.sprintf "mounted (%s, %s) was never an acknowledged state" d.path
                 d.query))
        st;
      Hac.shutdown ~graceful:false t;
      Some (mode, st)

let store_merge_crash_points ~seed ~add (rec_main : recording) =
  let base_ops = rec_main.all_ops in
  let legal = Hashtbl.copy rec_main.legal in
  let fs0 = Sim.replay base_ops in
  let store2 = Store.create ~seed () in
  Fs.attach_disk fs0 store2;
  let t, mode = Recover.mount ~budget:64 fs0 in
  if mode <> `Fast then
    add "merge base" "expected a fast mount of the recorded final state";
  Hac.write_file t "/docs/m.txt" "alpha merge fodder";
  ignore (Hac.checkpoint t);
  List.iter (fun d -> Hashtbl.replace legal (d.path, d.query) ()) (state_of t);
  (match Hac.store t with
  | Some s when Hac_store.Store.segment_count s >= 2 -> ()
  | Some _ -> add "merge base" "expected a second (delta) segment before compaction"
  | None -> add "merge base" "mounted instance lost its storage tier");
  ignore (Hac.compact t);
  (match Hac.store t with
  | Some s when Hac_store.Store.segment_count s = 1 -> ()
  | _ -> add "merge base" "compaction did not merge the segments");
  Fs.detach_disk fs0;
  Hac.shutdown ~graceful:false t;
  let ops = Store.ops store2 in
  let n = List.length ops in
  for j = 0 to n do
    let point = Printf.sprintf "merge + op %d/%d" j n in
    ignore
      (check ~legal ~add point (Sim.replay ~into:(Sim.replay base_ops) (take j ops)));
    ignore
      (check_mount ~legal ~add point
         (Sim.replay ~into:(Sim.replay base_ops) (take j ops)))
  done;
  n + 1

let run_store ?(seed = 1) () =
  let violations = ref [] in
  let add point what = violations := { point; what } :: !violations in
  let rec_main = record ~seed ~steps_of:store_steps ~on_boundary:(fun _ _ -> ()) () in
  let ops_n = List.length rec_main.all_ops in
  let label_of k =
    match List.find_opt (fun b -> k <= b.at) rec_main.bounds with
    | Some b -> b.label
    | None -> "tail"
  in
  let points = ref 0 and boundary_pts = ref 0 in
  let fast = ref 0 and full = ref 0 in
  for k = 0 to ops_n do
    let prefix = Store.ops ~upto:k rec_main.store in
    let point = Printf.sprintf "store op %d/%d (%s) clean" k ops_n (label_of k) in
    incr points;
    (* Recovery mutates the disk, so each side gets its own replica of the
       same crash bytes. *)
    let oracle = check ~legal:rec_main.legal ~add point (Sim.replay prefix) in
    (match check_mount ~legal:rec_main.legal ~add point (Sim.replay prefix) with
    | None -> ()
    | Some (mode, st_m) -> (
        (if mode = `Fast then incr fast else incr full);
        match (List.find_opt (fun b -> b.at = k) rec_main.bounds, oracle) with
        | Some b, Some (_, st_o) ->
            incr boundary_pts;
            if st_m <> st_o then
              add point ("mount diverged from the oracle: " ^ diff_states st_o st_m);
            if st_m <> b.state then
              add point ("acknowledged state not mounted: " ^ diff_states b.state st_m)
        | _ -> ()));
    if k < ops_n then begin
      let op = List.nth rec_main.all_ops k in
      List.iter
        (fun (vlabel, damaged) ->
          match damaged with
          | None -> ()
          | Some d ->
              incr points;
              let point =
                Printf.sprintf "store op %d/%d (%s) %s" k ops_n (label_of k) vlabel
              in
              ignore
                (check ~legal:rec_main.legal ~add point (Sim.replay (prefix @ [ d ])));
              ignore
                (check_mount ~legal:rec_main.legal ~add point
                   (Sim.replay (prefix @ [ d ]))))
        [
          ("torn", Store.torn op ~keep:(Store.tear_point rec_main.store op));
          ("flipped", Store.flipped op ~at:(Store.flip_point rec_main.store op));
        ]
    end
  done;
  let merge_points = store_merge_crash_points ~seed ~add rec_main in
  {
    st_seed = seed;
    st_ops = ops_n;
    st_points = !points;
    st_boundary_points = !boundary_pts;
    st_merge_points = merge_points;
    st_fast_mounts = !fast;
    st_full_mounts = !full;
    st_violations = List.rev !violations;
  }

let summary_store o =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "store crash sweep: seed %d, %d ops, %d crash states each recovered twice (%d \
        boundary comparisons, %d merge points, mounts: %d fast / %d full)\n"
       o.st_seed o.st_ops o.st_points o.st_boundary_points o.st_merge_points
       o.st_fast_mounts o.st_full_mounts);
  if o.st_violations = [] then Buffer.add_string b "no invariant violations\n"
  else
    List.iter
      (fun v -> Buffer.add_string b (Printf.sprintf "VIOLATION at %s: %s\n" v.point v.what))
      o.st_violations;
  Buffer.contents b
