module Fs = Hac_vfs.Fs

type journal_report = { applied : int; corrupt : int; malformed : int }

(* Record replay itself lives in {!Journal} (shared with compaction); this
   module turns a replayed chain into restored semantic directories. *)

let replay_journal_report text =
  let r = Journal.replay_create () in
  Journal.replay_text r text;
  ( r.Journal.map,
    { applied = r.Journal.applied; corrupt = r.Journal.corrupt; malformed = r.Journal.malformed }
  )

let replay_journal text = fst (replay_journal_report text)

(* Structure files are sealed whole ({!Hac_store.Seal.seal_blob}); a damaged
   or unsealed one reads as absent (all-or-nothing). *)
let read_opt fs path =
  match Fs.read_file fs path with
  | data -> Hac_store.Seal.unseal_file data
  | exception Hac_vfs.Errno.Error _ -> None

let chain_replay ?chain t =
  let chain = match chain with Some c -> c | None -> Journal.read_chain (Hac.fs t) in
  (chain, Journal.replay_chain chain)

let report_of_replay (r : Journal.replay) =
  { applied = r.Journal.applied; corrupt = r.Journal.corrupt; malformed = r.Journal.malformed }

let journal_map t = (snd (chain_replay t)).Journal.map

let record_replay_metrics t (chain : Journal.chain) (r : Journal.replay) =
  let i = Hac.instr t in
  Hac_obs.Metrics.incr ~by:r.Journal.applied i.Instr.journal_replay_applied;
  Hac_obs.Metrics.incr ~by:r.Journal.corrupt i.Instr.journal_replay_corrupt;
  Hac_obs.Metrics.incr ~by:r.Journal.malformed i.Instr.journal_replay_malformed;
  (* [recover.records_skipped] is deliberately NOT incremented here: this
     function runs once per {e replay}, and a recovery may replay the chain
     more than once (a diagnostic {!journal_report} probe before the
     reload, or a checkpoint-copy fallback after a torn live structure).
     The recovery entry points count each damaged record exactly once. *)
  Hac_obs.Metrics.set i.Instr.recover_segments_replayed
    (float_of_int (List.length chain.Journal.segments));
  Hac_obs.Metrics.set i.Instr.recover_checkpoint_age (float_of_int r.Journal.seg_applied);
  (* The flight recorder keeps the replay outcome; damaged records are a
     breach — the recent history is frozen to a dump (when auto-dump is
     configured) so the run-up to the corruption survives the restart. *)
  let fl = i.Instr.flight in
  Hac_obs.Flight.metric fl ~name:"journal.replay.applied"
    ~value:(float_of_int r.Journal.applied);
  let damaged = r.Journal.corrupt + r.Journal.malformed in
  if damaged > 0 then begin
    Hac_obs.Flight.transition fl ~subsystem:"recover" ~from_:"clean" ~to_:"damaged"
      ~reason:
        (Printf.sprintf "replay skipped %d records (%d corrupt, %d malformed)" damaged
           r.Journal.corrupt r.Journal.malformed);
    ignore (Hac_obs.Flight.breach fl ~reason:"crash recovery skipped journal records")
  end

let journal_report t =
  let chain, r = chain_replay t in
  record_replay_metrics t chain r;
  report_of_replay r

let journal_paths t =
  Hashtbl.fold (fun uid path acc -> (uid, path) :: acc) (journal_map t) []
  |> List.sort compare

let non_empty_lines text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")

(* .links lines: "permanent <name> <target>".  Files written before the
   link file held permanent links only also carry "transient ..." and
   "remote ..." lines, which are skipped. *)
let permanent_names links_text =
  non_empty_lines links_text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | "permanent" :: name :: _ -> Some name
         | _ -> None)

type reload_report = {
  restored : int;
  skipped : int;
  journal : journal_report;
  segments_replayed : int;
  checkpoint_epoch : int option;
}

(* Structure files for one uid, read from [fs] under the live metadata area
   or from a checkpoint image (where they sit at the root). *)
let structures_of fs ~root uid =
  match read_opt fs (Printf.sprintf "%ssd-%d.query" root uid) with
  | None -> None
  | Some query_text ->
      let query = String.trim query_text in
      if query = "" then None
      else
        let permanent =
          match read_opt fs (Printf.sprintf "%ssd-%d.links" root uid) with
          | Some text -> permanent_names text
          | None -> []
        in
        let prohibited =
          match read_opt fs (Printf.sprintf "%ssd-%d.proh" root uid) with
          | Some text -> non_empty_lines text
          | None -> []
        in
        Some (query, permanent, prohibited)

(* Restore the given semantic [(uid, path)] entries' structures, evaluating
   nothing.  Snapshot every candidate's structures first: they must be read
   as the crash left them, before anything persists fresh metadata.  Live
   files are preferred (they carry post-checkpoint settles); the
   checkpoint's copies back them up when the live file was torn, rotted or
   lost. *)
let restore_entries t (chain : Journal.chain) entries =
  let fs = Hac.fs t in
  let live_root = Journal.meta_root ^ "/" in
  let blob_structures uid =
    match chain.Journal.checkpoint with
    | None -> None
    | Some (_, img) -> structures_of img ~root:"/" uid
  in
  let plan =
    List.filter_map
      (fun (uid, path) ->
        if not (Fs.is_dir fs path) then None
        else
          match (structures_of fs ~root:live_root uid, blob_structures uid) with
          | None, None -> None
          | live, blob -> Some (path, live, blob))
      entries
  in
  let restored = ref 0 and skipped = ref 0 in
  let try_restore path = function
    | None -> false
    | Some (query, permanent, prohibited) -> (
        match Hac.restore_semdir t path ~query ~permanent ~prohibited with
        | () -> true
        | exception Hac.Hac_error _ -> false)
  in
  List.iter
    (fun (path, live, blob) ->
      if Hac.is_semantic t path then incr skipped
      else if try_restore path live then incr restored
      else if blob <> live && try_restore path blob then incr restored
      else (* Unparseable or cyclic after the crash: leave it plain. *)
        incr skipped)
    plan;
  Hac_obs.Metrics.incr ~by:!skipped (Hac.instr t).Instr.recover_dirs_skipped;
  (!restored, !skipped)

let reload_report ?chain t =
  Hac_obs.Trace.with_span (Hac.tracer t) ~name:"recover.reload" (fun () ->
  let chain, r = chain_replay ?chain t in
  record_replay_metrics t chain r;
  (* Once per recovery, whatever mix of probes, replays and checkpoint-copy
     fallbacks it took to get here: each damaged record is one skip. *)
  Hac_obs.Metrics.incr
    ~by:(r.Journal.corrupt + r.Journal.malformed)
    (Hac.instr t).Instr.recover_records_skipped;
  let journal = report_of_replay r in
  let fs = Hac.fs t in
  let live_root = Journal.meta_root ^ "/" in
  (* Which uids were semantic?  Chains written by this code flag them with
     S records; a legacy chain (no S record anywhere) falls back to the old
     inference — a structure file exists for the uid. *)
  let legacy = Hashtbl.length r.Journal.sem = 0 in
  let entries =
    if not legacy then Journal.semantic_entries r
    else
      Hashtbl.fold
        (fun uid path acc ->
          if structures_of fs ~root:live_root uid <> None then (uid, path) :: acc else acc)
        r.Journal.map []
      |> List.sort compare
  in
  let restored, skipped = restore_entries t chain entries in
  Hac.sync_all t;
  (* The old instance's identifiers are dead; re-key the metadata area
     (atomically — a crash mid-recovery leaves the old chain intact). *)
  Hac.checkpoint_metadata t;
  {
    restored;
    skipped;
    journal;
    segments_replayed = List.length chain.Journal.segments;
    checkpoint_epoch = Option.map fst chain.Journal.checkpoint;
  })

let reload t = (reload_report t).restored

(* -- mounting a tree ------------------------------------------------------- *)

(* The O(delta) mount: try {!Hac.fast_adopt} — namespace and index skeleton
   from the checkpoint's reconstruction images, postings demand-faulted
   from the store's segments, the journaled delta indexed — restore every
   semantic directory, and let {!Hac.adopt_results} adopt the persisted
   results the images vouch for before one scope pass settles the delta.
   Fall back to the full oracle ({!Hac.of_fs} + {!reload_report}, which
   re-reads and re-tokenizes every document and re-evaluates every query)
   whenever the images cannot vouch for the tree.  Either way the instance
   comes back with the storage tier enabled. *)
let mount ?block_size ?stem ?transducer ?auto_sync ?reindex_every ?budget fs =
  let t0 = Sys.time () in
  let finish t mode =
    (match Hac.store t with
    | Some store ->
        let si = Hac_store.Store.instr store in
        Hac_obs.Metrics.set si.Hac_store.Store.mount_reconstruct_ms
          ((Sys.time () -. t0) *. 1000.);
        if mode = `Full then Hac_obs.Metrics.incr si.Hac_store.Store.mount_fallbacks
    | None -> ());
    (t, mode)
  in
  (* One read of the chain serves the fast path and, when that refuses,
     the full replay. *)
  let chain = Journal.read_chain fs in
  match
    Hac.fast_adopt ?block_size ?stem ?transducer ?auto_sync ?reindex_every ?budget ~chain fs
  with
  | Ok { Hac.hac = t; chain; replay; delta } ->
      record_replay_metrics t chain replay;
      (* fast_adopt refused any chain with damaged records, so there are
         no skips to count on this path. *)
      ignore (restore_entries t chain (Journal.semantic_entries replay) : int * int);
      (* Adopt what the images vouch for, re-evaluate the rest, settle the
         delta: the instance returns with index and query results
         consistent with the tree. *)
      Hac.adopt_results t delta;
      finish t `Fast
  | Error _reason ->
      let t = Hac.of_fs ?block_size ?stem ?transducer ?auto_sync ?reindex_every ~chain fs in
      let (_ : reload_report) = reload_report ~chain t in
      Hac.enable_store ?budget t;
      finish t `Full
