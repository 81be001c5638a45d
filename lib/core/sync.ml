module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Fileset = Hac_bitset.Fileset
module Index = Hac_index.Index
module Search = Hac_index.Search
module Ast = Hac_query.Ast
module Depgraph = Hac_depgraph.Depgraph
module Namespace = Hac_remote.Namespace
module Mount_table = Hac_remote.Mount_table

type scope = {
  local : Fileset.t;
  remote : Link.target list;
  mount_uids : int list;
}

let subtree_docs (ctx : Ctx.t) path =
  let path = Vpath.normalize path in
  if path = Vpath.root then Index.universe ctx.index
  else Index.doc_ids_under ctx.index path

let mounts_under (ctx : Ctx.t) path =
  List.filter
    (fun uid ->
      match Uidmap.path_of_uid ctx.uids uid with
      | Some mpath -> Vpath.is_prefix ~prefix:path mpath
      | None -> false)
    (Mount_table.mount_points ctx.mounts)

let compute_scope (ctx : Ctx.t) uid =
  match Uidmap.path_of_uid ctx.uids uid with
  | None -> { local = Fileset.empty; remote = []; mount_uids = [] }
  | Some path -> (
      let mount_uids = mounts_under ctx path in
      match Ctx.semdir_of_uid ctx uid with
      | None -> { local = subtree_docs ctx path; remote = []; mount_uids }
      | Some sd ->
          (* The current query result (bitmap + remote entries) plus
             explicitly present links plus physical files of the subtree. *)
          let local = ref (Fileset.union sd.Semdir.transient_local (subtree_docs ctx path)) in
          let remote = ref [] in
          List.iter
            (fun r ->
              remote := Link.Remote { ns_id = r.Semdir.rr_ns; uri = r.Semdir.rr_uri } :: !remote)
            sd.Semdir.transient_remote;
          List.iter
            (fun l ->
              match l.Link.target with
              | Link.Local p -> (
                  match Index.doc_of_path ctx.index p with
                  | Some id -> local := Fileset.add !local id
                  | None -> ())
              | Link.Remote _ as r -> remote := r :: !remote)
            (Semdir.links_of_cls sd Link.Permanent);
          { local = !local; remote = List.rev !remote; mount_uids })

let provided_scope = compute_scope

(* One propagation pass computes each directory's provided scope at most
   once: [sync_from]/[sync_all] used to re-derive every scope for every
   resync (the dirref environment re-derives them again inside query
   evaluation).  Entries stay valid for the whole pass because directories
   are processed dependencies-first and the index does not change during a
   pass; the one exception — a directory whose own result just changed —
   drops its entry so dependents recompute it.

   A pass also owns the shared evaluation caches (a term-result memo and a
   bounded document content/token cache) and the hoisted evaluator; all
   three live exactly as long as the pass, which is the window during which
   the index is frozen — dropping them at pass end is the whole
   invalidation story. *)
type pass = {
  scopes : (int, scope) Hashtbl.t;
  memo : Search.term_memo;
  cache : Search.doc_cache;
  mutable ev : Search.evaluator option;  (* built lazily *)
}

let fresh_pass () =
  {
    scopes = Hashtbl.create 16;
    memo = Search.term_memo ();
    cache = Search.doc_cache ();
    ev = None;
  }

(* Fold the pass caches' totals into the instance counters once, at pass
   end, instead of touching a metric on every lookup. *)
let flush_pass (ctx : Ctx.t) pass =
  let i = ctx.instr in
  let m = Search.term_memo_stats pass.memo in
  Hac_obs.Metrics.incr ~by:m.Search.memo_hits i.Instr.memo_hits;
  Hac_obs.Metrics.incr ~by:m.Search.memo_misses i.Instr.memo_misses;
  let c = Search.doc_cache_stats pass.cache in
  Hac_obs.Metrics.incr ~by:c.Search.cache_hits i.Instr.doc_cache_hits;
  Hac_obs.Metrics.incr ~by:c.Search.cache_misses i.Instr.doc_cache_misses;
  Hac_obs.Metrics.incr ~by:c.Search.cache_uncached i.Instr.doc_cache_uncached

let scope_in pass ctx uid =
  match Hashtbl.find_opt pass.scopes uid with
  | Some s -> s
  | None ->
      let s = compute_scope ctx uid in
      Hashtbl.replace pass.scopes uid s;
      s

let attr_docs ?probe ?within ?cache (ctx : Ctx.t) key value =
  match key with
  | "name" | "ext" | "path" ->
      (* Built-in attributes derive from the path alone; under a delta
         restriction only the delta's paths need testing. *)
      let base =
        match within with Some w -> w | None -> Index.universe ctx.index
      in
      Fileset.filter
        (fun id ->
          match Index.doc_path ctx.index id with
          | Some p -> Vpath.matches_builtin_attr ~key ~value p
          | None -> false)
        base
  | _ ->
      (* Transducer-extracted attributes: candidates from the index,
         verified by re-extracting from the candidate's content. *)
      Search.search_attr ?probe ?within ?cache ctx.index (Ctx.reader ctx) key value

(* Measured candidate counts for the planner: per-container cardinalities
   of exactly the partitions a lookup would touch (scoped by [?under] when
   the evaluation has a subtree scope).  No candidate set is ever
   materialised.  Verification never widens a candidate set, so these are
   sound upper bounds for ordering conjunctions. *)
let term_cost ?under (ctx : Ctx.t) term =
  let universe_size () = Index.doc_count ctx.index in
  match term with
  | Ast.Word w -> Index.term_cost ?under ctx.index w
  | Ast.Phrase ws ->
      List.fold_left (fun acc w -> min acc (Index.term_cost ?under ctx.index w)) max_int ws
  | Ast.Approx _ -> universe_size () (* vocabulary scan: treat as expensive *)
  | Ast.Attr (("name" | "ext" | "path"), _) -> universe_size ()
  | Ast.Attr (k, v) -> Index.attr_cost ?under ctx.index k v
  | Ast.Regex r -> (
      match Hac_index.Regex.compile_result r with
      | Ok re when (not (Index.stemming ctx.index)) && Hac_index.Regex.required_word re <> None
        ->
          universe_size () / 2 (* literal-narrowed scan: cheaper than full *)
      | Ok _ | Error _ -> universe_size ())
  | Ast.Dirref (Ast.Ref_uid u) -> (
      match Ctx.semdir_of_uid ctx u with
      | Some sd -> Fileset.cardinal sd.Semdir.transient_local
      | None -> universe_size ())
  | Ast.Dirref (Ast.Ref_path _) -> universe_size ()

(* The pass's evaluator over its caches, built on first use and reused by
   every evaluation in the pass: the query environment's closures are
   hoisted out of the per-directory loop.  Dirref scopes go through
   [scope_in], so the pass table memoizes them too. *)
let evaluator_in pass (ctx : Ctx.t) =
  match pass.ev with
  | Some ev -> ev
  | None ->
      let scope_of u = (scope_in pass ctx u).local in
      let dirref ?within:_ = function
        | Ast.Ref_uid u -> scope_of u
        | Ast.Ref_path p -> (
            match Uidmap.uid_of_path ctx.uids p with
            | Some u -> scope_of u
            | None -> Fileset.empty)
      in
      let cache = Some pass.cache (* wrapped once, not per attribute term *) in
      let attr ?probe ?within k v = attr_docs ?probe ?within ?cache ctx k v in
      let ev =
        Search.evaluator ~memo:pass.memo ~cache:pass.cache ctx.index (Ctx.reader ctx) ~attr
          ~dirref
      in
      pass.ev <- Some ev;
      ev

(* [?under] is the scope-pushdown hint: the (normalized, absolute) directory
   the final result will be intersected below.  It sharpens both the cost
   model (partition-scoped cardinalities) and candidate generation (the CAS
   index skips partitions that cannot intersect the scope) — sound only
   because the caller intersects with a subtree scope at or below it. *)
let eval_query_in pass (ctx : Ctx.t) ?restrict_to ?under q =
  let i = ctx.instr in
  Hac_obs.Trace.with_span i.Instr.tracer ~name:"query.eval" (fun () ->
      let report ~chosen ~naive ~terms:_ =
        Hac_obs.Metrics.incr i.Instr.planner_chains;
        if chosen < naive then begin
          Hac_obs.Metrics.incr i.Instr.planner_reordered;
          Hac_obs.Metrics.incr ~by:(naive - chosen) i.Instr.planner_cost_saved
        end;
        (match under with
        | Some _ -> Hac_obs.Metrics.incr i.Instr.planner_scoped_chains
        | None -> ())
      in
      let q =
        Hac_query.Planner.optimize ~report
          ~cost:(Hac_query.Planner.calibrated ~measured:(term_cost ?under ctx))
          q
      in
      let probe = Search.new_probe () in
      let result = Search.eval_with (evaluator_in pass ctx) ~probe ?restrict_to ?under q in
      Instr.flush_probe i probe;
      Hac_obs.Trace.set_attr_int i.Instr.tracer "terms" probe.Search.terms;
      Hac_obs.Trace.set_attr_int i.Instr.tracer "verified" probe.Search.docs_verified;
      result)

let eval_query (ctx : Ctx.t) ?restrict_to q =
  eval_query_in (fresh_pass ()) ctx ?restrict_to q

(* -- metadata persistence --------------------------------------------------

   The paper's HAC stores each directory's query, query-result (as an N/8
   byte bitmap) and link sets on disk; those writes are a real part of its
   measured overhead.  We persist the same information through the VFS into
   a hidden metadata area. *)

let meta_root = "/.hac"

(* Each structure lives in its own file, as the paper stores them as
   separate on-disk objects: the query, the link sets, the prohibitions and
   the query-result bitmap. *)
let meta_file uid suffix = Printf.sprintf "%s/sd-%d.%s" meta_root uid suffix

let meta_files uid = List.map (meta_file uid) [ "query"; "links"; "proh"; "result" ]

(* A directory's structure files as [persist_semdir] writes them, rendered
   once per persist.  [header] heads the result file: a digest of the
   query, the permanent links and the prohibitions the result was computed
   for.  Transient links stay out of it — materialisation adds them
   without persisting — so it depends on nothing but the directory's own
   persisted state, and equal state still persists as equal bytes. *)
type rendered = {
  query_data : string;
  links_data : string;
  proh_data : string;
  header : string;
}

let result_magic = "HACRES1 "

let render (ctx : Ctx.t) (sd : Semdir.t) =
  (* Directory references are rendered through the global map: stored
     queries must survive into a future instance whose uids differ. *)
  let query_data =
    Ast.to_string ~path_of_uid:(Uidmap.path_of_uid ctx.uids) sd.Semdir.query ^ "\n"
  in
  let links = Buffer.create 128 and permanent = Buffer.create 64 in
  List.iter
    (fun l ->
      let line =
        Printf.sprintf "%s %s %s\n" (Link.cls_name l.Link.cls) l.Link.name
          (Link.symlink_value l.Link.target)
      in
      Buffer.add_string links line;
      if l.Link.cls = Link.Permanent then Buffer.add_string permanent line)
    (Semdir.all_links sd);
  List.iter
    (fun r ->
      Buffer.add_string links ("remote " ^ r.Semdir.rr_ns ^ " " ^ r.Semdir.rr_uri ^ "\n"))
    sd.Semdir.transient_remote;
  let proh_data = String.concat "\n" (Semdir.prohibited_keys sd) in
  let permanent = Buffer.contents permanent in
  let framed =
    Printf.sprintf "%d:%s%d:%s%d:%s" (String.length query_data) query_data
      (String.length permanent) permanent (String.length proh_data) proh_data
  in
  {
    query_data;
    links_data = Buffer.contents links;
    proh_data;
    header = result_magic ^ Digest.to_hex (Digest.string framed);
  }

(* The query-result bitmap, one bit per document id up to the largest
   member: the paper's N/8 bytes, sized by the result itself, so equal
   results persist as equal bytes whenever they were written and no member
   past the live-document count is dropped. *)
let encode_bitmap local =
  let width = match Fileset.max_elt_opt local with Some m -> (m / 8) + 1 | None -> 0 in
  let bitmap = Bytes.make width '\000' in
  Fileset.iter
    (fun id ->
      let byte = Char.code (Bytes.get bitmap (id / 8)) in
      Bytes.set bitmap (id / 8) (Char.chr (byte lor (1 lsl (id mod 8)))))
    local;
  Bytes.to_string bitmap

(* Total over any bytes: a payload without a well-formed header line —
   damaged, or written before results carried one — vouches for nothing. *)
let decode_result payload =
  let header_len = String.length result_magic + 32 in
  if
    String.length payload <= header_len
    || payload.[header_len] <> '\n'
    || not (String.starts_with ~prefix:result_magic payload)
  then None
  else
    let base = header_len + 1 in
    let set =
      Fileset.of_increasing_iter (fun add ->
          for i = base to String.length payload - 1 do
            let byte = Char.code payload.[i] in
            if byte <> 0 then
              for bit = 0 to 7 do
                if byte land (1 lsl bit) <> 0 then add ((8 * (i - base)) + bit)
              done
          done)
    in
    Some (String.sub payload 0 header_len, set)

let persist_semdir (ctx : Ctx.t) (sd : Semdir.t) =
  let r = render ctx sd in
  let result_data = r.header ^ "\n" ^ encode_bitmap sd.Semdir.transient_local in
  Ctx.with_maintenance ctx (fun () ->
      if not (Fs.is_dir ctx.fs meta_root) then Fs.mkdir_p ctx.fs meta_root;
      (* Sealed whole, so a torn write leaves a detectably-damaged file
         rather than a silently truncated query or link set. *)
      List.iter2 (Fs.write_file ctx.fs) (meta_files sd.Semdir.uid)
        (List.map Hac_store.Seal.seal_blob
           [ r.query_data; r.links_data; r.proh_data; result_data ]))

let unpersist_semdir (ctx : Ctx.t) uid =
  Ctx.with_maintenance ctx (fun () ->
      List.iter
        (fun f -> if Fs.lexists ctx.fs f then Fs.unlink ctx.fs f)
        (meta_files uid))

(* -- query rendering for remote namespaces ------------------------------- *)

let rec strip_dirrefs = function
  | Ast.Term (Ast.Dirref _) ->
      (* A remote document is never a member of a local directory. *)
      Ast.Not Ast.All
  | Ast.Term _ as q -> q
  | Ast.All -> Ast.All
  | Ast.Not a -> Ast.Not (strip_dirrefs a)
  | Ast.And (a, b) -> Ast.And (strip_dirrefs a, strip_dirrefs b)
  | Ast.Or (a, b) -> Ast.Or (strip_dirrefs a, strip_dirrefs b)

let max_keyword_renders = 16

(* Conjunctive keyword sets, one per OR branch.  Constraints a keyword
   engine cannot express (NOT, attrs, the match-all star) render as the
   empty set, which means "enumerate"; local verification then applies the
   precise query. *)
let rec keyword_sets = function
  | Ast.Term (Ast.Word w) -> [ [ w ] ]
  | Ast.Term (Ast.Phrase ws) -> [ ws ]
  | Ast.Term (Ast.Approx (w, _)) -> [ [ w ] ]
  | Ast.Term (Ast.Attr _) | Ast.Term (Ast.Regex _) | Ast.Term (Ast.Dirref _) | Ast.All
  | Ast.Not _ ->
      [ [] ]
  | Ast.Or (a, b) ->
      let sets = keyword_sets a @ keyword_sets b in
      if List.length sets > max_keyword_renders then [ [] ] else sets
  | Ast.And (a, b) ->
      let sa = keyword_sets a and sb = keyword_sets b in
      let crossed = List.concat_map (fun x -> List.map (fun y -> x @ y) sb) sa in
      if List.length crossed > max_keyword_renders then [ [] ] else crossed

let render_for lang q =
  match lang with
  | Namespace.Hac_syntax -> [ Ast.to_string (strip_dirrefs q) ]
  | Namespace.Keywords ->
      keyword_sets q
      |> List.map (fun ws -> String.concat " " (List.sort_uniq compare ws))
      |> List.sort_uniq compare

(* -- remote evaluation ---------------------------------------------------- *)

let failure_reason = function
  | Namespace.Unavailable { reason; _ } -> reason
  | e -> Printexc.to_string e

(* The ns_id parsed out of a uri is a heuristic (uri schemes differ between
   namespaces); ask the named namespace first, then fall back to every
   registered one.  Namespaces are remote and may fail: any exception from a
   provider is reported through [on_failure] and treated as "no content" —
   callers decide whether that means a miss or a degraded re-serve. *)
let fetch_remote ?(on_failure = fun _ _ -> ()) (ctx : Ctx.t) ~ns_id ~uri =
  let try_ns ns =
    match ns.Namespace.fetch uri with
    | r -> r
    | exception e ->
        on_failure ns.Namespace.ns_id (failure_reason e);
        None
  in
  let direct = Option.bind (Hashtbl.find_opt ctx.namespaces ns_id) try_ns in
  match direct with
  | Some _ as r -> r
  | None ->
      Hashtbl.fold
        (fun _ ns acc -> match acc with Some _ -> acc | None -> try_ns ns)
        ctx.namespaces None

let remote_matches ?on_failure (ctx : Ctx.t) q ~name ~ns_id ~uri =
  match fetch_remote ?on_failure ctx ~ns_id ~uri with
  | Some content ->
      Qmatch.matches ~stem:(Index.stemming ctx.index) q ~name ~content
  | None -> false

(* Entries a semantic directory should import from the mount points visible
   in its scope: query each namespace in its own language, then verify each
   answer locally against the full query.  Results carry the entry's display
   name, used as the symbolic link name. *)
let mount_results ?(on_failure = fun _ _ -> ()) (ctx : Ctx.t) q mount_uids =
  let results = ref [] in
  let seen = Hashtbl.create 16 in
  let consider ns (e : Namespace.entry) =
    let key = e.uri in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let keep =
        match ns.Namespace.fetch e.uri with
        | Some content ->
            Qmatch.matches ~stem:(Index.stemming ctx.index) q ~name:e.name ~content
        | None ->
            (* Unfetchable entries are kept only when the namespace itself
               evaluated the full query. *)
            ns.Namespace.lang = Namespace.Hac_syntax
      in
      if keep then
        results :=
          (Link.Remote { ns_id = ns.Namespace.ns_id; uri = e.uri }, e.name) :: !results
    end
  in
  List.iter
    (fun muid ->
      List.iter
        (fun ns ->
          (* One failing namespace must not poison the others at this (or
             any later) mount point: report it and move on.  Whatever it
             answered before failing is kept. *)
          match
            List.iter
              (fun qs ->
                let entries =
                  if qs = "" then ns.Namespace.list_all () else ns.Namespace.search qs
                in
                List.iter (consider ns) entries)
              (render_for ns.Namespace.lang q)
          with
          | () -> ()
          | exception e -> on_failure ns.Namespace.ns_id (failure_reason e))
        (Mount_table.mounted ctx.mounts ~uid:muid))
    mount_uids;
  List.rev !results

(* -- the scope-consistency algorithm (section 2.3) ------------------------ *)

let parent_uid (ctx : Ctx.t) uid =
  if uid = Uidmap.root_uid then None
  else
    match Uidmap.path_of_uid ctx.uids uid with
    | None -> None
    | Some path -> Uidmap.uid_of_path ctx.uids (Vpath.dirname path)

let recompute_deps (ctx : Ctx.t) (sd : Semdir.t) =
  let parent = Option.to_list (parent_uid ctx sd.Semdir.uid) in
  Depgraph.set_deps ctx.deps sd.Semdir.uid (parent @ Ast.dir_uids sd.Semdir.query)

(* Expand the stored transient result into physical symbolic links.  Called
   lazily on first access through HAC, and by [resync_dir] to keep an
   already-materialised directory consistent. *)
let create_transient_link (ctx : Ctx.t) (sd : Semdir.t) ~path ~target ~name_hint =
  let taken name = Fs.lexists ctx.fs (Vpath.join path name) in
  let name =
    match name_hint with
    | Some n when Vpath.valid_name n && not (taken n) -> n
    | Some _ | None -> Semdir.fresh_link_name sd ~taken target
  in
  Fs.symlink ctx.fs ~target:(Link.symlink_value target) ~link:(Vpath.join path name);
  Semdir.add_link sd { Link.name; target; cls = Link.Transient }

let materialize (ctx : Ctx.t) (sd : Semdir.t) =
  if not sd.Semdir.materialized then begin
    match Uidmap.path_of_uid ctx.uids sd.Semdir.uid with
    | None -> ()
    | Some path ->
        Ctx.with_maintenance ctx (fun () ->
            Fileset.iter
              (fun id ->
                match Index.doc_path ctx.index id with
                | Some p ->
                    create_transient_link ctx sd ~path ~target:(Link.Local p) ~name_hint:None
                | None -> ())
              sd.Semdir.transient_local;
            List.iter
              (fun r ->
                create_transient_link ctx sd ~path
                  ~target:(Link.Remote { ns_id = r.Semdir.rr_ns; uri = r.Semdir.rr_uri })
                  ~name_hint:(Some r.Semdir.rr_name))
              sd.Semdir.transient_remote);
        Semdir.set_materialized sd true
  end

let exclusion_filter (ctx : Ctx.t) (sd : Semdir.t) ~path set =
  let prohibited key = Semdir.is_prohibited sd key in
  let permanent_key key =
    List.exists
      (fun l -> Link.target_key l.Link.target = key)
      (Semdir.links_of_cls sd Link.Permanent)
  in
  Fileset.filter
    (fun id ->
      match Index.doc_path ctx.index id with
      | Some p ->
          (not (Vpath.is_prefix ~prefix:path p))
          && (not (prohibited p))
          && not (permanent_key p)
      | None -> false)
    set

(* The cache key for a directory's local result.  The printed uid-form query
   ([{#n}] for dirrefs) is stable across renames of referenced directories,
   and exact string comparison cannot collide the way a structural hash
   could. *)
let fingerprint (sd : Semdir.t) = Ast.to_string sd.Semdir.query

(* The scope-pushdown hint for a directory's evaluation: the parent's path,
   but only when the parent is a {e plain} directory.  Then the parent
   scope's [local] is exactly [subtree_docs] of that path, so the
   [Fileset.inter _ pscope.local] in [resync_dir_in] discharges the
   soundness obligation of [?under] — every kept document lives under the
   hint.  A semdir parent's scope also carries its own query result and
   permanent links, which are not confined to its subtree, so no hint. *)
let under_hint (ctx : Ctx.t) uid =
  match parent_uid ctx uid with
  | None -> None
  | Some p -> (
      match (Ctx.semdir_of_uid ctx p, Uidmap.path_of_uid ctx.uids p) with
      | None, Some path -> Some (Vpath.normalize path)
      | _ -> None)

let resync_dir_in pass (ctx : Ctx.t) uid =
  match (Ctx.semdir_of_uid ctx uid, Uidmap.path_of_uid ctx.uids uid) with
  | None, _ | _, None -> false
  | Some sd, Some path ->
      let pscope =
        match parent_uid ctx uid with
        | Some p -> scope_in pass ctx p
        | None -> { local = Fileset.empty; remote = []; mount_uids = [] }
      in
      let prohibited key = Semdir.is_prohibited sd key in
      let permanent_key key =
        List.exists
          (fun l -> Link.target_key l.Link.target = key)
          (Semdir.links_of_cls sd Link.Permanent)
      in
      (* 1–2. The local result: evaluate the query over the parent's scope,
            then drop files physically inside this directory (already "in"
            it), the prohibited ones, and the permanent ones (section 2.3:
            HAC never touches those sets).  This set is the paper's
            per-directory result bitmap — and exactly what the result cache
            memoizes: on a generation-fresh hit both the evaluation and the
            exclusion filtering are skipped. *)
      let fp = fingerprint sd in
      let new_local =
        match
          Rescache.find ctx.rescache ~uid ~fingerprint:fp ~generation:ctx.scope_generation
        with
        | Some r -> r
        | None ->
            let matched =
              Fileset.inter
                (eval_query_in pass ctx ?under:(under_hint ctx uid) sd.Semdir.query)
                pscope.local
            in
            exclusion_filter ctx sd ~path matched
      in
      (* 3. New remote result: inherited parent links that match, plus fresh
            results from visible mount points; same exclusions.  Namespace
            failures are collected rather than propagated — a re-evaluation
            must never be broken by a flaky remote.  With no remote scope at
            all (no inherited remote links, no visible mounts) the result is
            empty by construction — no namespace is consulted, so no failure
            and no stale re-serve can occur. *)
      let new_remote =
        if pscope.remote = [] && pscope.mount_uids = [] then []
        else begin
          let failed = Hashtbl.create 4 in
          let note_failure ns_id reason =
            ctx.remote_failures <- ctx.remote_failures + 1;
            if not (Hashtbl.mem failed ns_id) then Hashtbl.replace failed ns_id reason
          in
          let remote_acc = ref [] in
          let seen_remote = Hashtbl.create 8 in
          let consider_remote ~stale ~ns_id ~uri ~name =
            if
              (not (Hashtbl.mem seen_remote uri))
              && (not (prohibited uri))
              && not (permanent_key uri)
            then begin
              Hashtbl.replace seen_remote uri ();
              if stale then ctx.stale_serves <- ctx.stale_serves + 1;
              remote_acc :=
                { Semdir.rr_ns = ns_id; rr_uri = uri; rr_name = name; rr_stale = stale }
                :: !remote_acc
            end
          in
          List.iter
            (fun target ->
              match target with
              | Link.Remote { ns_id; uri } ->
                  if
                    remote_matches ~on_failure:note_failure ctx sd.Semdir.query
                      ~name:(Link.display_name target) ~ns_id ~uri
                  then
                    consider_remote ~stale:false ~ns_id ~uri ~name:(Link.display_name target)
              | Link.Local _ -> ())
            pscope.remote;
          List.iter
            (fun (target, name) ->
              match target with
              | Link.Remote { ns_id; uri } -> consider_remote ~stale:false ~ns_id ~uri ~name
              | Link.Local _ -> ())
            (mount_results ~on_failure:note_failure ctx sd.Semdir.query pscope.mount_uids);
          (* Graceful degradation: a namespace that failed this round keeps
             its last-good entries — re-served from the previous result and
             marked stale — instead of silently vanishing from the
             directory.  Fresh answers (e.g. inherited through the parent)
             win the dedup. *)
          if Hashtbl.length failed > 0 then
            List.iter
              (fun r ->
                if Hashtbl.mem failed r.Semdir.rr_ns then
                  consider_remote ~stale:true ~ns_id:r.Semdir.rr_ns ~uri:r.Semdir.rr_uri
                    ~name:r.Semdir.rr_name)
              sd.Semdir.transient_remote;
          List.rev !remote_acc
        end
      in
      let changed =
        (not (Fileset.equal new_local sd.Semdir.transient_local))
        || new_remote <> sd.Semdir.transient_remote
      in
      Hac_obs.Metrics.incr ctx.instr.Instr.sync_dirs;
      if changed then Hac_obs.Metrics.incr ctx.instr.Instr.sync_changed;
      if changed then begin
        Semdir.set_transient_local sd new_local;
        Semdir.set_transient_remote sd new_remote
      end;
      (* 4. A directory whose links are already expanded must stay
            physically consistent: diff and patch its transient symlinks. *)
      if sd.Semdir.materialized then begin
        let desired = Hashtbl.create 32 in
        Fileset.iter
          (fun id ->
            match Index.doc_path ctx.index id with
            | Some p -> Hashtbl.replace desired p (Link.Local p, None)
            | None -> ())
          new_local;
        List.iter
          (fun r ->
            Hashtbl.replace desired r.Semdir.rr_uri
              (Link.Remote { ns_id = r.Semdir.rr_ns; uri = r.Semdir.rr_uri }, Some r.Semdir.rr_name))
          new_remote;
        Ctx.with_maintenance ctx (fun () ->
            List.iter
              (fun l ->
                let key = Link.target_key l.Link.target in
                if Hashtbl.mem desired key then Hashtbl.remove desired key
                else begin
                  ignore (Semdir.remove_link sd l.Link.name);
                  let lpath = Vpath.join path l.Link.name in
                  if Fs.is_symlink ctx.fs lpath then Fs.unlink ctx.fs lpath
                end)
              (Semdir.links_of_cls sd Link.Transient);
            Hashtbl.iter
              (fun _key (target, name_hint) ->
                create_transient_link ctx sd ~path ~target ~name_hint)
              desired)
      end;
      if changed then begin
        (* Any later directory in this pass evaluating against stale state
           would be wrong: its cached result and this directory's memoized
           scope both reflect the pre-change world. *)
        Ctx.bump_generation ctx;
        Hashtbl.remove pass.scopes uid
      end;
      Rescache.store ctx.rescache ~uid ~fingerprint:fp ~generation:ctx.scope_generation
        new_local;
      let first_sync = sd.Semdir.last_synced = 0 in
      ctx.sync_stamp <- ctx.sync_stamp + 1;
      Semdir.mark_synced sd ctx.sync_stamp;
      (* The paper persists after every re-evaluation; nothing is lost by
         skipping the write when neither the result nor the link/prohibition
         metadata moved since the last one. *)
      if changed || sd.Semdir.meta_dirty || first_sync then begin
        persist_semdir ctx sd;
        Semdir.mark_persisted sd
      end;
      changed

let resync_dir (ctx : Ctx.t) uid =
  let pass = fresh_pass () in
  let r = resync_dir_in pass ctx uid in
  flush_pass ctx pass;
  r

let sync_from (ctx : Ctx.t) uid =
  let i = ctx.instr in
  Hac_obs.Trace.with_span i.Instr.tracer ~name:"sync.from" (fun () ->
      Hac_obs.Metrics.incr i.Instr.sync_from;
      let pass = fresh_pass () in
      ignore (resync_dir_in pass ctx uid);
      let affected = Depgraph.affected ctx.deps uid in
      List.iter (fun u -> ignore (resync_dir_in pass ctx u)) affected;
      flush_pass ctx pass;
      Hac_obs.Metrics.observe i.Instr.pass_dirs (float_of_int (1 + List.length affected));
      Hac_obs.Trace.set_attr_int i.Instr.tracer "dirs" (1 + List.length affected))

let sync_all (ctx : Ctx.t) =
  let i = ctx.instr in
  Hac_obs.Trace.with_span i.Instr.tracer ~name:"sync.full" (fun () ->
      Hac_obs.Metrics.incr i.Instr.sync_full;
      let pass = fresh_pass () in
      let dirs = Depgraph.topo_all ctx.deps in
      List.iter (fun u -> ignore (resync_dir_in pass ctx u)) dirs;
      let n_dirs = List.length dirs in
      flush_pass ctx pass;
      Hac_obs.Metrics.observe i.Instr.pass_dirs (float_of_int n_dirs);
      Hac_obs.Trace.set_attr_int i.Instr.tracer "dirs" n_dirs)

(* -- adopting persisted results at a fast mount ---------------------------

   A restored directory's [sd-N.result] is its last persisted result, and
   its transient links, once materialised, the physical record of it.
   They vouch for the result outside the journaled delta when three things
   hold:

   + the header digests exactly the installed query, permanent links and
     prohibitions — a crash between a persist's query and result writes, or
     a torn or pre-header file, leaves no such header;
   + the bitmap, masked to live documents outside [touched], equals the
     transient links outside [touched], and the transient links name live
     local documents, one link per document (a re-evaluation would drop an
     alias).  Every live id at or above the document table's [next] was
     handed to a delta file, so the mask also drops the ids a previous
     life assigned after its checkpoint.  A directory without a single
     link was never materialised (or lost every link, which a
     re-evaluation would not bring back before the next access either):
     its result lives in the bitmap alone;
   + no semantic directory feeds the result: neither a semantic parent nor
     a dirref target.  A crash between two persists of one settle can
     leave a nested result computed against its parent's older scope, and
     neither witness above would notice.

   The adopted result is the masked bitmap — equal to the links outside
   the delta — plus the delta's linked documents, which the delta pass
   ending the mount re-derives anyway. *)
let adopt_result (ctx : Ctx.t) (sd : Semdir.t) ~touched =
  let outside s = Fileset.diff s touched in
  let independent =
    Ast.dir_uids sd.Semdir.query = []
    &&
    match parent_uid ctx sd.Semdir.uid with
    | Some p -> Ctx.semdir_of_uid ctx p = None
    | None -> true
  in
  let vouched () =
    match Fs.read_file ctx.fs (meta_file sd.Semdir.uid "result") with
    | exception Hac_vfs.Errno.Error _ -> None
    | data -> (
        match Option.bind (Hac_store.Seal.unseal_file data) decode_result with
        | Some (header, bitmap) when header = (render ctx sd).header ->
            Some (outside (Fileset.inter bitmap (Index.universe ctx.index)))
        | Some _ | None -> None)
  in
  let links_agree result =
    let transient = Semdir.links_of_cls sd Link.Transient in
    List.for_all
      (fun l ->
        match l.Link.target with
        | Link.Local p -> Index.doc_of_path ctx.index p <> None
        | Link.Remote _ -> false)
      transient
    && List.length transient = Fileset.cardinal sd.Semdir.transient_local
    && Fileset.equal result (outside sd.Semdir.transient_local)
  in
  let adopted =
    match if independent then vouched () else None with
    | Some result when not sd.Semdir.materialized ->
        Semdir.set_transient_local sd result;
        true
    | Some result -> links_agree result
    | None -> false
  in
  if adopted then begin
    ctx.sync_stamp <- ctx.sync_stamp + 1;
    Semdir.mark_synced sd ctx.sync_stamp
  end;
  adopted

let sync_unsynced (ctx : Ctx.t) =
  let pass = fresh_pass () in
  let n =
    List.fold_left
      (fun n uid ->
        match Ctx.semdir_of_uid ctx uid with
        | Some sd when sd.Semdir.last_synced = 0 ->
            ignore (resync_dir_in pass ctx uid);
            n + 1
        | Some _ | None -> n)
      0 (Depgraph.topo_all ctx.deps)
  in
  flush_pass ctx pass;
  n

(* -- data consistency (section 2.4) --------------------------------------- *)

type delta = { touched : Fileset.t; removed : Fileset.t }

let empty_delta = { touched = Fileset.empty; removed = Fileset.empty }

let reindex_with_delta (ctx : Ctx.t) ?under () =
  let i = ctx.instr in
  Hac_obs.Trace.with_span i.Instr.tracer ~name:"sync.reindex" (fun () ->
  let in_scope path =
    match under with
    | None -> true
    | Some prefix -> Vpath.is_prefix ~prefix path
  in
  let paths = Hashtbl.fold (fun p () acc -> if in_scope p then p :: acc else acc) ctx.dirty [] in
  (* The CBA mechanism reads files like any client of the library: each
     access is interposed (global-map lookup) and goes through an open
     file descriptor — the paper's Table 3 time overhead. *)
  let fds = Hac_vfs.Fd_table.create ctx.fs in
  let read_interposed path =
    (match Uidmap.uid_of_path ctx.uids (Vpath.dirname path) with
    | Some uid -> ignore (Ctx.semdir_of_uid ctx uid : Semdir.t option)
    | None -> ());
    let fd = Hac_vfs.Fd_table.openfile fds Hac_vfs.Fd_table.Read_only path in
    let content = Hac_vfs.Fd_table.read_all fds fd in
    Hac_vfs.Fd_table.close fds fd;
    content
  in
  (* Child spans attribute the reindex: the interposed read, tokenizing and
     posting, the block put, and a compacting rebuild. *)
  let span name f = Hac_obs.Trace.with_span i.Instr.tracer ~name f in
  let touched = ref Fileset.empty in
  let removed = ref Fileset.empty in
  let forget path =
    (match Index.doc_of_path ctx.index path with
    | Some id ->
        removed := Fileset.add !removed id;
        Option.iter (fun s -> Hac_store.Store.forget_doc s id) ctx.store
    | None -> ());
    Index.remove_path ctx.index path
  in
  List.iter
    (fun path ->
      Hashtbl.remove ctx.dirty path;
      if Fs.is_file ctx.fs path then
        match span "reindex.read" (fun () -> read_interposed path) with
        | content ->
            let id =
              span "reindex.post" (fun () -> Index.update_document ctx.index ~path ~content)
            in
            touched := Fileset.add !touched id;
            (* The settled body becomes the block store's copy — from here
               until the path dirties again, verification reads serve from
               the cache instead of the tree.  Maintenance mode: the block
               put's own mkdir/write/rename must not echo back into the
               event stream as user activity (and into the journal). *)
            Option.iter
              (fun s ->
                span "reindex.put" (fun () ->
                    Ctx.with_maintenance ctx (fun () -> Hac_store.Store.put_doc s id content)))
              ctx.store
        | exception Hac_vfs.Errno.Error (Hac_vfs.Errno.EACCES, _) ->
            (* The current user may not read it, so it cannot be indexed
               under their credentials (security borrowed from the OS). *)
            forget path
      else forget path)
    paths;
  (* Lazy updates leave stale postings behind (Glimpse-style); once a
     third of the document slots are dead weight, compact. *)
  if Index.stale_ratio ctx.index > 0.33 && Index.doc_count ctx.index > 0 then begin
    Hac_obs.Metrics.incr i.Instr.index_rebuilds;
    let live_before = Index.doc_count ctx.index in
    span "index.rebuild" (fun () ->
        Index.rebuild ctx.index (fun id ->
            Option.bind (Index.doc_path ctx.index id) (fun p ->
                match read_interposed p with
                | content -> Some content
                | exception Hac_vfs.Errno.Error _ -> None)));
    (* Rebuild drops documents whose content became unreadable without any
       event (e.g. a permission change); such removals are invisible to the
       delta, so only a full re-evaluation is safe. *)
    if Index.doc_count ctx.index <> live_before then Ctx.force_full_sync ctx
  end;
  ctx.ops_since_reindex <- 0;
  if paths <> [] then Ctx.bump_generation ctx;
  Hac_obs.Metrics.incr ~by:(List.length paths) i.Instr.reindex_files;
  Hac_obs.Trace.set_attr_int i.Instr.tracer "files" (List.length paths);
  (List.length paths, { touched = !touched; removed = !removed }))

let reindex (ctx : Ctx.t) ?under () = fst (reindex_with_delta ctx ?under ())

(* -- incremental scope maintenance ----------------------------------------

   [sync_all] after a k-file change re-evaluates every query over every
   scope: O(all-docs × all-dirs) content verifications.  [sync_delta]
   exploits what the reindex just learned.  For a content-only change the
   membership of every document {e outside} the delta is unchanged in every
   directory (word/phrase/attr/regex terms depend on the document's own
   content and path; dirref terms on scopes whose non-delta membership is
   itself unchanged, inductively, dependencies-first).  So each directory
   only needs the query verdict on delta documents inside its scope:

     new = (old \ delta) ∪ {d ∈ touched ∩ scope(parent) | d ⊨ query} \ excl

   evaluated with {!Search.eval}'s [?restrict_to] so candidate expansion and
   verification never leave the delta — O(k × affected-dirs).

   Structural events (renames, link edits, mounts, prohibition changes,
   query edits) change membership outside any reindex delta; they set
   {!Ctx.t.needs_full_sync} and the next [sync_delta] falls back to a full
   [sync_all].  That fallback is also the property-test oracle: both paths
   must reach the same transient-link fixpoint. *)

(* What a delta can reach, computed once per settle: the delta documents,
   and every directory some touched document lies under. *)
type reach = {
  touched_docs : Fileset.t;
  delta_docs : Fileset.t;  (* touched or removed *)
  touched_dirs : (string, unit) Hashtbl.t;
}

let reach_of (ctx : Ctx.t) (delta : delta) =
  let touched_dirs = Hashtbl.create 16 in
  let rec enroll dir =
    if not (Hashtbl.mem touched_dirs dir) then begin
      Hashtbl.replace touched_dirs dir ();
      if dir <> Vpath.root then enroll (Vpath.dirname dir)
    end
  in
  Fileset.iter
    (fun id -> Option.iter (fun p -> enroll (Vpath.dirname p)) (Index.doc_path ctx.index id))
    delta.touched;
  {
    touched_docs = delta.touched;
    delta_docs = Fileset.union delta.touched delta.removed;
    touched_dirs;
  }

(* A directory under a plain parent other than the root needs no visit
   when no touched document lies under that parent and its result holds
   no delta document.  The parent's scope is then exactly the documents
   under its path, so [candidates] below would be empty, as would
   [stale]: the visit would change nothing, and computing the parent's
   scope is what it would cost.  A semantic parent's scope also holds its
   own result and permanent links, wherever they live, so its children
   are always visited. *)
let unreachable (ctx : Ctx.t) reach uid =
  match parent_uid ctx uid with
  | Some p when p <> Uidmap.root_uid && Ctx.semdir_of_uid ctx p = None -> (
      match Uidmap.path_of_uid ctx.uids p with
      | Some ppath -> not (Hashtbl.mem reach.touched_dirs (Vpath.normalize ppath))
      | None -> false)
  | Some _ | None -> false

let resync_dir_delta pass (ctx : Ctx.t) reach uid =
  match (Ctx.semdir_of_uid ctx uid, Uidmap.path_of_uid ctx.uids uid) with
  | None, _ | _, None -> ()
  | Some sd, Some path ->
      (* Current members whose verdict may have been lost (dropped from the
         parent scope, or from the index altogether), then docs whose
         verdict must be (re)computed. *)
      let stale = Fileset.inter reach.delta_docs sd.Semdir.transient_local in
      let candidates =
        if Fileset.is_empty stale && unreachable ctx reach uid then Fileset.empty
        else
          match parent_uid ctx uid with
          | Some p -> Fileset.inter reach.touched_docs (scope_in pass ctx p).local
          | None -> Fileset.empty
      in
      let delta_all = reach.delta_docs in
      if not (Fileset.is_empty candidates && Fileset.is_empty stale) then begin
        Hac_obs.Metrics.incr ctx.instr.Instr.sync_dirs;
        let adds =
          let matched =
            Fileset.inter
              (eval_query_in pass ctx ~restrict_to:candidates sd.Semdir.query)
              candidates
          in
          exclusion_filter ctx sd ~path matched
        in
        let old_local = sd.Semdir.transient_local in
        let new_local = Fileset.union adds (Fileset.diff old_local delta_all) in
        let changed = not (Fileset.equal new_local old_local) in
        if changed then Hac_obs.Metrics.incr ctx.instr.Instr.sync_changed;
        if changed then begin
          Semdir.set_transient_local sd new_local;
          if sd.Semdir.materialized then
            Ctx.with_maintenance ctx (fun () ->
                (* Drop transient links whose target left the result or the
                   index; only delta documents can be affected, but removed
                   documents no longer map back to an id, so walk the links
                   and keep exactly those still in the result. *)
                List.iter
                  (fun l ->
                    match l.Link.target with
                    | Link.Local p ->
                        let keep =
                          match Index.doc_of_path ctx.index p with
                          | Some id -> Fileset.mem new_local id
                          | None -> false
                        in
                        if not keep then begin
                          ignore (Semdir.remove_link sd l.Link.name);
                          let lpath = Vpath.join path l.Link.name in
                          if Fs.is_symlink ctx.fs lpath then Fs.unlink ctx.fs lpath
                        end
                    | Link.Remote _ -> ())
                  (Semdir.links_of_cls sd Link.Transient);
                Fileset.iter
                  (fun id ->
                    match Index.doc_path ctx.index id with
                    | Some p ->
                        if Semdir.link_by_target sd (Link.Local p) = None then
                          create_transient_link ctx sd ~path ~target:(Link.Local p)
                            ~name_hint:None
                    | None -> ())
                  adds);
          Ctx.bump_generation ctx;
          Hashtbl.remove pass.scopes uid
        end;
        ctx.sync_stamp <- ctx.sync_stamp + 1;
        Semdir.mark_synced sd ctx.sync_stamp;
        if changed || sd.Semdir.meta_dirty then begin
          persist_semdir ctx sd;
          Semdir.mark_persisted sd
        end
      end

let sync_delta (ctx : Ctx.t) delta =
  let i = ctx.instr in
  if ctx.needs_full_sync then begin
    Hac_obs.Metrics.incr i.Instr.sync_fallback;
    ctx.needs_full_sync <- false;
    sync_all ctx
  end
  else if not (Fileset.is_empty delta.touched && Fileset.is_empty delta.removed) then
    Hac_obs.Trace.with_span i.Instr.tracer ~name:"sync.delta" (fun () ->
        Hac_obs.Metrics.incr i.Instr.sync_delta;
        let pass = fresh_pass () in
        let dirs = Depgraph.topo_all ctx.deps in
        let reach = reach_of ctx delta in
        List.iter (fun uid -> resync_dir_delta pass ctx reach uid) dirs;
        let n_dirs = List.length dirs in
        flush_pass ctx pass;
        Hac_obs.Metrics.observe i.Instr.pass_dirs (float_of_int n_dirs);
        Hac_obs.Trace.set_attr_int i.Instr.tracer "dirs" n_dirs;
        Hac_obs.Trace.set_attr_int i.Instr.tracer "delta"
          (Fileset.cardinal delta.touched + Fileset.cardinal delta.removed))
