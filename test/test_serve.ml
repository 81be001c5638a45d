(* Chaos harness for the concurrent serving layer.

   N client sessions drive deterministic trace workloads through the
   server while the fault injector degrades a mounted namespace (latency,
   then outage), the simulated device swallows fsyncs, and the virtual
   clock expires deadlines.  The contract under all of it:

   - every submitted op resolves to exactly one outcome — a reply or an
     explicit rejection with a retry-after hint; never a hang or a silent
     drop;
   - every acknowledged write was durable when acknowledged (the device's
     frontier covered the op log at ack time);
   - every read is prefix-consistent: replaying the commit log through a
     fresh sequential engine (the Ernst-style serial spec) reproduces
     each read at its snapshot's prefix;
   - crash states cut at arbitrary durable prefixes of the op log recover
     into a working instance.

   The FAULT_SEED environment variable (set by the serve-suite alias,
   which runs this binary under three fixed seeds) varies the injector
   weather, the device's damage offsets and the workload interleaving.
   Every assertion must hold under any seed. *)

module Fs = Hac_vfs.Fs
module Hac = Hac_core.Hac
module Recover = Hac_core.Recover
module Clock = Hac_fault.Clock
module Fault = Hac_fault.Fault
module Store = Hac_fault.Store
module Breaker = Hac_fault.Breaker
module Namespace = Hac_remote.Namespace
module Sim = Hac_crash.Sim
module Corpus = Hac_workload.Corpus
module Prng = Hac_workload.Prng
module Serveload = Hac_workload.Serveload
module Msg = Hac_serve.Msg
module Snapshot = Hac_serve.Snapshot
module Session = Hac_serve.Session
module Admission = Hac_serve.Admission
module Server = Hac_serve.Server
module Spec = Hac_serve.Spec
module Ctx = Hac_obs.Ctx
module Flight = Hac_obs.Flight
module Slo = Hac_obs.Slo

let seed =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- the rig ---------------------------------------------------------------- *)

let markers = [| "markeralpha"; "markerbeta"; "markergamma"; "markerdelta" |]

let semdir_specs =
  [
    ("/ws/q-alpha", "markeralpha");
    ("/ws/q-beta", "markerbeta");
    ("/ws/q-gamma", "markergamma");
    ("/ws/q-delta", "markerdelta");
  ]

let remote_docs =
  [
    ("north.txt", "stat://rns/north", "remdoc north wind\n");
    ("south.txt", "stat://rns/south", "remdoc south wind\n");
  ]

type rig = {
  hac : Hac.t;
  corpus : Corpus.t;
  files : string array;
  semdirs : string array;
  store : Store.t option;
  inj : Fault.t option;
}

(* Everything the twin must share with the served instance derives from
   the seed alone: corpus tree, planted markers, semantic directories.
   The store and the faulty mount exist only on the served side. *)
let build ?(store = false) ?(mount = false) ~seed () =
  let fs = Fs.create () in
  let st =
    if store then begin
      let s = Store.create ~seed () in
      Fs.attach_disk fs s;
      Some s
    end
    else None
  in
  let corpus = Corpus.make ~seed () in
  let files = Corpus.build_tree corpus fs ~root:"/ws" Corpus.small_tree in
  Array.iteri
    (fun i w -> ignore (Corpus.plant fs ~paths:files ~word:w ~count:(4 + (2 * i))))
    markers;
  Fs.mkdir_p fs "/srv";
  let hac = Hac.of_fs fs in
  List.iter (fun (p, q) -> Hac.smkdir hac p q) semdir_specs;
  let inj =
    if mount then begin
      let clock = Hac.clock hac in
      let inj = Fault.create ~seed ~clock () in
      let policy = { Namespace.default_policy with call_budget = 1.0; max_retries = 1 } in
      let ns =
        Namespace.with_policy ~policy ~metrics:(Hac.metrics hac) ~clock
          (Namespace.with_faults inj (Namespace.static ~ns_id:"rns" remote_docs))
      in
      Hac.mkdir hac "/remote";
      Hac.smount hac "/remote" ns;
      Hac.smkdir hac "/rq" "remdoc";
      Some inj
    end
    else None
  in
  Hac.settle hac;
  {
    hac;
    corpus;
    files = Array.of_list files;
    semdirs = Array.of_list (List.map fst semdir_specs);
    store = st;
    inj;
  }

let chaos_config =
  {
    Server.default_config with
    max_batch = 12;
    admission = { Admission.default with queue_bound = 32; slo_s = 20.0; seed };
    settle_budget_s = 1.5;
    fsync_retries = 2;
  }

(* Paths outside the twin: the remote-facing semantic directory and the
   mount point.  Reads of them are served (stale when the namespace is
   down) but stay out of the serial-spec observation set. *)
let remote_facing p =
  let pre q = String.length p >= String.length q && String.sub p 0 (String.length q) = q in
  pre "/rq" || pre "/remote"

(* The publication twin: a snapshot whose prefix covers every committed
   write must equal a fresh capture of the engine, so an incremental
   [Snapshot.advance] never serves a view a full rebuild would not. *)
let assert_snapshot_current server hac =
  let snap = Server.snapshot server in
  if Snapshot.seq snap = (Server.stats server).Server.commits then
    check_bool
      (Printf.sprintf "published snapshot at seq %d equals a fresh capture" (Snapshot.seq snap))
      true
      (Snapshot.equal snap
         (Snapshot.capture hac ~seq:(Snapshot.seq snap) ~now:(Snapshot.published_s snap)))

(* -- chaos driver ----------------------------------------------------------- *)

type chaos_outcome = {
  tickets : Msg.ticket list;
  ack_durable_violations : int;  (** Acks released while not durable. *)
}

let run_chaos ~mount ~seed =
  let rig = build ~store:true ~mount ~seed () in
  let clock = Hac.clock rig.hac in
  let server = Server.create ~config:chaos_config rig.hac in
  let profile = { Serveload.default with ops_per_session = 30 } in
  let n_sessions = 6 in
  let streams =
    Array.init n_sessions (fun i ->
        ref
          (List.map Msg.of_workload
             (Serveload.session_ops profile ~corpus:rig.corpus ~seed ~session:i
                ~files:rig.files ~semdirs:rig.semdirs ~fresh_root:"/srv")))
  in
  let tickets = ref [] in
  let submit name op = tickets := Server.submit server ~session:name op :: !tickets in
  let g = Prng.make ~seed:(seed lxor 0xC0FFEE) in
  let tick = ref 0 in
  let acked_before = ref 0 in
  let ack_durable_violations = ref 0 in
  let pump_and_check () =
    Server.pump server;
    assert_snapshot_current server rig.hac;
    (* The headline durability invariant, checked at the moment it must
       hold: new acks imply the frontier covered the whole op log. *)
    let acked = (Server.stats server).Server.acked in
    (match rig.store with
    | Some st ->
        if acked > !acked_before && Store.durable_count st <> Store.op_count st then
          incr ack_durable_violations
    | None -> ());
    acked_before := acked
  in
  while Array.exists (fun r -> !r <> []) streams do
    incr tick;
    (match rig.inj with
    | Some inj ->
        if !tick = 30 then Fault.set_plans inj [ Fault.Latency 3.0 ];
        if !tick = 60 then Fault.set_plans inj [ Fault.Outage ];
        if !tick = 90 then begin
          Fault.clear inj;
          (* Let the breaker's probe interval pass so recovery can begin. *)
          Clock.advance clock (Breaker.default_config.Breaker.probe_interval +. 1.0)
        end
    | None -> ());
    (match rig.store with
    | Some st ->
        if !tick = 45 || !tick = 100 then Store.drop_fsyncs st 3
    | None -> ());
    for _ = 0 to Prng.int g 2 do
      let nonempty = ref [] in
      Array.iteri (fun i r -> if !r <> [] then nonempty := (i, r) :: !nonempty) streams;
      match !nonempty with
      | [] -> ()
      | l ->
          let i, r = List.nth l (Prng.int g (List.length l)) in
          (match !r with
          | [] -> ()
          | op :: rest ->
              r := rest;
              submit (Printf.sprintf "s%d" i) op)
    done;
    if mount && !tick mod 10 = 0 then submit "rq-watch" (Msg.R (Msg.Links "/rq"));
    if !tick mod 3 = 0 then pump_and_check ();
    Clock.advance clock 0.05
  done;
  (match rig.inj with Some inj -> Fault.clear inj | None -> ());
  Server.drain server;
  Server.stop server;
  (server, rig, { tickets = List.rev !tickets; ack_durable_violations = !ack_durable_violations })

let assert_all_resolved outcome =
  List.iter
    (fun (tk : Msg.ticket) ->
      match tk.outcome with
      | None -> Alcotest.fail ("unresolved ticket: " ^ Msg.describe tk.op)
      | Some (Msg.Rejected { retry_after_s; _ }) ->
          check_bool "retry-after non-negative" true (retry_after_s >= 0.0)
      | Some (Msg.Replied _) -> ())
    outcome.tickets

(* The tentpole guarantee: every ticket carries a distinct trace id, and a
   replied ticket's per-stage breakdown telescopes to exactly its reported
   latency — admission to final ack, no gaps, no double counting. *)
let known_stages = [ "admission"; "queue"; "eval"; "settle"; "fsync" ]

let assert_trace_breakdowns outcome =
  let ids = Hashtbl.create 256 in
  List.iter
    (fun (tk : Msg.ticket) ->
      let id = Ctx.id tk.trace in
      check_bool "trace id positive" true (id > 0);
      check_bool ("trace id unique: " ^ Ctx.id_hex tk.trace) false (Hashtbl.mem ids id);
      Hashtbl.replace ids id ();
      List.iter
        (fun (name, d) ->
          check_bool ("known stage: " ^ name) true (List.mem name known_stages);
          check_bool ("stage non-negative: " ^ name) true (d >= -1e-9))
        (Ctx.stages tk.trace);
      match tk.outcome with
      | Some (Msg.Replied { latency_s; _ }) ->
          check_bool "replied ticket has a breakdown" true (Ctx.stages tk.trace <> []);
          let total = Ctx.total tk.trace in
          check_bool
            (Printf.sprintf "stages (%.6f) sum to latency (%.6f) for %s" total latency_s
               (Msg.describe tk.op))
            true
            (Float.abs (total -. latency_s) <= 1e-6)
      | Some (Msg.Rejected _) ->
          check_bool "rejected ticket charged admission" true
            (Ctx.find tk.trace "admission" <> None)
      | None -> ())
    outcome.tickets

let assert_spec server rig outcome =
  let observations =
    List.filter_map Spec.observe outcome.tickets
    |> List.filter (fun (ob : Spec.observation) ->
           not (remote_facing (Msg.path_of_read ob.Spec.ob_read)))
  in
  check_bool "spec has observations" true (observations <> []);
  let violations =
    Spec.check
      ~flight:(Server.flight server)
      ~build:(fun () -> (build ~seed ()).hac)
      ~writes:(Server.committed_writes server) ~observations ()
  in
  ignore rig;
  Alcotest.(check (list string)) "zero snapshot-consistency violations" [] violations

let assert_crash_recovery rig =
  match rig.store with
  | None -> ()
  | Some st ->
      (* Faults were cleared before the drain, whose last settle ends in a
         durability barrier: the whole log must be durable again. *)
      check_int "drain restored full durability" (Store.op_count st) (Store.durable_count st);
      let total = Store.op_count st in
      let cuts =
        List.sort_uniq compare
          [ Store.durable_count st; total / 3; total / 2; 2 * total / 3; total ]
        |> List.filter (fun c -> c > 0 && c <= total)
      in
      List.iter
        (fun cut ->
          let fs' = Sim.replay (Store.ops ~upto:cut st) in
          let h2 = Hac.of_fs fs' in
          let restored = Recover.reload h2 in
          check_bool
            (Printf.sprintf "crash at op %d recovers" cut)
            true (restored >= 0);
          (* Recovery must leave a settleable instance: a settle (and a
             second, idempotent one) completes without raising. *)
          Hac.settle h2;
          Hac.settle h2)
        cuts

(* -- chaos tests ------------------------------------------------------------ *)

let test_chaos_local () =
  let server, rig, outcome = run_chaos ~mount:false ~seed in
  assert_all_resolved outcome;
  assert_trace_breakdowns outcome;
  let st = Server.stats server in
  check_bool "commits happened" true (st.Server.commits > 0);
  check_bool "acks released" true (st.Server.acked > 0);
  check_bool "load was shed" true (st.Server.shed > 0);
  check_bool "stale reads served" true (st.Server.stale_reads > 0);
  check_int "acks only when durable" 0 outcome.ack_durable_violations;
  assert_spec server rig outcome;
  assert_crash_recovery rig

let test_chaos_mounted () =
  let server, rig, outcome = run_chaos ~mount:true ~seed in
  assert_all_resolved outcome;
  assert_trace_breakdowns outcome;
  let st = Server.stats server in
  check_bool "commits happened" true (st.Server.commits > 0);
  check_bool "acks released" true (st.Server.acked > 0);
  check_bool "load was shed" true (st.Server.shed > 0);
  check_int "acks only when durable" 0 outcome.ack_durable_violations;
  (* The mounted namespace failed for a stretch of the run: degradation
     must have served remote-facing entries stale rather than erroring. *)
  let rq_replies =
    List.filter_map
      (fun (tk : Msg.ticket) ->
        match (tk.op, tk.outcome) with
        | Msg.R (Msg.Links "/rq"), Some (Msg.Replied { reply = Msg.Linkset rows; _ }) ->
            Some rows
        | _ -> None)
      outcome.tickets
  in
  check_bool "remote-facing reads answered" true (rq_replies <> []);
  assert_spec server rig outcome;
  assert_crash_recovery rig

(* -- focused units ---------------------------------------------------------- *)

let test_snapshot_isolation () =
  let rig = build ~seed () in
  let server = Server.create rig.hac in
  (* A write is invisible to reads in the same batch: they run against
     the pre-batch snapshot. *)
  let w = Server.submit server ~session:"a" (Msg.W (Msg.Write ("/srv/x.txt", "hello\n"))) in
  let r1 = Server.submit server ~session:"b" (Msg.R (Msg.Read "/srv/x.txt")) in
  Server.pump server;
  (match r1.outcome with
  | Some (Msg.Replied { reply = Msg.Nack _; seq = 0; _ }) -> ()
  | _ -> Alcotest.fail "same-batch read must see the pre-batch snapshot");
  (match w.outcome with
  | Some (Msg.Replied { reply = Msg.Done; seq = 1; _ }) -> ()
  | _ -> Alcotest.fail "write must ack after the batch settles");
  (* The next batch's snapshot reflects the commit. *)
  let r2 = Server.submit server ~session:"b" (Msg.R (Msg.Read "/srv/x.txt")) in
  Server.pump server;
  (match r2.outcome with
  | Some (Msg.Replied { reply = Msg.Data "hello\n"; seq = 1; stale = false; _ }) -> ()
  | _ -> Alcotest.fail "next-batch read must see the committed write");
  Server.stop server

let test_semantic_reads_through_server () =
  let rig = build ~seed () in
  let server = Server.create rig.hac in
  let links = Server.submit server ~session:"a" (Msg.R (Msg.Links "/ws/q-alpha")) in
  Server.pump server;
  (match links.outcome with
  | Some (Msg.Replied { reply = Msg.Linkset rows; _ }) ->
      check_int "planted files all linked" 4 (List.length rows)
  | _ -> Alcotest.fail "links read must resolve");
  (* A new semantic directory created through the server materializes in
     the next snapshot. *)
  let mk = Server.submit server ~session:"a" (Msg.W (Msg.Smkdir ("/srv/q", "markerbeta"))) in
  Server.pump server;
  (match mk.outcome with
  | Some (Msg.Replied { reply = Msg.Done; _ }) -> ()
  | _ -> Alcotest.fail "smkdir must ack");
  let links2 = Server.submit server ~session:"a" (Msg.R (Msg.Links "/srv/q")) in
  Server.pump server;
  (match links2.outcome with
  | Some (Msg.Replied { reply = Msg.Linkset rows; _ }) ->
      (* Scope of /srv/q is its parent's subtree — no /ws files in it. *)
      check_int "fresh semdir evaluated in scope" 0 (List.length rows)
  | _ -> Alcotest.fail "links of the new semdir must resolve");
  Server.stop server

(* A batch's reads run one after another against the snapshot: a wave of
   [n] reads advances the virtual clock by [n] read costs, and every read
   in it resolves at the wave's end with the file's contents. *)
let test_read_wave_charges_each_read () =
  let rig = build ~seed () in
  let config = { Server.default_config with max_batch = 3 } in
  let server = Server.create ~config rig.hac in
  let clock = Hac.clock rig.hac in
  let paths = Array.sub rig.files 0 5 in
  let tickets =
    Array.map (fun p -> Server.submit server ~session:"a" (Msg.R (Msg.Read p))) paths
  in
  let wave ~first ~n =
    let t0 = Clock.now clock in
    Server.pump server;
    let elapsed = Clock.now clock -. t0 in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "wave of %d charges %d reads" n n)
      (float_of_int n *. config.read_cost_s)
      elapsed;
    for k = first to first + n - 1 do
      let tk = tickets.(k) in
      match tk.Msg.outcome with
      | Some (Msg.Replied { reply = Msg.Data d; latency_s; _ }) ->
          Alcotest.(check string)
            (Printf.sprintf "read %d contents" k)
            (Fs.read_file (Hac.fs rig.hac) paths.(k))
            d;
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "read %d resolves at the wave's end" k)
            (Clock.now clock -. tk.Msg.submitted_s)
            latency_s
      | _ -> Alcotest.failf "read %d must resolve with data" k
    done
  in
  (* max_batch 3: five reads take a wave of three, then a wave of two. *)
  wave ~first:0 ~n:3;
  check_bool "the rest still queued" true (tickets.(3).Msg.outcome = None);
  wave ~first:3 ~n:2;
  Server.stop server

let test_queue_bound_sheds () =
  let rig = build ~seed () in
  let config =
    {
      Server.default_config with
      admission = { Admission.default with queue_bound = 4; seed };
      max_batch = 4;
    }
  in
  let server = Server.create ~config rig.hac in
  let results =
    List.init 10 (fun i ->
        Server.submit server
          ~session:(Printf.sprintf "s%d" i)
          (Msg.R (Msg.Read rig.files.(0))))
  in
  let shed =
    List.filter
      (fun (tk : Msg.ticket) ->
        match tk.outcome with
        | Some (Msg.Rejected { reason = Msg.Queue_full; retry_after_s }) ->
            check_bool "retry hint positive" true (retry_after_s > 0.0);
            true
        | _ -> false)
      results
  in
  check_int "everything past the bound shed" 6 (List.length shed);
  Server.drain server;
  List.iter
    (fun (tk : Msg.ticket) -> check_bool "resolved" true (tk.outcome <> None))
    results;
  Server.stop server

let test_session_suspension () =
  let rig = build ~seed () in
  let config =
    {
      Server.default_config with
      admission =
        {
          Admission.default with
          queue_bound = 1;
          seed;
          session_breaker =
            { Hac_fault.Breaker.failure_threshold = 3; probe_interval = 50.0; success_to_close = 1 };
        };
    }
  in
  let server = Server.create ~config rig.hac in
  (* One queued op fills the queue; the same session hammering after that
     accumulates sheds until its breaker suspends it. *)
  ignore (Server.submit server ~session:"noisy" (Msg.R (Msg.Read rig.files.(0))));
  let rec hammer n acc =
    if n = 0 then List.rev acc
    else
      let tk = Server.submit server ~session:"noisy" (Msg.R (Msg.Read rig.files.(0))) in
      hammer (n - 1) (tk :: acc)
  in
  let rejected = hammer 6 [] in
  let reasons =
    List.filter_map
      (fun (tk : Msg.ticket) ->
        match tk.outcome with
        | Some (Msg.Rejected { reason; _ }) -> Some reason
        | _ -> None)
      rejected
  in
  check_int "all hammered ops rejected" 6 (List.length reasons);
  check_bool "suspension kicked in" true (List.mem Msg.Session_suspended reasons);
  check_bool "session breaker open" true
    (Session.breaker_state (Server.session server "noisy") = Breaker.Open);
  Server.stop server

let test_degraded_sheds_writes_serves_reads () =
  let rig = build ~store:true ~seed () in
  let config = { chaos_config with fsync_retries = 0 } in
  let server = Server.create ~config rig.hac in
  let st = Option.get rig.store in
  (* First batch commits a write cleanly. *)
  ignore (Server.submit server ~session:"a" (Msg.W (Msg.Write ("/srv/a.txt", "one\n"))));
  Server.pump server;
  (* Device stops honouring barriers: the next write commits but cannot
     ack; the server degrades. *)
  Store.drop_fsyncs st 1000;
  let w = Server.submit server ~session:"a" (Msg.W (Msg.Write ("/srv/b.txt", "two\n"))) in
  Server.pump server;
  check_bool "degraded after stall" true (Server.is_degraded server);
  check_bool "write held, not acked" true (w.outcome = None);
  (* Degraded: writes shed with retry-after, reads still served — stale. *)
  let w2 = Server.submit server ~session:"a" (Msg.W (Msg.Write ("/srv/c.txt", "three\n"))) in
  (match w2.outcome with
  | Some (Msg.Rejected { reason = Msg.Degraded_writes; _ }) -> ()
  | _ -> Alcotest.fail "degraded server must shed writes at admission");
  let r = Server.submit server ~session:"b" (Msg.R (Msg.Read "/srv/a.txt")) in
  Server.pump server;
  (match r.outcome with
  | Some (Msg.Replied { reply = Msg.Data "one\n"; stale = true; _ }) -> ()
  | _ -> Alcotest.fail "degraded server must serve stale reads");
  (* The drain resolves the held write explicitly — no hangs, ever. *)
  Server.drain server;
  (match w.outcome with
  | Some (Msg.Replied { reply = Msg.Nack _; _ }) -> ()
  | _ -> Alcotest.fail "held write must resolve as explicit Nack");
  Server.stop server

let test_slo_breach_degrades_and_dumps_flight () =
  (* A stalled environment (the virtual clock jumps while writes sit in
     queue) blows a tight write objective: the burn-rate alert must fire,
     degrade the server with cause "slo", and freeze a readable flight
     dump. *)
  let rig = build ~seed () in
  let clock = Hac.clock rig.hac in
  let config =
    {
      Server.default_config with
      slo_objectives = [ { Slo.op = "write"; latency_s = 0.5; goal = 0.9 } ];
    }
  in
  let server = Server.create ~config rig.hac in
  let dir =
    let f = Filename.temp_file "hacslo" "" in
    Sys.remove f;
    Sys.mkdir f 0o700;
    f
  in
  Flight.set_auto_dump (Server.flight server) (Some dir);
  let writes =
    List.init 4 (fun i ->
        Server.submit server
          ~session:(Printf.sprintf "w%d" i)
          (Msg.W (Msg.Write (Printf.sprintf "/srv/slo%d.txt" i, "x\n"))))
  in
  Clock.advance clock 2.0;
  Server.pump server;
  List.iter
    (fun (tk : Msg.ticket) ->
      match tk.outcome with
      | Some (Msg.Replied { latency_s; _ }) ->
          check_bool "the stall shows in the latency" true (latency_s > 0.5)
      | _ -> Alcotest.fail "stalled write must still resolve")
    writes;
  check_bool "burn-rate alert counted" true
    (match Hac_obs.Metrics.find (Hac.metrics rig.hac) "slo.write.alerts" with
    | Some (Hac_obs.Metrics.Counter_value n) -> n >= 1
    | _ -> false);
  check_bool "server degraded" true (Server.is_degraded server);
  check_bool "degradation attributed to the slo cause" true
    (List.mem "slo" (Server.degraded_causes server));
  (* The breach froze the flight ring; the dump must read back. *)
  let dumps =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> String.length f >= 7 && String.sub f 0 7 = "flight-")
  in
  check_bool "flight dump written" true (dumps <> []);
  (match Flight.load (Filename.concat dir (List.hd dumps)) with
  | Ok d ->
      check_bool "dump names the slo breach" true
        (let r = d.Flight.reason in
         let n = String.length "slo breach" in
         String.length r >= n && String.sub r 0 n = "slo breach");
      check_bool "dump carries the run-up" true (d.Flight.events <> [])
  | Error e -> Alcotest.fail ("flight dump unreadable: " ^ e));
  (* Once the burst ages out of the fast window the server recovers. *)
  Clock.advance clock 301.0;
  let ok = Server.submit server ~session:"r" (Msg.R (Msg.Read rig.files.(0))) in
  Server.pump server;
  check_bool "read resolved during/after degradation" true (ok.outcome <> None);
  check_bool "slo cause cleared once the window is clean" false
    (List.mem "slo" (Server.degraded_causes server));
  Server.drain server;
  Server.stop server;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* -- stamp-driven publication ------------------------------------------------- *)

let linkset server path =
  let tk = Server.submit server ~session:"probe" (Msg.R (Msg.Links path)) in
  Server.pump server;
  match tk.outcome with
  | Some (Msg.Replied { reply = Msg.Linkset rows; _ }) -> rows
  | _ -> Alcotest.failf "links of %s must resolve" path

let write_through server w =
  let tk = Server.submit server ~session:"w" (Msg.W w) in
  Server.pump server;
  match tk.outcome with
  | Some (Msg.Replied { reply = Msg.Done; _ }) -> ()
  | _ -> Alcotest.failf "%s must ack" (Msg.describe (Msg.W w))

(* Each batch below changes a semantic directory's links without touching
   its path: only its change stamp tells the publisher to rebuild it. *)
let test_untouched_semdir_republished () =
  let rig = build ~mount:true ~seed () in
  Hac.smkdir rig.hac "/ws/q-ref" "{/ws/q-alpha}";
  Hac.settle rig.hac;
  let server = Server.create rig.hac in
  let names rows = List.map (fun (r : Msg.linkrow) -> r.Msg.l_name) rows in
  let ref_before = linkset server "/ws/q-ref" in
  check_int "the reference mirrors q-alpha" 4 (List.length ref_before);
  (* An in-scope write elsewhere: a new document joins q-alpha. *)
  write_through server (Msg.Write ("/ws/fresh-alpha.txt", "markeralpha arrives\n"));
  assert_snapshot_current server rig.hac;
  check_bool "q-alpha links the new document" true
    (List.mem "fresh-alpha.txt" (names (linkset server "/ws/q-alpha")));
  check_bool "q-ref follows it" true
    (List.mem "fresh-alpha.txt" (names (linkset server "/ws/q-ref")));
  (* Unlinking a link inside q-alpha prohibits its target there, and q-ref,
     whose path nothing touched, loses it too. *)
  write_through server (Msg.Unlink "/ws/q-alpha/fresh-alpha.txt");
  assert_snapshot_current server rig.hac;
  check_bool "q-ref dropped the unlinked target" false
    (List.mem "fresh-alpha.txt" (names (linkset server "/ws/q-ref")));
  (* A namespace outage: the next full re-evaluation (forced by unlinking
     a link in another directory) re-serves /rq's remote rows stale. *)
  check_bool "remote rows fresh before the outage" true
    (List.for_all (fun (r : Msg.linkrow) -> not r.Msg.l_stale) (linkset server "/rq"));
  Fault.set_plans (Option.get rig.inj) [ Fault.Outage ];
  (match linkset server "/ws/q-beta" with
  | r :: _ -> write_through server (Msg.Unlink ("/ws/q-beta/" ^ r.Msg.l_name))
  | [] -> Alcotest.fail "q-beta has links");
  assert_snapshot_current server rig.hac;
  let rq = linkset server "/rq" in
  check_bool "remote rows still served" true (rq <> []);
  check_bool "remote rows marked stale" true
    (List.for_all (fun (r : Msg.linkrow) -> r.Msg.l_stale) rq);
  Fault.clear (Option.get rig.inj);
  Server.stop server

let rebuilt_count hac =
  match Hac_obs.Metrics.find (Hac.metrics hac) "serve.snapshot.semdirs_rebuilt" with
  | Some (Hac_obs.Metrics.Counter_value n) -> n
  | _ -> Alcotest.fail "serve.snapshot.semdirs_rebuilt missing"

let test_publication_counts_rebuilds () =
  let fs = Fs.create () in
  Fs.mkdir_p fs "/docs";
  Fs.mkdir_p fs "/out";
  List.iter
    (fun (name, body) -> Fs.write_file fs ("/docs/" ^ name) body)
    [ ("a.txt", "alpha one\n"); ("b.txt", "beta two\n"); ("c.txt", "gamma three\n") ];
  let hac = Hac.of_fs fs in
  List.iter
    (fun (p, q) -> Hac.smkdir hac p q)
    [ ("/docs/qa", "alpha"); ("/docs/qb", "beta"); ("/docs/qc", "gamma") ];
  Hac.settle hac;
  let server = Server.create hac in
  (* Writes outside every scope publish without rebuilding any directory. *)
  for i = 1 to 4 do
    write_through server (Msg.Write (Printf.sprintf "/out/o%d.txt" i, "alpha beta gamma\n"))
  done;
  check_int "no rebuild for out-of-scope writes" 0 (rebuilt_count hac);
  (* A write that changes only qa's result rebuilds qa alone. *)
  for i = 1 to 3 do
    write_through server (Msg.Write (Printf.sprintf "/docs/n%d.txt" i, "alpha again\n"));
    check_int (Printf.sprintf "one rebuild per publish (%d)" i) i (rebuilt_count hac)
  done;
  check_int "qa links the new documents" 4 (List.length (linkset server "/docs/qa"));
  assert_snapshot_current server hac;
  Server.stop server

(* -- deadline-slack accounting regression (satellite) ----------------------- *)

let test_policy_slack_recorded_on_failures () =
  let clock = Clock.create () in
  let inj = Fault.create ~seed ~clock () in
  let reg = Hac_obs.Metrics.create () in
  let policy = { Namespace.default_policy with max_retries = 1 } in
  let ns =
    Namespace.with_policy ~policy ~metrics:reg ~clock
      (Namespace.with_faults inj
         (Namespace.static ~ns_id:"slackns" [ ("a.txt", "stat://slackns/a", "alpha\n") ]))
  in
  ignore (ns.Namespace.search "alpha");
  Fault.set_plans inj [ Fault.Fail_times 2 ];
  (try ignore (ns.Namespace.search "alpha") with Namespace.Unavailable _ -> ());
  match Hac_obs.Metrics.find reg "ns.slackns.deadline_slack_s" with
  | Some (Hac_obs.Metrics.Histogram_value s) ->
      (* 1 clean attempt + 2 failed attempts: the histogram must reflect
         every attempt, not just the successes. *)
      check_int "failed attempts observed too" 3 s.Hac_obs.Metrics.count
  | _ -> Alcotest.fail "deadline_slack_s histogram missing"

let () =
  Alcotest.run "serve"
    [
      ( "server",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "semantic reads" `Quick test_semantic_reads_through_server;
          Alcotest.test_case "read wave charges each read" `Quick
            test_read_wave_charges_each_read;
          Alcotest.test_case "queue bound sheds" `Quick test_queue_bound_sheds;
          Alcotest.test_case "session suspension" `Quick test_session_suspension;
          Alcotest.test_case "degraded mode" `Quick test_degraded_sheds_writes_serves_reads;
          Alcotest.test_case "slo breach degrades and dumps flight" `Quick
            test_slo_breach_degrades_and_dumps_flight;
        ] );
      ( "publication",
        [
          Alcotest.test_case "untouched semdir republished" `Quick
            test_untouched_semdir_republished;
          Alcotest.test_case "rebuilds counted" `Quick test_publication_counts_rebuilds;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "local storm" `Quick test_chaos_local;
          Alcotest.test_case "mounted storm" `Quick test_chaos_mounted;
        ] );
      ( "policy",
        [
          Alcotest.test_case "slack recorded on failures" `Quick
            test_policy_slack_recorded_on_failures;
        ] );
    ]
