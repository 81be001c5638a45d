(* The multi-session server: snapshot-isolated reads, batched group-commit
   writes, admission control and graceful degradation.

   One pump cycle is the unit of progress:

     admit  — [submit] already filtered through {!Admission}; the queue
              holds only admitted tickets;
     batch  — pop up to [max_batch] tickets, expiring any whose deadline
              passed while queued (explicit rejection, never a hang);
     reads  — evaluated in order against the current immutable snapshot
              (pure map lookups);
     writes — applied sequentially to the engine in pop order; each
              success appends to the commit log, each engine error is an
              immediate [Nack] (not committed);
     settle — one settle for the whole batch: this is group commit, one
              journal fsync instead of one per mutation;
     ack    — writes are acknowledged only once the simulated device
              confirms the batch durable (the durability frontier covers
              the op log); then the next snapshot is published and reads
              start seeing the batch.

   Degraded mode is entered when settles blow their budget, a mounted
   namespace's breaker is open, or durability stalls (fsyncs swallowed).
   Degraded, the server sheds writes at admission and keeps serving reads
   from the last published snapshot, marked stale — availability for
   freshness, never for consistency: a snapshot is always a committed
   prefix.

   Single-threaded: [submit]/[pump]/[drain] and everything they run stay on
   the caller's domain, so plain mutable state and metrics are safe. *)

module Fs = Hac_vfs.Fs
module Hac = Hac_core.Hac
module Clock = Hac_fault.Clock
module Metrics = Hac_obs.Metrics
module Trace = Hac_obs.Trace
module Ctx = Hac_obs.Ctx
module Flight = Hac_obs.Flight
module Slo = Hac_obs.Slo

type config = {
  max_batch : int;  (** Tickets consumed per pump. *)
  admission : Admission.config;
  read_cost_s : float;  (** Virtual cost of one snapshot read. *)
  write_cost_s : float;  (** Virtual cost of applying one write. *)
  settle_cost_s : float;  (** Base virtual cost of a settle. *)
  settle_budget_s : float;  (** Settles beyond this trip degraded mode. *)
  fsync_retries : int;  (** Re-fsync attempts when durability stalls. *)
  slo_objectives : Slo.objective list;  (** Per-op latency/error objectives. *)
}

let default_config =
  {
    max_batch = 16;
    admission = Admission.default;
    read_cost_s = 0.002;
    write_cost_s = 0.01;
    settle_cost_s = 0.05;
    settle_budget_s = 2.0;
    fsync_retries = 2;
    slo_objectives = Slo.default_objectives;
  }

type stats = {
  submitted : int;
  admitted : int;
  shed : int;
  expired : int;
  completed : int;
  nacked : int;
  commits : int;
  acked : int;
  stale_reads : int;
  batches : int;
}

type instruments = {
  c_admit : Metrics.counter;
  c_shed : Metrics.counter;
  c_expired : Metrics.counter;
  c_commits : Metrics.counter;
  c_acked : Metrics.counter;
  c_nacked : Metrics.counter;
  c_stale : Metrics.counter;
  c_semdirs_rebuilt : Metrics.counter;
  g_queue : Metrics.gauge;
  g_degraded : Metrics.gauge;
  h_batch : Metrics.histogram;
  h_read : Metrics.histogram;
  h_write : Metrics.histogram;
  h_settle : Metrics.histogram;
  h_latency : Metrics.histogram;
}

type t = {
  hac : Hac.t;
  config : config;
  clock : Clock.t;
  sessions : (string, Session.t) Hashtbl.t;
  queue : Msg.ticket Queue.t;
  mutable queued_cost_s : float;  (** Estimated cost of the queue. *)
  mutable unacked : Msg.ticket list;  (** Committed, awaiting durability (reversed). *)
  mutable snap : Snapshot.t;
  mutable unpublished : string list;
      (** Paths committed writes touched since the last publication. *)
  mutable commits : Msg.write list;  (** Commit log, reversed. *)
  mutable committed_n : int;
  mutable degraded : bool;
  mutable degraded_reason : string;
  mutable causes : Admission.degraded_cause list;
  mutable last_settle_s : float;
  mutable last_settle_error : string option;
  mutable stopped : bool;
  prior_auto_sync : bool;
  ids : Ctx.gen;  (** Trace-id stream for tickets. *)
  slo : Slo.t;
  flight : Flight.t;
  mutable s : stats;
  i : instruments;
}

let zero_stats =
  {
    submitted = 0;
    admitted = 0;
    shed = 0;
    expired = 0;
    completed = 0;
    nacked = 0;
    commits = 0;
    acked = 0;
    stale_reads = 0;
    batches = 0;
  }

let make_instruments reg =
  {
    c_admit = Metrics.counter reg "serve.admit";
    c_shed = Metrics.counter reg "serve.shed";
    c_expired = Metrics.counter reg "serve.expired";
    c_commits = Metrics.counter reg "serve.commits";
    c_acked = Metrics.counter reg "serve.acked";
    c_nacked = Metrics.counter reg "serve.nacked";
    c_stale = Metrics.counter reg "serve.stale_reads";
    c_semdirs_rebuilt = Metrics.counter reg "serve.snapshot.semdirs_rebuilt";
    g_queue = Metrics.gauge reg "serve.queue_depth";
    g_degraded = Metrics.gauge reg "serve.degraded";
    h_batch = Metrics.histogram reg "serve.batch_size";
    h_read = Metrics.histogram reg "serve.read_s";
    h_write = Metrics.histogram reg "serve.write_s";
    h_settle = Metrics.histogram reg "serve.settle_s";
    h_latency = Metrics.histogram reg "serve.latency_s";
  }

let create ?(config = default_config) hac =
  let prior_auto_sync = Hac.auto_sync_enabled hac in
  (* Group commit owns the settle cadence: no per-mutation settles, and
     journal appends ride the per-settle durability barrier. *)
  Hac.set_auto_sync hac false;
  Hac.set_durability hac `Batch;
  Hac.settle hac;
  let clock = Hac.clock hac in
  let snap = Snapshot.capture hac ~seq:0 ~now:(Clock.now clock) in
  (* The capture materialized transient links; barrier the tail (see
     [confirm]). *)
  Fs.fsync (Hac.fs hac) "/";
  {
    hac;
    config;
    clock;
    sessions = Hashtbl.create 16;
    queue = Queue.create ();
    queued_cost_s = 0.0;
    unacked = [];
    snap;
    unpublished = [];
    commits = [];
    committed_n = 0;
    degraded = false;
    degraded_reason = "";
    causes = [];
    last_settle_s = 0.0;
    last_settle_error = None;
    stopped = false;
    prior_auto_sync;
    ids = Ctx.gen ~seed:(config.admission.seed lxor 0x7AC3);
    slo =
      Slo.create ~metrics:(Hac.metrics hac)
        ~now:(fun () -> Clock.now clock)
        config.slo_objectives;
    flight = Hac.flight hac;
    s = zero_stats;
    i = make_instruments (Hac.metrics hac);
  }

let session t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> s
  | None ->
      let s = Session.create ~breaker:t.config.admission.session_breaker id in
      Hashtbl.add t.sessions s.id s;
      s

let sessions t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
  |> List.sort (fun (a : Session.t) b -> compare a.id b.id)

let stats t = t.s
let snapshot t = t.snap
let committed_writes t = List.rev t.commits
let is_degraded t = t.degraded
let degraded_reason t = t.degraded_reason
let degraded_causes t = List.map Admission.cause_name t.causes
let slo t = t.slo
let flight t = t.flight
let queue_depth t = Queue.length t.queue

let op_cost t op = if Msg.is_write op then t.config.write_cost_s else t.config.read_cost_s

let resolve t (ticket : Msg.ticket) outcome =
  assert (ticket.outcome = None);
  ticket.outcome <- Some outcome;
  let session = session t ticket.session in
  match outcome with
  | Msg.Rejected _ -> ()
  | Msg.Replied { reply; latency_s; stale; _ } ->
      session.completed <- session.completed + 1;
      Metrics.observe t.i.h_latency latency_s;
      (* Only executed requests feed the SLO monitor: counting deliberate
         sheds as errors would make degraded mode self-sustaining (shed →
         bad → burn → degraded → shed). *)
      let op_class = Msg.op_class ticket.op in
      let ok = match reply with Msg.Nack _ -> false | _ -> true in
      if Slo.record t.slo ~op:op_class ~latency_s ~ok then
        session.over_slo <- session.over_slo + 1;
      t.s <- { t.s with completed = t.s.completed + 1 };
      if stale then begin
        Metrics.incr t.i.c_stale;
        t.s <- { t.s with stale_reads = t.s.stale_reads + 1 }
      end;
      (match reply with
      | Msg.Nack _ ->
          session.failed <- session.failed + 1;
          Metrics.incr t.i.c_nacked;
          t.s <- { t.s with nacked = t.s.nacked + 1 }
      | _ -> ())

let submit t ~session:sid op =
  let now = Clock.now t.clock in
  let session = session t sid in
  session.submitted <- session.submitted + 1;
  t.s <- { t.s with submitted = t.s.submitted + 1 };
  let deadline_s = now +. t.config.admission.slo_s in
  let ticket =
    {
      Msg.op;
      session = sid;
      submitted_s = now;
      deadline_s;
      trace = Ctx.make ~id:(Ctx.fresh t.ids) ~now;
      outcome = None;
    }
  in
  if t.stopped then begin
    Admission.record_shed session ~now ~reason:Msg.Server_stopped;
    t.s <- { t.s with shed = t.s.shed + 1 };
    Metrics.incr t.i.c_shed;
    Ctx.record_until ticket.trace "admission" now;
    ticket.outcome <- Some (Msg.Rejected { reason = Msg.Server_stopped; retry_after_s = 0.0 });
    ticket
  end
  else begin
    let est_wait_s =
      t.queued_cost_s +. op_cost t op
      +. (if t.degraded then Float.max t.last_settle_s t.config.settle_cost_s
          else t.config.settle_cost_s)
    in
    match
      Admission.decide t.config.admission ~session ~now ~queue_depth:(Queue.length t.queue)
        ~est_wait_s ~deadline_s ~degraded:t.degraded ~is_write:(Msg.is_write op)
    with
    | Admission.Shed (reason, retry_after_s) ->
        Admission.record_shed session ~now ~reason;
        t.s <- { t.s with shed = t.s.shed + 1 };
        Metrics.incr t.i.c_shed;
        Ctx.record_until ticket.trace "admission" now;
        Flight.transition t.flight ~subsystem:"admission" ~from_:"admit" ~to_:"shed"
          ~reason:(Printf.sprintf "%s session=%s" (Msg.reason_name reason) sid);
        ticket.outcome <- Some (Msg.Rejected { reason; retry_after_s });
        ticket
    | Admission.Admit ->
        Admission.record_admit session;
        t.s <- { t.s with admitted = t.s.admitted + 1 };
        Metrics.incr t.i.c_admit;
        Ctx.record_until ticket.trace "admission" now;
        Queue.add ticket t.queue;
        t.queued_cost_s <- t.queued_cost_s +. op_cost t op;
        Metrics.set t.i.g_queue (float_of_int (Queue.length t.queue));
        ticket
  end

(* Apply one write through the engine's interposed wrappers.  Raises on
   engine errors; the caller turns those into an immediate [Nack] and
   keeps the op out of the commit log. *)
let apply_write hac = function
  | Msg.Mkdir p -> Hac.mkdir hac p
  | Msg.Write (p, c) -> Hac.write_file hac p c
  | Msg.Append (p, c) -> Hac.append_file hac p c
  | Msg.Unlink p -> Hac.unlink hac p
  | Msg.Smkdir (p, q) -> Hac.smkdir hac p q

let write_error = function
  | Hac_vfs.Errno.Error (code, subject) ->
      Some (Printf.sprintf "%s: %s" (Hac_vfs.Errno.to_string code) subject)
  | Hac.Hac_error m -> Some m
  | _ -> None

let touched_path = function
  | Msg.Mkdir p | Msg.Write (p, _) | Msg.Append (p, _) | Msg.Unlink p | Msg.Smkdir (p, _) -> p

(* Degraded-mode inputs that do not depend on this pump's work: an open
   breaker on any mounted namespace means re-evaluations over it are
   failing — keep serving the last-good snapshot, stop accepting writes
   whose settles would hammer it. *)
let mount_breaker_open t =
  List.exists
    (fun (mh : Hac.mount_health) ->
      match mh.mh_health with
      | Some h -> h.Hac_remote.Namespace.breaker = Hac_fault.Breaker.Open
      | None -> false)
    (Hac.mount_status t.hac)

(* The batch durable?  In-order global persistence: the frontier covering
   the whole op log covers every committed write. *)
let durable t =
  match Fs.disk (Hac.fs t.hac) with
  | None -> true
  | Some store -> Hac_fault.Store.durable_count store = Hac_fault.Store.op_count store

(* Degraded mode is a condition, not an event: recomputed from its inputs
   so each cause clears independently when it goes away — a slow settle
   stops degrading once a settle fits the budget again, a mount recovers
   when its breaker closes, a stall when a barrier is honoured, an SLO
   burn when the burn rate drops back below threshold on either window.
   Each evaluation also drives the flight recorder: a rising SLO alert is
   a breach (the ring is frozen to a dump when auto-dump is configured),
   and every degraded flip is a recorded transition. *)
let refresh_degraded t =
  let new_alerts = Slo.evaluate t.slo in
  List.iter
    (fun a ->
      Flight.transition t.flight ~subsystem:"slo" ~from_:"ok" ~to_:"alert"
        ~reason:(Slo.describe_alert a);
      ignore (Flight.breach t.flight ~reason:("slo breach: " ^ Slo.describe_alert a)))
    new_alerts;
  let causes =
    (match t.last_settle_error with
    | Some e -> [ Admission.Settle_error e ]
    | None ->
        if t.last_settle_s > t.config.settle_budget_s then
          [
            Admission.Settle_over_budget
              { took_s = t.last_settle_s; budget_s = t.config.settle_budget_s };
          ]
        else [])
    @ (if mount_breaker_open t then [ Admission.Mount_breaker ] else [])
    @ (if durable t then [] else [ Admission.Durability_stalled ])
    @
    match Slo.breached_ops t.slo with
    | [] -> []
    | ops -> [ Admission.Slo_burn (String.concat "," ops) ]
  in
  let was = t.degraded in
  t.causes <- causes;
  t.degraded <- causes <> [];
  t.degraded_reason <- String.concat "; " (List.map Admission.describe_cause causes);
  if t.degraded <> was then
    Flight.transition t.flight ~subsystem:"server"
      ~from_:(if was then "degraded" else "ok")
      ~to_:(if t.degraded then "degraded" else "ok")
      ~reason:(if t.degraded then t.degraded_reason else "recovered");
  Metrics.set t.i.g_degraded (if t.degraded then 1.0 else 0.0)

let serve_reads t tickets =
  let n = Array.length tickets in
  if n > 0 then begin
    let snap = t.snap in
    let reads =
      Array.map
        (fun (tk : Msg.ticket) ->
          match tk.op with Msg.R r -> r | Msg.W _ -> assert false)
        tickets
    in
    (* Pure lookups against one immutable snapshot, in order.  Traced,
       each read's CPU duration is measured around it; untraced, nothing
       reads a clock. *)
    let tr = Hac.tracer t.hac in
    let traced = Trace.enabled tr in
    Trace.with_span tr ~name:"serve.read_wave" (fun () ->
        let vstart = Clock.now t.clock in
        let read = Snapshot.read snap in
        let replies, cpu =
          if not traced then (Array.map read reads, [||])
          else begin
            let times = Array.make n 0.0 in
            let rs =
              Array.mapi
                (fun k r ->
                  let c0 = Sys.time () in
                  let v = read r in
                  times.(k) <- Sys.time () -. c0;
                  v)
                reads
            in
            (rs, times)
          end
        in
        (* The reads run one after another: the wave costs one read each. *)
        Clock.advance t.clock (float_of_int n *. t.config.read_cost_s);
        let now = Clock.now t.clock in
        (* Each read's span carries its measured CPU time, parent-linked to
           this wave's span and tagged with the request's trace id. *)
        if traced then begin
          let parent = Trace.current tr in
          Array.iteri
            (fun k (tk : Msg.ticket) ->
              ignore
                (Trace.emit tr ?parent
                   ~attrs:[ ("trace", Ctx.id_hex tk.trace) ]
                   ~name:"serve.read" ~vstart ~vstop:now ~cpu_s:cpu.(k) ()))
            tickets
        end;
        let stale = Snapshot.seq snap < t.committed_n in
        Array.iteri
          (fun k (tk : Msg.ticket) ->
            Metrics.observe t.i.h_read t.config.read_cost_s;
            Ctx.record_until tk.trace "eval" now;
            resolve t tk
              (Msg.Replied
                 {
                   reply = replies.(k);
                   seq = Snapshot.seq snap;
                   stale;
                   latency_s = now -. tk.submitted_s;
                 }))
          tickets)
  end

let apply_writes t tickets =
  List.iter
    (fun (tk : Msg.ticket) ->
      let w = match tk.op with Msg.W w -> w | Msg.R _ -> assert false in
      Clock.advance t.clock t.config.write_cost_s;
      Metrics.observe t.i.h_write t.config.write_cost_s;
      match apply_write t.hac w with
      | () ->
          Ctx.record_until tk.trace "eval" (Clock.now t.clock);
          t.commits <- w :: t.commits;
          t.committed_n <- t.committed_n + 1;
          t.unpublished <- touched_path w :: t.unpublished;
          Metrics.incr t.i.c_commits;
          t.s <- { t.s with commits = t.s.commits + 1 };
          t.unacked <- tk :: t.unacked
      | exception e -> (
          match write_error e with
          | Some m ->
              let now = Clock.now t.clock in
              Ctx.record_until tk.trace "eval" now;
              resolve t tk
                (Msg.Replied
                   {
                     reply = Msg.Nack m;
                     seq = t.committed_n;
                     stale = false;
                     latency_s = now -. tk.submitted_s;
                   })
          | None -> raise e))
    tickets

(* Group commit: one settle (and thus one journal fsync) for the whole
   batch.  The settle's virtual duration is measured around it — injected
   remote latency and retry backoff advance the clock inside — plus the
   base cost; over budget trips degraded mode. *)
let settle_batch t =
  let before = Clock.now t.clock in
  let outcome = try Ok (Hac.settle t.hac) with e -> Error e in
  Clock.advance t.clock t.config.settle_cost_s;
  let dur = Clock.now t.clock -. before in
  t.last_settle_s <- dur;
  Metrics.observe t.i.h_settle dur;
  (* Stage accounting for everything awaiting durability: a write settled
     for the first time charges this interval to "settle"; one already
     settled in an earlier batch has been waiting on the durability
     barrier, so its wait accrues under "fsync". *)
  let now = Clock.now t.clock in
  List.iter
    (fun (tk : Msg.ticket) ->
      let stage = if Ctx.find tk.trace "settle" = None then "settle" else "fsync" in
      Ctx.record_until tk.trace stage now)
    t.unacked;
  match outcome with
  | Ok () -> t.last_settle_error <- None
  | Error e -> t.last_settle_error <- Some (Printexc.to_string e)

(* Confirm durability, retrying the barrier a bounded number of times (a
   device swallowing fsyncs may honour the next one).  On success publish
   the post-batch snapshot and release every pending ack; on failure hold
   the acks — but resolve any past their deadline as an explicit [Nack]
   ("applied, durability unconfirmed"), never leave them hanging. *)
let confirm t =
  let fs = Hac.fs t.hac in
  let attempts = ref 0 in
  while (not (durable t)) && !attempts < t.config.fsync_retries do
    incr attempts;
    Clock.advance t.clock t.config.settle_cost_s;
    Fs.fsync fs "/"
  done;
  if durable t && t.last_settle_error = None then begin
    (* Settled and durable: publish the post-batch view and release every
       pending ack.  A snapshot is only ever published here, so readers
       always see a fully settled, fully durable prefix.  The refresh
       covers every path committed since the last publication, including
       batches whose acks were held. *)
    t.snap <-
      Snapshot.advance t.snap t.hac ~seq:t.committed_n ~now:(Clock.now t.clock)
        ~touched:t.unpublished;
    t.unpublished <- [];
    Metrics.incr ~by:(Snapshot.semdirs_rebuilt t.snap) t.i.c_semdirs_rebuilt;
    (* Building the view lazily materializes transient links — physical
       symlinks recorded on the device after the settle's barrier.  One
       more barrier keeps the frontier covering that maintenance tail. *)
    Fs.fsync fs "/";
    let now = Clock.now t.clock in
    List.iter
      (fun (tk : Msg.ticket) ->
        Metrics.incr t.i.c_acked;
        t.s <- { t.s with acked = t.s.acked + 1 };
        Ctx.record_until tk.trace "fsync" now;
        resolve t tk
          (Msg.Replied
             { reply = Msg.Done; seq = t.committed_n; stale = false; latency_s = now -. tk.submitted_s }))
      (List.rev t.unacked);
    t.unacked <- []
  end
  else begin
    (* Holding acks — but never past their deadline: an overdue write
       resolves as an explicit "applied, durability unconfirmed" [Nack]. *)
    let now = Clock.now t.clock in
    let overdue, waiting =
      List.partition (fun (tk : Msg.ticket) -> now > tk.deadline_s) t.unacked
    in
    t.unacked <- waiting;
    (* Held tickets keep accruing durability wait under "fsync". *)
    List.iter (fun (tk : Msg.ticket) -> Ctx.record_until tk.trace "fsync" now) waiting;
    List.iter
      (fun (tk : Msg.ticket) ->
        Ctx.record_until tk.trace "fsync" now;
        resolve t tk
          (Msg.Replied
             {
               reply = Msg.Nack "durability unconfirmed";
               seq = t.committed_n;
               stale = false;
               latency_s = now -. tk.submitted_s;
             }))
      (List.rev overdue)
  end;
  refresh_degraded t

let pump t =
  refresh_degraded t;
  let batch = ref [] in
  let n = ref 0 in
  while !n < t.config.max_batch && not (Queue.is_empty t.queue) do
    let tk = Queue.pop t.queue in
    t.queued_cost_s <- Float.max 0.0 (t.queued_cost_s -. op_cost t tk.op);
    batch := tk :: !batch;
    incr n
  done;
  Metrics.set t.i.g_queue (float_of_int (Queue.length t.queue));
  let batch = List.rev !batch in
  if batch <> [] || t.unacked <> [] then begin
    t.s <- { t.s with batches = t.s.batches + 1 };
    Metrics.observe t.i.h_batch (float_of_int (List.length batch));
    let now = Clock.now t.clock in
    (* Everything popped spent the interval since admission queued. *)
    List.iter (fun (tk : Msg.ticket) -> Ctx.record_until tk.trace "queue" now) batch;
    (* Deadline may have passed while queued: explicit rejection, and the
       session's streak grows — an expired op was real shed load. *)
    let live, expired = List.partition (fun (tk : Msg.ticket) -> now <= tk.deadline_s) batch in
    List.iter
      (fun (tk : Msg.ticket) ->
        Metrics.incr t.i.c_expired;
        t.s <- { t.s with expired = t.s.expired + 1; shed = t.s.shed + 1 };
        Admission.record_shed (session t tk.session) ~now ~reason:Msg.Deadline_expired;
        resolve t tk (Msg.Rejected { reason = Msg.Deadline_expired; retry_after_s = 0.0 }))
      expired;
    let reads, writes = List.partition (fun (tk : Msg.ticket) -> not (Msg.is_write tk.op)) live in
    serve_reads t (Array.of_list reads);
    apply_writes t writes;
    if writes <> [] || t.unacked <> [] then begin
      settle_batch t;
      confirm t
    end
  end

(* Pump until nothing is queued or pending, bounded; anything the bound
   leaves behind is resolved explicitly — the no-hang contract holds even
   when the device never honours another fsync. *)
let drain ?(max_pumps = 64) t =
  let i = ref 0 in
  while !i < max_pumps && not (Queue.is_empty t.queue && t.unacked = []) do
    incr i;
    pump t
  done;
  let now = Clock.now t.clock in
  Queue.iter
    (fun (tk : Msg.ticket) ->
      t.s <- { t.s with shed = t.s.shed + 1 };
      Metrics.incr t.i.c_shed;
      Admission.record_shed (session t tk.session) ~now ~reason:Msg.Server_stopped;
      resolve t tk (Msg.Rejected { reason = Msg.Server_stopped; retry_after_s = 0.0 }))
    t.queue;
  Queue.clear t.queue;
  t.queued_cost_s <- 0.0;
  List.iter
    (fun (tk : Msg.ticket) ->
      Ctx.record_until tk.trace "fsync" now;
      resolve t tk
        (Msg.Replied
           {
             reply = Msg.Nack "durability unconfirmed";
             seq = t.committed_n;
             stale = false;
             latency_s = now -. tk.submitted_s;
           }))
    (List.rev t.unacked);
  t.unacked <- []

let stop t =
  if not t.stopped then begin
    drain t;
    t.stopped <- true;
    Hac.set_auto_sync t.hac t.prior_auto_sync
  end
