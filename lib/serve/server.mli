(** The multi-session server: snapshot-isolated reads, batched
    group-commit writes, admission control, graceful degradation.

    Control flow is single-threaded — [submit]/[pump]/[drain]/[stop] and
    everything they run stay on the caller's domain; [pump] evaluates a
    batch's reads in order against the current immutable snapshot.  Writes
    are applied sequentially and settled {e once per
    batch} (group commit: one journal fsync instead of one per mutation);
    acks are released only after the simulated device's durability
    frontier covers the batch.

    Degraded mode — settles over budget, a mounted namespace's breaker
    open, or durability stalled — sheds writes at admission and keeps
    serving reads from the last published snapshot, marked stale.
    Availability degrades in freshness, never in consistency: a snapshot
    is always a fully settled, fully durable committed-write prefix. *)

type config = {
  max_batch : int;  (** Tickets consumed per pump. *)
  admission : Admission.config;
  read_cost_s : float;  (** Virtual cost of one snapshot read. *)
  write_cost_s : float;  (** Virtual cost of applying one write. *)
  settle_cost_s : float;  (** Base virtual cost of a settle. *)
  settle_budget_s : float;  (** Settles beyond this trip degraded mode. *)
  fsync_retries : int;  (** Barrier retries when durability stalls. *)
  slo_objectives : Hac_obs.Slo.objective list;
      (** Per-op latency/error objectives; a multi-window burn-rate
          breach joins the degraded causes as cause ["slo"]. *)
}

val default_config : config

type stats = {
  submitted : int;
  admitted : int;
  shed : int;  (** Rejections, including expiries. *)
  expired : int;  (** Deadline passed while queued. *)
  completed : int;  (** Replied (including [Nack]s). *)
  nacked : int;
  commits : int;  (** Writes in the commit log. *)
  acked : int;  (** Writes acknowledged durable. *)
  stale_reads : int;  (** Reads served from a lagging snapshot. *)
  batches : int;
}

type t

val create : ?config:config -> Hac_core.Hac.t -> t
(** Wrap an engine: disables per-mutation settling (restored by {!stop}),
    selects [`Batch] durability, settles, and captures the seq-0
    snapshot.  Instruments register in the engine's metrics registry
    under [serve.*]. *)

val submit : t -> session:string -> Msg.op -> Msg.ticket
(** Submit one op for [session] (created on first use).  The ticket is
    resolved immediately when admission sheds the op, otherwise queued
    until a {!pump} resolves it. *)

val pump : t -> unit
(** Process one batch: expire overdue tickets, evaluate reads against the
    snapshot, apply writes, settle once, confirm durability,
    publish the next snapshot and release acks. *)

val drain : ?max_pumps:int -> t -> unit
(** Pump until nothing is queued or pending (bounded by [max_pumps],
    default 64); whatever remains is resolved explicitly — queued tickets
    as [Rejected Server_stopped], unacked writes as
    [Nack "durability unconfirmed"].  The no-hang contract holds even
    against a device that never honours another fsync. *)

val stop : t -> unit
(** {!drain}, then restore the engine's auto-sync setting.
    Subsequent submissions are rejected with [Server_stopped]. *)

val apply_write : Hac_core.Hac.t -> Msg.write -> unit
(** Apply one write through the engine's interposed wrappers (raises
    engine errors).  Shared with {!Spec} so the serial twin replays
    commits with exactly the serving semantics. *)

val session : t -> string -> Session.t
(** Find or create a session. *)

val sessions : t -> Session.t list
(** All sessions, sorted by id. *)

val stats : t -> stats
val snapshot : t -> Snapshot.t
val committed_writes : t -> Msg.write list
(** The commit log in commit order — the input to {!Spec.check}. *)

val is_degraded : t -> bool
val degraded_reason : t -> string

val degraded_causes : t -> string list
(** Stable cause names behind {!is_degraded}: ["settle"], ["mount"],
    ["durability"], ["slo"] (see {!Admission.cause_name}). *)

val slo : t -> Hac_obs.Slo.t
(** The server's SLO monitor.  Fed by every [Replied] ticket (rejections
    are excluded — counting deliberate sheds as errors would make
    degraded mode self-sustaining); evaluated each pump. *)

val flight : t -> Hac_obs.Flight.t
(** The engine's flight recorder ({!Hac_core.Hac.flight}): admission
    sheds, degraded flips and SLO alerts are recorded as transitions, and
    a rising SLO alert triggers an automatic dump when enabled. *)

val queue_depth : t -> int
