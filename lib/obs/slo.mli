(** SLO monitor: per-op latency/error objectives with multi-window
    burn-rate alerting on the virtual clock (see docs/slo.md). *)

type objective = {
  op : string;  (** request class, e.g. "read" or "write" *)
  latency_s : float;  (** per-request latency target *)
  goal : float;  (** fraction that must succeed within the target *)
}

type config = {
  fast_window_s : float;
  slow_window_s : float;
  burn_threshold : float;  (** alert when both windows burn at >= this *)
}

val default_config : config
(** fast 300 s, slow 3600 s, threshold 1.0. *)

val default_objectives : objective list
(** reads: 90% under 2 s; writes: 90% under 10 s. *)

type alert = { a_op : string; at : float; fast_burn : float; slow_burn : float }

type t

val create :
  ?config:config ->
  ?metrics:Metrics.t ->
  ?on_alert:(alert -> unit) ->
  now:(unit -> float) ->
  objective list ->
  t
(** With [metrics], maintains [slo.<op>.burn_fast]/[.burn_slow]/
    [.breached] gauges and [slo.<op>.alerts]/[.bad] counters. *)

val objectives : t -> objective list

val record : t -> op:string -> latency_s:float -> ok:bool -> bool
(** Classify one resolved request and count it in both windows; returns
    whether it was bad: it failed or exceeded the objective's latency
    target.  An unknown op is not counted and is bad only when it
    failed.  Observations sharing a timestamp share one bucket, so a
    window's memory is bounded by its distinct timestamps and the call
    costs O(1) amortised. *)

val observe : t -> op:string -> latency_s:float -> ok:bool -> unit
(** [record] without the verdict. *)

val evaluate : t -> alert list
(** Expire both windows of every objective, update the gauges, and
    return the alerts that fired on this evaluation (rising edge only).
    An observation counts in a window while [at >= now - window].  An
    alert fires when the burn rate is [>= burn_threshold] on both
    windows, and clears when either window drops below it. *)

val breached : t -> bool
(** True while any objective's alert is active (as of last [evaluate]). *)

val breached_ops : t -> string list

val burn : t -> op:string -> (float * float) option
(** Current (fast, slow) burn rates for an op. *)

val describe_alert : alert -> string
val render : t -> string
