(* SLO monitor: declarative per-op latency/error objectives evaluated
   with multi-window burn rates on the virtual clock.

   An objective says "fraction [goal] of [op] requests must succeed
   within [latency_s]".  Every resolved request is classified good or
   bad; the burn rate over a window is

     bad_fraction(window) / (1 - goal)

   i.e. 1.0 means the error budget is being consumed exactly as fast as
   it accrues.  Following the standard multi-window discipline, an alert
   fires only when the burn rate reaches the threshold on BOTH a fast
   window (responsive, 5-minute-equivalent) and a slow window (resistant
   to blips, 1-hour-equivalent) — [>=] on both, so the exact boundary
   fires.  The alert clears as soon as either window drops back below
   the threshold.

   Gauges [slo.<op>.burn_fast]/[.burn_slow]/[.breached] and the counter
   [slo.<op>.alerts] expose the state; the serving layer additionally
   folds [breached] into its degraded causes as cause "slo". *)

type objective = { op : string; latency_s : float; goal : float }

type config = {
  fast_window_s : float;
  slow_window_s : float;
  burn_threshold : float;
}

let default_config =
  { fast_window_s = 300.0; slow_window_s = 3600.0; burn_threshold = 1.0 }

let default_objectives =
  [
    { op = "read"; latency_s = 2.0; goal = 0.9 };
    { op = "write"; latency_s = 10.0; goal = 0.9 };
  ]

type alert = { a_op : string; at : float; fast_burn : float; slow_burn : float }

(* One window's observations, grouped by timestamp: a read wave or a batch
   of acks resolves at one virtual instant, so it lands in one bucket.
   Buckets sit oldest first in the FIFO; [total]/[bad] are the running
   counts over every bucket still queued, so reading the window is O(1)
   and expiring it pops from the old end — O(1) amortised per bucket. *)
type bucket = { b_at : float; mutable b_total : int; mutable b_bad : int }

type window = {
  span_s : float;
  buckets : bucket Queue.t;
  mutable newest : bucket option;  (** The last bucket pushed, while queued. *)
  mutable total : int;
  mutable bad : int;
}

type tracked = {
  obj : objective;
  fast : window;
  slow : window;
  mutable active : bool;
  g_fast : Metrics.gauge option;
  g_slow : Metrics.gauge option;
  g_breached : Metrics.gauge option;
  c_alerts : Metrics.counter option;
  c_bad : Metrics.counter option;
}

type t = {
  config : config;
  now : unit -> float;
  tracked : tracked list;
  on_alert : (alert -> unit) option;
}

let window span_s = { span_s; buckets = Queue.create (); newest = None; total = 0; bad = 0 }

let create ?(config = default_config) ?metrics ?on_alert ~now objectives =
  let track obj =
    let inst make name = Option.map (fun m -> make m name) metrics in
    {
      obj;
      fast = window config.fast_window_s;
      slow = window config.slow_window_s;
      active = false;
      g_fast = inst Metrics.gauge (Printf.sprintf "slo.%s.burn_fast" obj.op);
      g_slow = inst Metrics.gauge (Printf.sprintf "slo.%s.burn_slow" obj.op);
      g_breached = inst Metrics.gauge (Printf.sprintf "slo.%s.breached" obj.op);
      c_alerts = inst Metrics.counter (Printf.sprintf "slo.%s.alerts" obj.op);
      c_bad = inst Metrics.counter (Printf.sprintf "slo.%s.bad" obj.op);
    }
  in
  { config; now; tracked = List.map track objectives; on_alert }

let objectives t = List.map (fun tr -> tr.obj) t.tracked

let rec find op = function
  | [] -> None
  | tr :: rest -> if tr.obj.op = op then Some tr else find op rest

(* An observation counts while [at >= now - span]: pop older buckets. *)
let expire w ~now =
  let horizon = now -. w.span_s in
  while (not (Queue.is_empty w.buckets)) && (Queue.peek w.buckets).b_at < horizon do
    let b = Queue.pop w.buckets in
    w.total <- w.total - b.b_total;
    w.bad <- w.bad - b.b_bad
  done;
  if Queue.is_empty w.buckets then w.newest <- None

let add w ~now ~bad =
  (match w.newest with
  | Some b when b.b_at = now ->
      b.b_total <- b.b_total + 1;
      if bad then b.b_bad <- b.b_bad + 1
  | Some _ | None ->
      let b = { b_at = now; b_total = 1; b_bad = (if bad then 1 else 0) } in
      Queue.push b w.buckets;
      w.newest <- Some b);
  w.total <- w.total + 1;
  if bad then w.bad <- w.bad + 1;
  expire w ~now

let record t ~op ~latency_s ~ok =
  match find op t.tracked with
  | None -> not ok
  | Some tr ->
      let bad = (not ok) || latency_s > tr.obj.latency_s in
      let now = t.now () in
      add tr.fast ~now ~bad;
      add tr.slow ~now ~bad;
      if bad then Option.iter (fun c -> Metrics.incr c) tr.c_bad;
      bad

let observe t ~op ~latency_s ~ok = ignore (record t ~op ~latency_s ~ok)

let burn_of tr w ~now =
  expire w ~now;
  if w.total = 0 then 0.0
  else
    let budget = 1.0 -. tr.obj.goal in
    if budget <= 0.0 then if w.bad > 0 then infinity else 0.0
    else float_of_int w.bad /. float_of_int w.total /. budget

let burns t tr =
  let now = t.now () in
  (burn_of tr tr.fast ~now, burn_of tr tr.slow ~now)

let burn t ~op = Option.map (burns t) (find op t.tracked)

let evaluate t =
  let fired = ref [] in
  List.iter
    (fun tr ->
      let fast, slow = burns t tr in
      let breached = fast >= t.config.burn_threshold && slow >= t.config.burn_threshold in
      Option.iter (fun g -> Metrics.set g fast) tr.g_fast;
      Option.iter (fun g -> Metrics.set g slow) tr.g_slow;
      Option.iter (fun g -> Metrics.set g (if breached then 1.0 else 0.0)) tr.g_breached;
      if breached && not tr.active then (
        let a = { a_op = tr.obj.op; at = t.now (); fast_burn = fast; slow_burn = slow } in
        Option.iter (fun c -> Metrics.incr c) tr.c_alerts;
        Option.iter (fun f -> f a) t.on_alert;
        fired := a :: !fired);
      tr.active <- breached)
    t.tracked;
  List.rev !fired

let breached t = List.exists (fun tr -> tr.active) t.tracked

let breached_ops t =
  List.filter_map (fun tr -> if tr.active then Some tr.obj.op else None) t.tracked

let describe_alert a =
  Printf.sprintf "op=%s fast-burn=%.2f slow-burn=%.2f" a.a_op a.fast_burn a.slow_burn

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "windows: fast=%.0fs slow=%.0fs threshold=%.2f\n"
       t.config.fast_window_s t.config.slow_window_s t.config.burn_threshold);
  List.iter
    (fun tr ->
      let fast, slow = burns t tr in
      Buffer.add_string b
        (Printf.sprintf "%-8s target=%.2fs goal=%.2f  burn fast=%.2f slow=%.2f  %s\n"
           tr.obj.op tr.obj.latency_s tr.obj.goal fast slow
           (if tr.active then "ALERT" else "ok")))
    t.tracked;
  Buffer.contents b
