(* The benchmark's own spans: wall-clock intervals around calls into the
   program's public functions, kept in memory and summed per name.

   A row may stand for a burst of tiny calls timed as one interval
   ([~calls]), which keeps every measured interval far above the clock's
   resolution while still reporting a per-call cost.  Self times (a span
   minus its children) are worked out where the children are known, from
   these totals and the program's own span histograms. *)

type row = { mutable total : float; mutable calls : int }

type t = { rows : (string, row) Hashtbl.t; mutable on : bool }

let create () = { rows = Hashtbl.create 32; on = false }

let set_enabled t b = t.on <- b

let record t name calls d =
  match Hashtbl.find_opt t.rows name with
  | Some r ->
      r.total <- r.total +. d;
      r.calls <- r.calls + calls
  | None -> Hashtbl.add t.rows name { total = d; calls }

let span t name ?(calls = 1) f =
  if not t.on then f ()
  else begin
    let t0 = Mclock.now () in
    match f () with
    | v ->
        record t name calls (Mclock.since t0);
        v
    | exception e ->
        record t name calls (Mclock.since t0);
        raise e
  end

let total t name = match Hashtbl.find_opt t.rows name with Some r -> r.total | None -> 0.0

let calls t name = match Hashtbl.find_opt t.rows name with Some r -> r.calls | None -> 0
