(* Monotonic wall clock with nanosecond resolution (CLOCK_MONOTONIC through
   bechamel's stub).  Every benchmark timing goes through here: never
   gettimeofday, whose microsecond tick is coarser than the calls measured. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let since t0 = now () -. t0

(* Run [f] and return its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)
