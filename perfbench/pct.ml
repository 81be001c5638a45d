(* Percentiles that refuse to overstate what a sample supports.

   A percentile is reported only when at least ten samples lie beyond it:
   with fewer, the "p99" of a run is really its maximum, and the next run's
   maximum says nothing about it.  Nearest-rank definition: the p-quantile
   of n sorted samples is the [ceil (p n)]-th smallest. *)

let min_beyond = 10

type estimate = {
  p : float;  (** The quantile, in (0, 1). *)
  value : float;
  n : int;  (** Sample count. *)
  beyond : int;  (** Samples strictly past the quantile's rank. *)
}

(* 1-based nearest rank; the epsilon keeps 0.99 *. 1000. from rounding up
   to 991. *)
let rank n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let beyond n p = n - rank n p

let supports n p = n > 0 && beyond n p >= min_beyond

let of_sorted sorted p =
  let n = Array.length sorted in
  if not (supports n p) then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" (p *. 100.) min_beyond n
         (max 0 (beyond n p)))
  else Ok { p; value = sorted.(rank n p - 1); n; beyond = beyond n p }

let sorted samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

let quantile samples p = of_sorted (sorted samples) p

let ladder = [ 0.9999; 0.999; 0.99; 0.9; 0.75; 0.5 ]

(* The highest ladder percentile the sample supports, or [None] when it
   cannot even support a median. *)
let highest samples =
  let s = sorted samples in
  List.find_map (fun p -> Result.to_option (of_sorted s p)) ladder

let label e = Printf.sprintf "p%g" (e.p *. 100.)
