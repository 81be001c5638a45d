(* SplitMix64: a small, fast, seedable generator.  Every input the benchmark
   feeds the program derives from one of these, so a seed fixes the corpus,
   the semantic-directory words and the op stream bit for bit. *)

type t = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = { s = mix (Int64.of_int seed) }

let next t =
  t.s <- Int64.add t.s golden;
  mix t.s

(* An independent stream keyed by [label], so adding draws to one stream
   never shifts another. *)
let derive t label = { s = mix (Int64.logxor (next t) (Int64.of_int (Hashtbl.hash label))) }

let int t bound =
  assert (bound > 0);
  Int64.to_int (Int64.unsigned_rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let chance t p = float t < p

let pick t a = a.(int t (Array.length a))

(* Zipf(s) over ranks [0, n): precomputed CDF, binary search per draw. *)
type zipf = float array

let zipf ~n ~s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw t (cdf : zipf) =
  let u = float t in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
