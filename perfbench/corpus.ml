(* Synthetic document bodies with controlled query-word match rates.

   Filler words come from a fixed syllable vocabulary drawn Zipf-style, so
   postings have a realistic skew.  Query ("marker") words start with an
   [x], which the filler vocabulary never produces, and each is planted in a
   document independently with its configured probability — that is what
   fixes a query's selectivity.  Two-word phrases are planted as adjacent
   tokens on top of the single-word rates, so a phrase query always has
   candidates that fail verification. *)

let syllables =
  [| "ba"; "co"; "di"; "fe"; "ga"; "hu"; "ki"; "lo"; "ma"; "ne"; "po"; "ru"; "sa"; "te"; "vi"; "wo" |]

(* 16^2 + 16^3 words, every one unique and free of [x]. *)
let vocab =
  let two = Array.init 256 (fun i -> syllables.(i / 16) ^ syllables.(i mod 16)) in
  let three =
    Array.init 4096 (fun i -> syllables.(i / 256) ^ syllables.(i / 16 mod 16) ^ syllables.(i mod 16))
  in
  Array.append two three

let vocab_cdf = Rng.zipf ~n:(Array.length vocab) ~s:1.0

type marker = { word : string; rate : float }

type spec = {
  markers : marker list;
  phrases : (string list * float) list;
  min_words : int;
  max_words : int;
}

(* Filler plus planted markers, shuffled into place; lines of 12 words. *)
let body spec rng =
  let n = spec.min_words + Rng.int rng (spec.max_words - spec.min_words + 1) in
  let words = Array.init n (fun _ -> vocab.(Rng.draw rng vocab_cdf)) in
  let plant w = words.(Rng.int rng n) <- w in
  List.iter (fun m -> if Rng.chance rng m.rate then plant m.word) spec.markers;
  List.iter
    (fun (ws, rate) ->
      if Rng.chance rng rate then begin
        let k = List.length ws in
        let at = Rng.int rng (n - k + 1) in
        List.iteri (fun j w -> words.(at + j) <- w) ws
      end)
    spec.phrases;
  let b = Buffer.create (n * 8) in
  Array.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b (if i mod 12 = 0 then '\n' else ' ');
      Buffer.add_string b w)
    words;
  Buffer.add_char b '\n';
  Buffer.contents b

(* The tokenizer rule the index uses — maximal runs of [A-Za-z0-9_], folded
   to lowercase, at least two characters, truncated to 32 — so the
   benchmark's reference scans see exactly the tokens the index does. *)
let tokens text =
  let out = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf >= 2 then out := Buffer.contents buf :: !out;
    Buffer.clear buf
  in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' -> if Buffer.length buf < 32 then Buffer.add_char buf c
      | 'A' .. 'Z' ->
          if Buffer.length buf < 32 then Buffer.add_char buf (Char.lowercase_ascii c)
      | _ -> flush ())
    text;
  flush ();
  Array.of_list (List.rev !out)
