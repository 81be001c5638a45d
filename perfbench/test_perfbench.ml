(* Unit tests for the benchmark's own machinery: the op generator's
   determinism and steady state, and the percentile helper's refusal to
   report tails the sample cannot support. *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let cfg =
  {
    Gen.read_share = 0.5;
    file_share = 0.6;
    readdir_share = 0.2;
    files = Array.init 50 (Printf.sprintf "/corpus/f%02d.txt");
    zipf_s = 1.0;
    dirs = [| "/corpus" |];
    semdirs = [| "/corpus/s1"; "/corpus/s2" |];
    churn_dir = "/churn";
    slots = 64;
    live_target = 20;
    append_share = 0.2;
    body = (fun r -> Printf.sprintf "body %d" (Rng.int r 1000));
    append_body = (fun r -> Printf.sprintf "more %d" (Rng.int r 1000));
  }

let stream seed n =
  let g = Gen.create cfg ~seed in
  let init = Gen.initial_files g in
  (init, List.init n (fun _ -> Gen.describe (Gen.next g)))

let test_determinism () =
  check "same seed, same initial files and stream" (stream 7 2000 = stream 7 2000);
  check "different seed, different stream" (snd (stream 7 2000) <> snd (stream 8 2000))

(* Replay a long stream against a model file system: the live count stays
   within one of its target, no op targets a missing file or a live slot
   twice, reads never touch churn paths, and no op creates or removes a
   semantic directory. *)
let test_stationary () =
  let g = Gen.create cfg ~seed:11 in
  let live = Hashtbl.create 64 in
  List.iter (fun (p, _) -> Hashtbl.replace live p ()) (Gen.initial_files g);
  let ok = ref true and lo = ref max_int and hi = ref 0 and writes = ref 0 in
  for _ = 1 to 200_000 do
    (match Gen.next g with
    | Gen.Create (p, _) ->
        incr writes;
        if Hashtbl.mem live p then ok := false;
        Hashtbl.replace live p ()
    | Gen.Append (p, _) ->
        incr writes;
        if not (Hashtbl.mem live p) then ok := false
    | Gen.Unlink p ->
        incr writes;
        if not (Hashtbl.mem live p) then ok := false;
        Hashtbl.remove live p
    | Gen.Read p | Gen.Readdir p | Gen.Links p ->
        if String.starts_with ~prefix:cfg.churn_dir p then ok := false);
    let n = Hashtbl.length live in
    lo := min !lo n;
    hi := max !hi n;
    if n <> Gen.live_count g then ok := false
  done;
  check "every write targets a file in the right state" !ok;
  check
    (Printf.sprintf "live count flat: [%d, %d] around %d" !lo !hi cfg.live_target)
    (!lo >= cfg.live_target - 1 && !hi <= cfg.live_target + 1);
  check "write share close to configured"
    (abs_float ((float_of_int !writes /. 200_000.) -. (1.0 -. cfg.read_share)) < 0.01)

let test_percentiles () =
  let s = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  (match Pct.quantile s 0.5 with
  | Ok e -> check "median of 1..1000 is 500" (e.value = 500.0 && e.n = 1000 && e.beyond = 500)
  | Error _ -> check "median of 1..1000 supported" false);
  (match Pct.quantile s 0.99 with
  | Ok e -> check "p99 of 1..1000 is 990 with 10 beyond" (e.value = 990.0 && e.beyond = 10)
  | Error _ -> check "p99 of 1000 samples supported" false);
  check "p99.9 of 1000 samples refused" (Result.is_error (Pct.quantile s 0.999));
  check "p99 of 999 samples refused" (Result.is_error (Pct.quantile (Array.sub s 0 999) 0.99));
  check "p90 of 100 samples supported" (Result.is_ok (Pct.quantile (Array.sub s 0 100) 0.9));
  check "p90 of 99 samples refused" (Result.is_error (Pct.quantile (Array.sub s 0 99) 0.9));
  check "median of 19 samples refused" (Result.is_error (Pct.quantile (Array.sub s 0 19) 0.5));
  (match Pct.highest s with
  | Some e -> check "highest supported of 1000 is p99" (e.p = 0.99 && e.n = 1000)
  | None -> check "highest of 1000 exists" false);
  (match Pct.highest (Array.sub s 0 150) with
  | Some e -> check "highest supported of 150 is p90" (e.p = 0.9 && e.n = 150)
  | None -> check "highest of 150 exists" false);
  check "nothing supported for 5 samples" (Pct.highest (Array.sub s 0 5) = None);
  let shuffled = Array.init 1000 (fun i -> float_of_int ((i * 7919) mod 1000) +. 1.0) in
  check "order of samples does not matter" (Pct.quantile shuffled 0.99 = Pct.quantile s 0.99)

let test_corpus () =
  let spec =
    {
      Corpus.markers = [ { word = "xmark"; rate = 0.25 } ];
      phrases = [ ([ "xa"; "xb" ], 0.1) ];
      min_words = 20;
      max_words = 40;
    }
  in
  let r = Rng.make 3 in
  let bodies = List.init 4000 (fun _ -> Corpus.body spec r) in
  let with_marker =
    List.length (List.filter (fun b -> Array.mem "xmark" (Corpus.tokens b)) bodies)
  in
  check "marker rate close to configured" (abs (with_marker - 1000) < 120);
  check "tokenizer folds case and drops short runs"
    (Corpus.tokens "Ab c DEF_9 x-yz" = [| "ab"; "def_9"; "yz" |])

let () =
  test_determinism ();
  test_stationary ();
  test_percentiles ();
  test_corpus ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
