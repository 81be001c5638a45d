(* Bench-trajectory regression gate.

   Compares freshly generated smoke-mode BENCH_*.json files against the
   checked-in baselines under bench/baselines/, key by key:

   - booleans and strings must match exactly (shape flags, modes,
     verified_equal, decode_ok — the qualitative results of each study);
   - numbers must sit within a 10% relative band of the baseline, which
     keeps deterministic counts (commits, spans, journal records, alert
     counts) honest while leaving slack for representation drift;
   - wall-clock-derived values (keys ending in _s/_pct, speedups,
     throughputs) are reported but never gated — timing on a shared CI
     runner is not reproducible, counts are;
   - a key present in the baseline but missing from the fresh run is a
     regression (schema loss); new keys in the fresh run are fine.

   Usage: check_regress BASELINE FRESH [BASELINE FRESH ...]
   Exits non-zero if any gated key regressed, so the CI workflow fails. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let lit l v =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l then (
      pos := !pos + String.length l;
      v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* Comparison only needs a stable rendering, not a decode. *)
              Buffer.add_string b "\\u";
              for _ = 1 to 4 do
                advance ();
                Buffer.add_char b (peek ())
              done
          | c -> Buffer.add_char b c);
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let isnum c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && isnum s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          Obj [])
        else
          let rec fields acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                skip_ws ();
                fields ((k, v) :: acc)
            | '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          Arr [])
        else
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
    | '"' -> Str (string_lit ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (number ())
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* -- comparison policy ------------------------------------------------------ *)

let contains hay sub =
  let n = String.length sub and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let ungated key =
  Filename.check_suffix key "_s"
  || Filename.check_suffix key "_pct"
  || key = "pct" || contains key "speedup" || contains key "per_s"

let problems = ref []
let flag path msg = problems := Printf.sprintf "  %s: %s" path msg :: !problems

let last_segment path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let rec compare_json path base fresh =
  match (base, fresh) with
  | Obj bs, Obj fs ->
      List.iter
        (fun (k, bv) ->
          let p = path ^ "." ^ k in
          match List.assoc_opt k fs with
          | None -> flag p "key missing from the fresh run"
          | Some fv -> compare_json p bv fv)
        bs
  | Arr bs, Arr fs ->
      if List.length bs <> List.length fs then
        flag path
          (Printf.sprintf "array length %d -> %d" (List.length bs) (List.length fs))
      else
        List.iteri
          (fun i bv -> compare_json (Printf.sprintf "%s[%d]" path i) bv (List.nth fs i))
          bs
  | Bool a, Bool b -> if a <> b then flag path (Printf.sprintf "%b -> %b" a b)
  | Str a, Str b -> if a <> b then flag path (Printf.sprintf "%S -> %S" a b)
  | Num a, Num b ->
      if not (ungated (last_segment path)) then
        if Float.abs (a -. b) > (0.10 *. Float.abs a) +. 1e-9 then
          flag path (Printf.sprintf "%.6g -> %.6g (beyond the 10%% band)" a b)
  | Null, Null -> ()
  | _ -> flag path "value kind changed"

let read_file p =
  let ic = open_in_bin p in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let () =
  let rec pairs = function
    | [] -> []
    | b :: f :: rest -> (b, f) :: pairs rest
    | [ _ ] ->
        prerr_endline "usage: check_regress BASELINE FRESH [BASELINE FRESH ...]";
        exit 2
  in
  let files = pairs (List.tl (Array.to_list Sys.argv)) in
  if files = [] then (
    prerr_endline "usage: check_regress BASELINE FRESH [BASELINE FRESH ...]";
    exit 2);
  let failed = ref false in
  List.iter
    (fun (bp, fp) ->
      problems := [];
      (match (parse (read_file bp), parse (read_file fp)) with
      | b, f -> compare_json (Filename.basename fp) b f
      | exception Sys_error e -> flag fp ("unreadable: " ^ e)
      | exception Parse e -> flag fp ("unparsable: " ^ e));
      match List.rev !problems with
      | [] -> Printf.printf "ok       %s\n" (Filename.basename fp)
      | ps ->
          failed := true;
          Printf.printf "REGRESS  %s\n" (Filename.basename fp);
          List.iter print_endline ps)
    files;
  if !failed then (
    prerr_endline "bench trajectory regressed against bench/baselines";
    exit 1)
