let max_pattern_len = Sys.int_size - 1

let check_pattern p =
  if String.length p > max_pattern_len then
    invalid_arg "Agrep: pattern longer than a machine word"

(* Character-class bitmasks: [masks.(c)] has bit [i] set when [pattern.[i] = c]. *)
let build_masks pattern =
  let masks = Array.make 256 0 in
  String.iteri (fun i c -> masks.(Char.code c) <- masks.(Char.code c) lor (1 lsl i)) pattern;
  masks

let find_exact ~pattern text =
  check_pattern pattern;
  let m = String.length pattern in
  if m = 0 then Some 0
  else begin
    let masks = build_masks pattern in
    let accept = 1 lsl (m - 1) in
    let n = String.length text in
    let rec go i r =
      if i >= n then None
      else
        let r = ((r lsl 1) lor 1) land masks.(Char.code text.[i]) in
        if r land accept <> 0 then Some (i - m + 1) else go (i + 1) r
    in
    go 0 0
  end

(* A pattern compiled once for many texts: its masks carry each letter's
   bit under both ASCII cases, so the scan ignores case.  Longer patterns
   keep their first [max_pattern_len] bytes — every text holding the whole
   pattern holds that prefix, so [occurs] stays a sound filter. *)
type exact = { ci_masks : int array; ci_accept : int }

let exact_ci pattern =
  let pattern =
    if String.length pattern > max_pattern_len then String.sub pattern 0 max_pattern_len
    else pattern
  in
  let masks = Array.make 256 0 in
  String.iteri
    (fun i c ->
      List.iter
        (fun c -> masks.(Char.code c) <- masks.(Char.code c) lor (1 lsl i))
        [ Char.lowercase_ascii c; Char.uppercase_ascii c ])
    pattern;
  { ci_masks = masks; ci_accept = (if pattern = "" then 0 else 1 lsl (String.length pattern - 1)) }

let occurs p text =
  if p.ci_accept = 0 then true
  else begin
    let masks = p.ci_masks and accept = p.ci_accept in
    let n = String.length text in
    let rec go i r =
      i < n
      &&
      let byte = Char.code (String.unsafe_get text i) in
      let r = ((r lsl 1) lor 1) land Array.unsafe_get masks byte in
      r land accept <> 0 || go (i + 1) r
    in
    go 0 0
  end

let count_exact ~pattern text =
  check_pattern pattern;
  let m = String.length pattern in
  if m = 0 then 0
  else begin
    let masks = build_masks pattern in
    let accept = 1 lsl (m - 1) in
    let n = String.length text in
    let count = ref 0 in
    let r = ref 0 in
    for i = 0 to n - 1 do
      r := ((!r lsl 1) lor 1) land masks.(Char.code text.[i]);
      if !r land accept <> 0 then incr count
    done;
    !count
  end

(* Wu–Manber: one bit row per error budget.  Row k matches with <= k
   errors.  Update order matters: use the previous iteration's row k-1 for
   deletion/substitution and the current one for insertion. *)
let find_approx ~pattern ~errors text =
  check_pattern pattern;
  if errors < 0 then invalid_arg "Agrep.find_approx: negative errors";
  let m = String.length pattern in
  if m = 0 then Some 0
  else begin
    let k = min errors m in
    let masks = build_masks pattern in
    let accept = 1 lsl (m - 1) in
    let rows = Array.make (k + 1) 0 in
    (* Row j starts pre-filled with j leading matches allowed via deletions. *)
    for j = 1 to k do
      rows.(j) <- (rows.(j - 1) lsl 1) lor 1
    done;
    if k >= m then Some 0
    else begin
      let n = String.length text in
      let rec go i =
        if i >= n then None
        else begin
          let c = masks.(Char.code text.[i]) in
          let old0 = rows.(0) in
          rows.(0) <- ((old0 lsl 1) lor 1) land c;
          let prev_old = ref old0 in
          for j = 1 to k do
            let oldj = rows.(j) in
            let matched = ((oldj lsl 1) lor 1) land c in
            let substituted = !prev_old lsl 1 in
            let deleted = rows.(j - 1) lsl 1 in
            let inserted = !prev_old in
            rows.(j) <- matched lor substituted lor deleted lor inserted lor 1;
            prev_old := oldj
          done;
          if rows.(k) land accept <> 0 then Some (i + 1) else go (i + 1)
        end
      in
      go 0
    end
  end

let matches_approx ~pattern ~errors text =
  find_approx ~pattern ~errors text <> None

(* Monomorphic: [Stdlib.min] on ints goes through polymorphic compare,
   three calls per cell of the table below. *)
let imin (a : int) b = if a < b then a else b

let edit_distance ?cutoff a b =
  let la = String.length a and lb = String.length b in
  let big = la + lb + 1 in
  let bound = match cutoff with Some c -> c | None -> big in
  if abs (la - lb) > bound then bound + 1
  else begin
    (* One-row dynamic program; [row.(j)] is the distance between a-prefix of
       the current length and the b-prefix of length j. *)
    let row = Array.init (lb + 1) (fun j -> j) in
    let exceeded = ref (la = 0 && lb > bound) in
    for i = 1 to la do
      let diag = ref row.(0) in
      row.(0) <- i;
      let row_min = ref row.(0) in
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        let v = imin (imin (row.(j) + 1) (row.(j - 1) + 1)) (!diag + cost) in
        diag := row.(j);
        row.(j) <- v;
        if v < !row_min then row_min := v
      done;
      if !row_min > bound then exceeded := true
    done;
    if !exceeded && row.(lb) > bound then bound + 1 else row.(lb)
  end

let word_matches ~pattern ~errors w =
  edit_distance ~cutoff:errors pattern w <= errors
