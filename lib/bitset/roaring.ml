(* Roaring-style compressed integer sets.

   The universe is split into 2^16-element chunks keyed by the high bits of
   the value; each populated chunk stores its low 16 bits in whichever of
   three container shapes is smallest:

     Arr  — sorted array of values          (n words)        small sets
     Bmp  — 65536-bit bitmap                (1041 words)     dense sets
     Run  — sorted (start, last) intervals  (2k words)       clustered sets

   The choice is canonical: it depends only on the chunk's cardinality and
   run count, so two equal sets always have identical representations and
   structural comparison of containers is valid set equality.  All values
   are immutable; mutation lives in {!builder}, which accumulates chunk
   bitmaps destructively and snapshots into the immutable form on demand. *)

let bpw = Sys.int_size
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let low_mask = chunk_size - 1
let bmp_words = (chunk_size + bpw - 1) / bpw
let arr_max = 4096

type container =
  | Arr of int array
  | Bmp of { w : int array; n : int }
  | Run of { r : int array; n : int }  (* flattened (start, last) pairs, inclusive *)

type t = { keys : int array; cs : container array }

let empty = { keys = [||]; cs = [||] }

let c_card = function Arr a -> Array.length a | Bmp b -> b.n | Run r -> r.n

(* -- word helpers ---------------------------------------------------------- *)

let popcount =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  fun x -> go 0 x

(* All-ones mask of the given width (width <= bpw); width = bpw yields every
   usable bit set, which is what [-1] is on a native int. *)
let mask_of_width width = if width >= bpw then -1 else (1 lsl width) - 1

(* Mask selecting bits [lo..hi] (inclusive) of one word. *)
let word_mask lo hi = mask_of_width (hi - lo + 1) lsl lo

(* -- run counting (canonicalization input) --------------------------------- *)

let runs_of_sorted_array a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) + 1 then incr k
    done;
    !k
  end

let runs_of_words w =
  (* A run starts at every set bit whose predecessor bit is clear; the
     predecessor of bit 0 is the previous word's top bit. *)
  let k = ref 0 in
  let carry = ref 0 in
  for i = 0 to Array.length w - 1 do
    let x = w.(i) in
    k := !k + popcount (x land lnot ((x lsl 1) lor !carry));
    carry := (x lsr (bpw - 1)) land 1
  done;
  !k

(* -- conversions between shapes -------------------------------------------- *)

let iter_words_bits f w =
  for i = 0 to Array.length w - 1 do
    let x = w.(i) in
    if x <> 0 then begin
      let base = i * bpw in
      let x = ref x in
      while !x <> 0 do
        let b = !x land - !x in
        let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
        f (base + log2 b 0);
        x := !x land (!x - 1)
      done
    end
  done

let arr_of_words w n =
  let a = Array.make n 0 in
  let out = ref 0 in
  iter_words_bits
    (fun v ->
      a.(!out) <- v;
      incr out)
    w;
  a

let arr_of_runs r n =
  let a = Array.make n 0 in
  let out = ref 0 in
  let len = Array.length r in
  let i = ref 0 in
  while !i < len do
    for v = r.(!i) to r.(!i + 1) do
      a.(!out) <- v;
      incr out
    done;
    i := !i + 2
  done;
  a

let set_range w lo hi =
  let w0 = lo / bpw and w1 = hi / bpw in
  if w0 = w1 then w.(w0) <- w.(w0) lor word_mask (lo mod bpw) (hi mod bpw)
  else begin
    w.(w0) <- w.(w0) lor word_mask (lo mod bpw) (bpw - 1);
    for i = w0 + 1 to w1 - 1 do
      w.(i) <- -1
    done;
    w.(w1) <- w.(w1) lor word_mask 0 (hi mod bpw)
  end

let words_of_container = function
  | Bmp b -> Array.copy b.w
  | Arr a ->
      let w = Array.make bmp_words 0 in
      Array.iter (fun v -> w.(v / bpw) <- w.(v / bpw) lor (1 lsl (v mod bpw))) a;
      w
  | Run r ->
      let w = Array.make bmp_words 0 in
      let i = ref 0 in
      while !i < Array.length r.r do
        set_range w r.r.(!i) r.r.(!i + 1);
        i := !i + 2
      done;
      w

let runs_of_sorted_array_pairs a k =
  let r = Array.make (2 * k) 0 in
  let out = ref 0 in
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    let start = a.(!i) in
    let j = ref !i in
    while !j + 1 < n && a.(!j + 1) = a.(!j) + 1 do
      incr j
    done;
    r.(!out) <- start;
    r.(!out + 1) <- a.(!j);
    out := !out + 2;
    i := !j + 1
  done;
  r

let runs_of_words_pairs w k n =
  ignore n;
  let r = Array.make (2 * k) 0 in
  let out = ref 0 in
  let in_run = ref false in
  let total = Array.length w * bpw in
  let word_at i = w.(i) in
  let bit v = word_at (v / bpw) land (1 lsl (v mod bpw)) <> 0 in
  (* Straightforward bit scan: only taken when the run shape wins, i.e. the
     chunk is heavily clustered, so the scan is dominated by long runs that
     are skipped wordwise below. *)
  let v = ref 0 in
  while !v < total do
    if (not !in_run) && word_at (!v / bpw) = 0 && !v mod bpw = 0 then v := !v + bpw
    else begin
      if bit !v then begin
        if not !in_run then begin
          r.(!out) <- !v;
          in_run := true
        end
      end
      else if !in_run then begin
        r.(!out + 1) <- !v - 1;
        out := !out + 2;
        in_run := false
      end;
      incr v
    end
  done;
  if !in_run then begin
    r.(!out + 1) <- total - 1;
    out := !out + 2
  end;
  r

(* -- canonical packing ------------------------------------------------------

   Decision function of (cardinality n, run count k) only:
     - Run when it strictly beats the array shape (2k + 2 < n) and fits
       under the bitmap shape (2k < bmp_words);
     - otherwise Arr when n <= arr_max;
     - otherwise Bmp. *)

let run_wins n k = (2 * k) + 2 < n && 2 * k < bmp_words

let pack_sorted_array a =
  let n = Array.length a in
  let k = runs_of_sorted_array a in
  if run_wins n k then Run { r = runs_of_sorted_array_pairs a k; n }
  else if n <= arr_max then Arr a
  else Bmp { w = words_of_container (Arr a); n }

let pack_words w =
  let n = Array.fold_left (fun acc x -> acc + popcount x) 0 w in
  if n = 0 then None
  else begin
    let k = runs_of_words w in
    if run_wins n k then Some (Run { r = runs_of_words_pairs w k n; n })
    else if n <= arr_max then Some (Arr (arr_of_words w n))
    else Some (Bmp { w; n })
  end

let pack_runs r =
  let n =
    let acc = ref 0 in
    let i = ref 0 in
    while !i < Array.length r do
      acc := !acc + r.(!i + 1) - r.(!i) + 1;
      i := !i + 2
    done;
    !acc
  in
  let k = Array.length r / 2 in
  if n = 0 then None
  else if run_wins n k then Some (Run { r; n })
  else if n <= arr_max then Some (Arr (arr_of_runs r n))
  else Some (Bmp { w = words_of_container (Run { r; n }); n })

(* -- container membership --------------------------------------------------- *)

let arr_mem a v =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true else if a.(mid) < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let run_mem r v =
  (* Binary search over run starts: find the last run starting at or before v. *)
  let k = Array.length r / 2 in
  let rec go lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if r.(2 * mid) <= v then go (mid + 1) hi else go lo mid
  in
  let i = go 0 k in
  i >= 0 && v <= r.((2 * i) + 1)

let c_mem c v =
  match c with
  | Arr a -> arr_mem a v
  | Bmp b -> b.w.(v / bpw) land (1 lsl (v mod bpw)) <> 0
  | Run r -> run_mem r.r v

(* -- container iteration ---------------------------------------------------- *)

let c_iter f = function
  | Arr a -> Array.iter f a
  | Bmp b -> iter_words_bits f b.w
  | Run r ->
      let i = ref 0 in
      while !i < Array.length r.r do
        for v = r.r.(!i) to r.r.(!i + 1) do
          f v
        done;
        i := !i + 2
      done

let c_max = function
  | Arr a -> a.(Array.length a - 1)
  | Run r -> r.r.(Array.length r.r - 1)
  | Bmp b ->
      let rec hunt i =
        if b.w.(i) = 0 then hunt (i - 1)
        else begin
          let x = b.w.(i) in
          let rec top x acc = if x = 0 then acc - 1 else top (x lsr 1) (acc + 1) in
          (i * bpw) + top x 0
        end
      in
      hunt (Array.length b.w - 1)

let c_min = function
  | Arr a -> a.(0)
  | Run r -> r.r.(0)
  | Bmp b ->
      let rec hunt i =
        if b.w.(i) = 0 then hunt (i + 1)
        else begin
          let x = b.w.(i) in
          let rec low bit = if x land (1 lsl bit) <> 0 then bit else low (bit + 1) in
          (i * bpw) + low 0
        end
      in
      hunt 0

(* -- array kernels ----------------------------------------------------------

   Intersection gallops when one side is much smaller: each element of the
   small side advances through the large side by exponential probing, so the
   cost is |small| * log |large| instead of |small| + |large|. *)

let gallop_threshold = 32

(* First index >= [from] whose value is >= v, by exponential search. *)
let gallop a from v =
  let n = Array.length a in
  if from >= n || a.(from) >= v then from
  else begin
    let step = ref 1 in
    let lo = ref from in
    while !lo + !step < n && a.(!lo + !step) < v do
      lo := !lo + !step;
      step := !step * 2
    done;
    let hi = min n (!lo + !step + 1) in
    let rec bin lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if a.(mid) < v then bin (mid + 1) hi else bin lo mid
    in
    bin (!lo + 1) hi
  end

let arr_inter_gallop small large =
  let out = Array.make (Array.length small) 0 in
  let n = ref 0 in
  let pos = ref 0 in
  (try
     Array.iter
       (fun v ->
         pos := gallop large !pos v;
         if !pos >= Array.length large then raise Exit;
         if large.(!pos) = v then begin
           out.(!n) <- v;
           incr n
         end)
       small
   with Exit -> ());
  Array.sub out 0 !n

let arr_inter_linear a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min la lb) 0 in
  let n = ref 0 and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if x > y then incr j
    else begin
      out.(!n) <- x;
      incr n;
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !n

let arr_inter a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la * gallop_threshold < lb then arr_inter_gallop a b
  else if lb * gallop_threshold < la then arr_inter_gallop b a
  else arr_inter_linear a b

let arr_union a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let n = ref 0 and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      out.(!n) <- x;
      incr i
    end
    else if x > y then begin
      out.(!n) <- y;
      incr j
    end
    else begin
      out.(!n) <- x;
      incr i;
      incr j
    end;
    incr n
  done;
  while !i < la do
    out.(!n) <- a.(!i);
    incr n;
    incr i
  done;
  while !j < lb do
    out.(!n) <- b.(!j);
    incr n;
    incr j
  done;
  Array.sub out 0 !n

let arr_diff a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let n = ref 0 and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      out.(!n) <- x;
      incr n;
      incr i
    end
    else if x > y then incr j
    else begin
      incr i;
      incr j
    end
  done;
  while !i < la do
    out.(!n) <- a.(!i);
    incr n;
    incr i
  done;
  Array.sub out 0 !n

let arr_filter p a =
  let out = Array.make (Array.length a) 0 in
  let n = ref 0 in
  Array.iter
    (fun v ->
      if p v then begin
        out.(!n) <- v;
        incr n
      end)
    a;
  if !n = Array.length a then a else Array.sub out 0 !n

(* -- run kernels ------------------------------------------------------------ *)

let run_inter ra rb =
  let la = Array.length ra and lb = Array.length rb in
  let buf = Array.make (la + lb) 0 in
  let out = ref 0 and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let s = max ra.(!i) rb.(!j) and e = min ra.(!i + 1) rb.(!j + 1) in
    if s <= e then begin
      buf.(!out) <- s;
      buf.(!out + 1) <- e;
      out := !out + 2
    end;
    if ra.(!i + 1) < rb.(!j + 1) then i := !i + 2 else j := !j + 2
  done;
  Array.sub buf 0 !out

let run_union ra rb =
  let la = Array.length ra and lb = Array.length rb in
  let buf = Array.make (la + lb) 0 in
  let out = ref 0 and i = ref 0 and j = ref 0 in
  let push s e =
    if !out > 0 && s <= buf.(!out - 1) + 1 then
      buf.(!out - 1) <- max buf.(!out - 1) e
    else begin
      buf.(!out) <- s;
      buf.(!out + 1) <- e;
      out := !out + 2
    end
  in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && ra.(!i) <= rb.(!j)) then begin
      push ra.(!i) ra.(!i + 1);
      i := !i + 2
    end
    else begin
      push rb.(!j) rb.(!j + 1);
      j := !j + 2
    end
  done;
  Array.sub buf 0 !out

let run_diff ra rb =
  (* Subtract b's intervals from a's, emitting the surviving fragments. *)
  let la = Array.length ra and lb = Array.length rb in
  let buf = Array.make (la + lb + 2) 0 in
  let out = ref 0 in
  let push s e =
    buf.(!out) <- s;
    buf.(!out + 1) <- e;
    out := !out + 2
  in
  let j = ref 0 in
  let i = ref 0 in
  while !i < la do
    let s = ref ra.(!i) and e = ra.(!i + 1) in
    while !j < lb && rb.(!j + 1) < !s do
      j := !j + 2
    done;
    let jj = ref !j in
    let alive = ref true in
    while !alive && !jj < lb && rb.(!jj) <= e do
      let bs = rb.(!jj) and be = rb.(!jj + 1) in
      if bs > !s then push !s (min e (bs - 1));
      if be >= e then alive := false else s := max !s (be + 1);
      jj := !jj + 2
    done;
    if !alive && !s <= e then push !s e;
    i := !i + 2
  done;
  Array.sub buf 0 !out

let runs_of_arr a =
  let k = runs_of_sorted_array a in
  runs_of_sorted_array_pairs a k

(* -- container binary kernels ----------------------------------------------- *)

let c_inter ca cb =
  match (ca, cb) with
  | Arr a, Arr b ->
      let r = arr_inter a b in
      if Array.length r = 0 then None else Some (pack_sorted_array r)
  | Arr a, (Bmp _ as other) | (Bmp _ as other), Arr a
  | Arr a, (Run _ as other) | (Run _ as other), Arr a ->
      let r = arr_filter (c_mem other) a in
      if Array.length r = 0 then None else Some (pack_sorted_array r)
  | Bmp a, Bmp b ->
      let w = Array.make bmp_words 0 in
      for i = 0 to bmp_words - 1 do
        w.(i) <- a.w.(i) land b.w.(i)
      done;
      pack_words w
  | Bmp b, Run r | Run r, Bmp b ->
      (* Keep only b's bits inside r's intervals: build the run mask and AND. *)
      let m = words_of_container (Run r) in
      for i = 0 to bmp_words - 1 do
        m.(i) <- m.(i) land b.w.(i)
      done;
      pack_words m
  | Run a, Run b ->
      let r = run_inter a.r b.r in
      if Array.length r = 0 then None else pack_runs r

let c_union ca cb =
  match (ca, cb) with
  | Arr a, Arr b -> Some (pack_sorted_array (arr_union a b))
  | Arr a, Bmp b | Bmp b, Arr a ->
      let w = Array.copy b.w in
      let added = ref 0 in
      Array.iter
        (fun v ->
          let i = v / bpw and m = 1 lsl (v mod bpw) in
          if w.(i) land m = 0 then begin
            w.(i) <- w.(i) lor m;
            incr added
          end)
        a;
      let n = b.n + !added in
      let k = runs_of_words w in
      if run_wins n k then Some (Run { r = runs_of_words_pairs w k n; n })
      else Some (Bmp { w; n })
  | Arr a, Run r | Run r, Arr a -> pack_runs (run_union (runs_of_arr a) r.r)
  | Bmp a, Bmp b ->
      let w = Array.make bmp_words 0 in
      for i = 0 to bmp_words - 1 do
        w.(i) <- a.w.(i) lor b.w.(i)
      done;
      pack_words w
  | Bmp b, Run r | Run r, Bmp b ->
      let w = words_of_container (Run r) in
      for i = 0 to bmp_words - 1 do
        w.(i) <- w.(i) lor b.w.(i)
      done;
      pack_words w
  | Run a, Run b -> pack_runs (run_union a.r b.r)

let c_diff ca cb =
  match (ca, cb) with
  | Arr a, Arr b ->
      let r = arr_diff a b in
      if Array.length r = 0 then None else Some (pack_sorted_array r)
  | Arr a, other ->
      let r = arr_filter (fun v -> not (c_mem other v)) a in
      if Array.length r = 0 then None else Some (pack_sorted_array r)
  | Bmp b, Arr a ->
      let w = Array.copy b.w in
      Array.iter (fun v -> w.(v / bpw) <- w.(v / bpw) land lnot (1 lsl (v mod bpw))) a;
      pack_words w
  | Bmp a, Bmp b ->
      let w = Array.make bmp_words 0 in
      for i = 0 to bmp_words - 1 do
        w.(i) <- a.w.(i) land lnot b.w.(i)
      done;
      pack_words w
  | Bmp b, Run r ->
      let m = words_of_container (Run r) in
      for i = 0 to bmp_words - 1 do
        m.(i) <- b.w.(i) land lnot m.(i)
      done;
      pack_words m
  | Run a, Run b ->
      let r = run_diff a.r b.r in
      if Array.length r = 0 then None else pack_runs r
  | Run a, Arr b -> (
      match run_diff a.r (runs_of_arr b) with
      | [||] -> None
      | r -> pack_runs r)
  | Run a, (Bmp _ as other) ->
      let w = words_of_container (Run a) in
      let bw = words_of_container other in
      for i = 0 to bmp_words - 1 do
        w.(i) <- w.(i) land lnot bw.(i)
      done;
      pack_words w

let c_subset ca cb =
  c_card ca <= c_card cb
  &&
  match (ca, cb) with
  | Arr a, other -> Array.for_all (c_mem other) a
  | Bmp a, Bmp b ->
      let rec go i = i >= bmp_words || (a.w.(i) land lnot b.w.(i) = 0 && go (i + 1)) in
      go 0
  | Bmp _, (Arr _ | Run _) | Run _, _ -> (
      (* Containers are small-universe; falling back to per-element checks
         for the rare shapes keeps the kernel table short.  Run-in-run gets
         the interval walk since by_dir scopes hit it constantly. *)
      match (ca, cb) with
      | Run a, Run b ->
          let lb = Array.length b.r in
          let rec go i j =
            if i >= Array.length a.r then true
            else if j >= lb then false
            else if b.r.(j + 1) < a.r.(i) then go i (j + 2)
            else b.r.(j) <= a.r.(i) && a.r.(i + 1) <= b.r.(j + 1) && go (i + 2) j
          in
          go 0 0
      | _ ->
          let ok = ref true in
          c_iter (fun v -> if not (c_mem cb v) then ok := false) ca;
          !ok)

(* -- top-level structure ---------------------------------------------------- *)

let key_index t k =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if t.keys.(mid) = k then mid else if t.keys.(mid) < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.keys)

let cardinal t = Array.fold_left (fun acc c -> acc + c_card c) 0 t.cs

let is_empty t = Array.length t.keys = 0

let mem t v =
  if v < 0 then false
  else
    let i = key_index t (v lsr chunk_bits) in
    i >= 0 && c_mem t.cs.(i) (v land low_mask)

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let base = t.keys.(i) lsl chunk_bits in
    c_iter (fun v -> f (base + v)) t.cs.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun v -> acc := f v !acc) t;
  !acc

let elements t = List.rev (fold (fun v acc -> v :: acc) t [])

let choose_opt t =
  if is_empty t then None else Some ((t.keys.(0) lsl chunk_bits) + c_min t.cs.(0))

let max_elt_opt t =
  let n = Array.length t.keys in
  if n = 0 then None else Some ((t.keys.(n - 1) lsl chunk_bits) + c_max t.cs.(n - 1))

(* Merge the key spaces of two sets, combining containers pairwise.
   [keep_left]/[keep_right] say whether a chunk present on only one side
   survives (union/diff: left yes; inter: no). *)
let merge_keys ~keep_left ~keep_right ~combine a b =
  let la = Array.length a.keys and lb = Array.length b.keys in
  let keys = Array.make (la + lb) 0 in
  let cs = Array.make (la + lb) (Arr [||]) in
  let out = ref 0 and i = ref 0 and j = ref 0 in
  let push k c =
    keys.(!out) <- k;
    cs.(!out) <- c;
    incr out
  in
  while !i < la && !j < lb do
    let ka = a.keys.(!i) and kb = b.keys.(!j) in
    if ka < kb then begin
      if keep_left then push ka a.cs.(!i);
      incr i
    end
    else if ka > kb then begin
      if keep_right then push kb b.cs.(!j);
      incr j
    end
    else begin
      (match combine a.cs.(!i) b.cs.(!j) with Some c -> push ka c | None -> ());
      incr i;
      incr j
    end
  done;
  if keep_left then
    while !i < la do
      push a.keys.(!i) a.cs.(!i);
      incr i
    done;
  if keep_right then
    while !j < lb do
      push b.keys.(!j) b.cs.(!j);
      incr j
    done;
  { keys = Array.sub keys 0 !out; cs = Array.sub cs 0 !out }

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else merge_keys ~keep_left:true ~keep_right:true ~combine:c_union a b

let inter a b =
  if is_empty a || is_empty b then empty
  else merge_keys ~keep_left:false ~keep_right:false ~combine:c_inter a b

let diff a b =
  if is_empty a || is_empty b then a
  else merge_keys ~keep_left:true ~keep_right:false ~combine:c_diff a b

(* Rarest-first n-way intersection without materializing pairwise
   intermediates: walk the smallest set's chunks, require the chunk key in
   every other set, and fold the per-chunk containers cheapest-first with
   an empty short-circuit.  The only allocations are per-surviving-chunk. *)
let inter_many sets =
  if List.exists is_empty sets then empty
  else
    match List.sort (fun a b -> compare (cardinal a) (cardinal b)) sets with
    | [] -> empty
    | [ s ] -> s
    | smallest :: rest ->
        let nk = Array.length smallest.keys in
        let keys = Array.make nk 0 in
        let cs = Array.make nk (Arr [||]) in
        let out = ref 0 in
        for i = 0 to nk - 1 do
          let k = smallest.keys.(i) in
          let containers = ref [ smallest.cs.(i) ] in
          let all = ref true in
          List.iter
            (fun s ->
              if !all then
                match key_index s k with
                | -1 -> all := false
                | j -> containers := s.cs.(j) :: !containers)
            rest;
          if !all then begin
            let ranked =
              List.sort (fun a b -> compare (c_card a) (c_card b)) !containers
            in
            let result =
              match ranked with
              | [] -> None
              | first :: others ->
                  List.fold_left
                    (fun acc c ->
                      match acc with None -> None | Some r -> c_inter r c)
                    (Some first) others
            in
            match result with
            | Some c ->
                keys.(!out) <- k;
                cs.(!out) <- c;
                incr out
            | None -> ()
          end
        done;
        { keys = Array.sub keys 0 !out; cs = Array.sub cs 0 !out }

(* Equality and inclusion short-circuit on cardinality and chunk keys before
   touching container payloads; containers are canonical, so payload
   comparison is structural. *)
let equal a b =
  a == b
  || (Array.length a.keys = Array.length b.keys
     && a.keys = b.keys
     && cardinal a = cardinal b
     && (let rec go i =
           i >= Array.length a.cs || (a.cs.(i) = b.cs.(i) && go (i + 1))
         in
         go 0))

let subset a b =
  a == b
  || (cardinal a <= cardinal b
     &&
     let rec go i =
       i >= Array.length a.keys
       ||
       match key_index b a.keys.(i) with
       | -1 -> false
       | j -> c_subset a.cs.(i) b.cs.(j) && go (i + 1)
     in
     go 0)

(* -- construction ----------------------------------------------------------- *)

(* Streaming constructor for strictly increasing sequences: a chunk's low
   halves collect in a sorted buffer and are packed from it when the key
   advances, so building from a sorted source is one pass with no
   intermediate set values.  Only a chunk that outgrows a bitmap's size
   spills into one: a sparse chunk costs no 1041-word scratch bitmap, which
   would be a large block on the major heap for every set built. *)
type stream = {
  mutable s_keys : int list; (* reversed *)
  mutable s_cs : container list; (* reversed *)
  mutable s_key : int;
  mutable s_vals : int array; (* the current chunk's low halves, increasing *)
  mutable s_n : int; (* used prefix of [s_vals] *)
  mutable s_words : int array; (* the current chunk once spilled, else [||] *)
  mutable s_last : int;
}

let stream () =
  { s_keys = []; s_cs = []; s_key = -1; s_vals = [||]; s_n = 0; s_words = [||]; s_last = -1 }

let stream_push s c =
  s.s_keys <- s.s_key :: s.s_keys;
  s.s_cs <- c :: s.s_cs

let stream_flush s =
  if Array.length s.s_words > 0 then begin
    (match pack_words s.s_words with Some c -> stream_push s c | None -> ());
    (* A bitmap container keeps the array. *)
    s.s_words <- [||]
  end
  else if s.s_n > 0 then begin
    stream_push s (pack_sorted_array (Array.sub s.s_vals 0 s.s_n));
    s.s_n <- 0
  end

let set_bit w v = w.(v / bpw) <- w.(v / bpw) lor (1 lsl (v mod bpw))

let stream_add s v =
  if v < 0 then invalid_arg "Roaring: negative element";
  if v <= s.s_last then invalid_arg "Roaring: stream not increasing";
  s.s_last <- v;
  let k = v lsr chunk_bits in
  if k <> s.s_key then begin
    stream_flush s;
    s.s_key <- k
  end;
  let low = v land low_mask in
  if Array.length s.s_words > 0 then set_bit s.s_words low
  else if s.s_n < bmp_words then begin
    if s.s_n = Array.length s.s_vals then begin
      let vals = Array.make (min bmp_words (max 8 (2 * s.s_n))) 0 in
      Array.blit s.s_vals 0 vals 0 s.s_n;
      s.s_vals <- vals
    end;
    s.s_vals.(s.s_n) <- low;
    s.s_n <- s.s_n + 1
  end
  else begin
    let w = Array.make bmp_words 0 in
    for i = 0 to s.s_n - 1 do
      set_bit w s.s_vals.(i)
    done;
    set_bit w low;
    s.s_words <- w;
    s.s_n <- 0
  end

let stream_finish s =
  stream_flush s;
  {
    keys = Array.of_list (List.rev s.s_keys);
    cs = Array.of_list (List.rev s.s_cs);
  }

let of_increasing_iter it =
  let s = stream () in
  it (stream_add s);
  stream_finish s

let of_list l =
  match List.sort_uniq compare l with
  | [] -> empty
  | x :: _ as sorted ->
      if x < 0 then invalid_arg "Roaring.of_list: negative element";
      of_increasing_iter (fun f -> List.iter f sorted)

let singleton v =
  if v < 0 then invalid_arg "Roaring.singleton: negative element";
  { keys = [| v lsr chunk_bits |]; cs = [| Arr [| v land low_mask |] |] }

let range lo hi =
  let lo = max 0 lo in
  if lo > hi then empty
  else begin
    let klo = lo lsr chunk_bits and khi = hi lsr chunk_bits in
    let nk = khi - klo + 1 in
    let keys = Array.init nk (fun i -> klo + i) in
    let cs =
      Array.init nk (fun i ->
          let k = klo + i in
          let s = if k = klo then lo land low_mask else 0 in
          let e = if k = khi then hi land low_mask else low_mask in
          match pack_runs [| s; e |] with Some c -> c | None -> assert false)
    in
    { keys; cs }
  end

let filter p t =
  of_increasing_iter (fun f -> iter (fun v -> if p v then f v) t)

(* Functional point updates: copy the spine, replace one container. *)
let replace_container t i c =
  let cs = Array.copy t.cs in
  cs.(i) <- c;
  { keys = t.keys; cs }

let insert_key t k c =
  let n = Array.length t.keys in
  let at =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.keys.(mid) < k then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  let keys = Array.make (n + 1) 0 and cs = Array.make (n + 1) c in
  Array.blit t.keys 0 keys 0 at;
  Array.blit t.cs 0 cs 0 at;
  keys.(at) <- k;
  Array.blit t.keys at keys (at + 1) (n - at);
  Array.blit t.cs at cs (at + 1) (n - at);
  { keys; cs }

let remove_key t i =
  let n = Array.length t.keys in
  let keys = Array.make (n - 1) 0 and cs = Array.make (n - 1) (Arr [||]) in
  Array.blit t.keys 0 keys 0 i;
  Array.blit t.cs 0 cs 0 i;
  Array.blit t.keys (i + 1) keys i (n - i - 1);
  Array.blit t.cs (i + 1) cs i (n - i - 1);
  { keys; cs }

let add t v =
  if v < 0 then invalid_arg "Roaring.add: negative element";
  let k = v lsr chunk_bits and low = v land low_mask in
  match key_index t k with
  | -1 -> insert_key t k (Arr [| low |])
  | i ->
      let c = t.cs.(i) in
      if c_mem c low then t
      else
        let c' =
          match c with
          | Arr a -> pack_sorted_array (arr_union a [| low |])
          | Bmp b ->
              let w = Array.copy b.w in
              w.(low / bpw) <- w.(low / bpw) lor (1 lsl (low mod bpw));
              Bmp { w; n = b.n + 1 }
          | Run r -> (
              match pack_runs (run_union r.r [| low; low |]) with
              | Some c -> c
              | None -> assert false)
        in
        replace_container t i c'

let remove t v =
  if v < 0 then t
  else
    let k = v lsr chunk_bits and low = v land low_mask in
    match key_index t k with
    | -1 -> t
    | i -> (
        let c = t.cs.(i) in
        if not (c_mem c low) then t
        else
          let c' =
            match c with
            | Arr a -> (
                let r = arr_diff a [| low |] in
                if Array.length r = 0 then None else Some (pack_sorted_array r))
            | Bmp b ->
                let w = Array.copy b.w in
                w.(low / bpw) <- w.(low / bpw) land lnot (1 lsl (low mod bpw));
                pack_words w
            | Run r -> (
                match run_diff r.r [| low; low |] with
                | [||] -> None
                | rr -> pack_runs rr)
          in
          match c' with
          | Some c' -> replace_container t i c'
          | None -> remove_key t i)

(* -- accounting ------------------------------------------------------------- *)

type stats = {
  containers : int;
  arrays : int;
  bitmaps : int;
  run_containers : int;
  bytes : int;
}

let word_bytes = 8

let c_words = function
  | Arr a -> Array.length a
  | Bmp _ -> bmp_words
  | Run r -> Array.length r.r

let byte_size t =
  let payload = Array.fold_left (fun acc c -> acc + c_words c) 0 t.cs in
  (payload + (2 * Array.length t.keys)) * word_bytes

let stats t =
  let arrays = ref 0 and bitmaps = ref 0 and runs = ref 0 in
  Array.iter
    (function
      | Arr _ -> incr arrays
      | Bmp _ -> incr bitmaps
      | Run _ -> incr runs)
    t.cs;
  {
    containers = Array.length t.cs;
    arrays = !arrays;
    bitmaps = !bitmaps;
    run_containers = !runs;
    bytes = byte_size t;
  }

let has_compressed t =
  Array.exists (function Bmp _ | Run _ -> true | Arr _ -> false) t.cs

let pp ppf t =
  let first = ref true in
  Format.fprintf ppf "{";
  iter
    (fun v ->
      if !first then first := false else Format.fprintf ppf ", ";
      Format.fprintf ppf "%d" v)
    t;
  Format.fprintf ppf "}"

(* -- mutable builder --------------------------------------------------------

   Chunk bitmaps accumulated destructively; the immutable snapshot is cached
   and invalidated by mutation.  Single-domain, like the index it serves. *)

type chunkb = { cw : int array; mutable cn : int }

type builder = {
  tbl : (int, chunkb) Hashtbl.t;
  mutable snap : t option;
  mutable last_key : int;
  mutable last_chunk : chunkb option;
}

let builder () =
  {
    tbl = Hashtbl.create 4;
    snap = None;
    last_key = -1;
    last_chunk = None;
  }

let chunkb_of b k =
  match b.last_chunk with
  | Some c when b.last_key = k -> c
  | _ ->
      let c =
        match Hashtbl.find_opt b.tbl k with
        | Some c -> c
        | None ->
            let c = { cw = Array.make bmp_words 0; cn = 0 } in
            Hashtbl.replace b.tbl k c;
            c
      in
      b.last_key <- k;
      b.last_chunk <- Some c;
      c

let badd b v =
  if v < 0 then invalid_arg "Roaring.badd: negative element";
  let c = chunkb_of b (v lsr chunk_bits) in
  let low = v land low_mask in
  let i = low / bpw and m = 1 lsl (low mod bpw) in
  if c.cw.(i) land m = 0 then begin
    c.cw.(i) <- c.cw.(i) lor m;
    c.cn <- c.cn + 1;
    b.snap <- None
  end

let bremove b v =
  if v >= 0 then begin
    match Hashtbl.find_opt b.tbl (v lsr chunk_bits) with
    | None -> ()
    | Some c ->
        let low = v land low_mask in
        let i = low / bpw and m = 1 lsl (low mod bpw) in
        if c.cw.(i) land m <> 0 then begin
          c.cw.(i) <- c.cw.(i) land lnot m;
          c.cn <- c.cn - 1;
          b.snap <- None
        end
  end

let bmem b v =
  v >= 0
  &&
  match Hashtbl.find_opt b.tbl (v lsr chunk_bits) with
  | None -> false
  | Some c ->
      let low = v land low_mask in
      c.cw.(low / bpw) land (1 lsl (low mod bpw)) <> 0

let bcardinal b = Hashtbl.fold (fun _ c acc -> acc + c.cn) b.tbl 0

let bsnapshot b =
  match b.snap with
  | Some t -> t
  | None ->
      let pairs =
        Hashtbl.fold (fun k c acc -> if c.cn > 0 then (k, c) :: acc else acc) b.tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let keys = Array.of_list (List.map fst pairs) in
      let cs =
        Array.of_list
          (List.map
             (fun (_, c) ->
               match pack_words (Array.copy c.cw) with
               | Some packed -> packed
               | None -> assert false)
             pairs)
      in
      let t = { keys; cs } in
      b.snap <- Some t;
      t

let bclear b =
  Hashtbl.reset b.tbl;
  b.snap <- None;
  b.last_key <- -1;
  b.last_chunk <- None
