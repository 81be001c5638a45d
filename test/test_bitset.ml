(* Unit and property tests for Hac_bitset: Bitset, Sparse and the adaptive
   Fileset.  Property tests check every operation against Stdlib's Set as a
   reference model. *)

module Bitset = Hac_bitset.Bitset
module Sparse = Hac_bitset.Sparse
module Fileset = Hac_bitset.Fileset
module IntSet = Set.Make (Int)

let check_list = Alcotest.(check (list int))

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* -- Bitset units -------------------------------------------------------- *)

let test_bitset_empty () =
  let s = Bitset.create () in
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_bool "is_empty" true (Bitset.is_empty s);
  check_bool "mem" false (Bitset.mem s 3);
  check_list "elements" [] (Bitset.elements s)

let test_bitset_add_remove () =
  let s = Bitset.create () in
  Bitset.add s 5;
  Bitset.add s 0;
  Bitset.add s 200;
  check_list "elements sorted" [ 0; 5; 200 ] (Bitset.elements s);
  Bitset.add s 5;
  check_int "idempotent add" 3 (Bitset.cardinal s);
  Bitset.remove s 5;
  check_bool "removed" false (Bitset.mem s 5);
  Bitset.remove s 5;
  check_int "idempotent remove" 2 (Bitset.cardinal s);
  Bitset.remove s 9999 (* beyond allocation: no-op, no exception *)

let test_bitset_growth () =
  let s = Bitset.create ~capacity:1 () in
  Bitset.add s 100_000;
  check_bool "grown mem" true (Bitset.mem s 100_000);
  check_int "cardinal" 1 (Bitset.cardinal s)

let test_bitset_negative () =
  let s = Bitset.create () in
  Alcotest.check_raises "negative add" (Invalid_argument "Bitset.add: negative element")
    (fun () -> Bitset.add s (-1));
  check_bool "negative mem" false (Bitset.mem s (-1))

let test_bitset_ops () =
  let a = Bitset.of_list [ 1; 2; 3; 64; 65 ] in
  let b = Bitset.of_list [ 2; 64; 999 ] in
  check_list "union" [ 1; 2; 3; 64; 65; 999 ] (Bitset.elements (Bitset.union a b));
  check_list "inter" [ 2; 64 ] (Bitset.elements (Bitset.inter a b));
  check_list "diff" [ 1; 3; 65 ] (Bitset.elements (Bitset.diff a b));
  check_bool "subset yes" true (Bitset.subset (Bitset.of_list [ 2; 64 ]) a);
  check_bool "subset no" false (Bitset.subset b a);
  check_bool "equal self" true (Bitset.equal a (Bitset.copy a));
  check_bool "equal across sizes" true
    (Bitset.equal (Bitset.of_list [ 1 ]) (Bitset.of_list [ 1 ]))

let test_bitset_inplace () =
  let a = Bitset.of_list [ 1; 70 ] in
  Bitset.union_into a (Bitset.of_list [ 2; 300 ]);
  check_list "union_into" [ 1; 2; 70; 300 ] (Bitset.elements a);
  Bitset.inter_into a (Bitset.of_list [ 2; 300; 5 ]);
  check_list "inter_into" [ 2; 300 ] (Bitset.elements a);
  Bitset.diff_into a (Bitset.of_list [ 300 ]);
  check_list "diff_into" [ 2 ] (Bitset.elements a)

let test_bitset_copy_isolated () =
  let a = Bitset.of_list [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  check_bool "original untouched" false (Bitset.mem a 2)

let test_bitset_choose_max () =
  let s = Bitset.of_list [ 42; 7; 100 ] in
  Alcotest.(check (option int)) "choose" (Some 7) (Bitset.choose_opt s);
  Alcotest.(check (option int)) "max" (Some 100) (Bitset.max_elt_opt s);
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose_opt (Bitset.create ()));
  Alcotest.(check (option int)) "max empty" None (Bitset.max_elt_opt (Bitset.create ()))

let test_bitset_clear () =
  let s = Bitset.of_list [ 1; 2; 3 ] in
  Bitset.clear s;
  check_bool "cleared" true (Bitset.is_empty s)

let test_paper_byte_size () =
  (* The paper: 17000 indexed files -> about 2 KB per semantic directory. *)
  check_int "17000 files" 2125 (Bitset.paper_byte_size ~universe:17000);
  check_int "8 files" 1 (Bitset.paper_byte_size ~universe:8);
  check_int "9 files" 2 (Bitset.paper_byte_size ~universe:9)

(* -- Sparse units --------------------------------------------------------- *)

let test_sparse_basic () =
  let s = Sparse.of_list [ 5; 1; 5; 3 ] in
  check_list "dedup sorted" [ 1; 3; 5 ] (Sparse.elements s);
  check_bool "mem" true (Sparse.mem s 3);
  check_bool "not mem" false (Sparse.mem s 4);
  check_int "cardinal" 3 (Sparse.cardinal s);
  check_bool "empty" true (Sparse.is_empty Sparse.empty)

let test_sparse_add_remove () =
  let s = Sparse.of_list [ 1; 5 ] in
  let s2 = Sparse.add s 3 in
  check_list "insert middle" [ 1; 3; 5 ] (Sparse.elements s2);
  check_list "original immutable" [ 1; 5 ] (Sparse.elements s);
  let s3 = Sparse.remove s2 1 in
  check_list "remove head" [ 3; 5 ] (Sparse.elements s3);
  check_bool "remove absent is same" true (Sparse.equal s (Sparse.remove s 42))

let test_sparse_setops () =
  let a = Sparse.of_list [ 1; 3; 5 ] and b = Sparse.of_list [ 2; 3; 6 ] in
  check_list "union" [ 1; 2; 3; 5; 6 ] (Sparse.elements (Sparse.union a b));
  check_list "inter" [ 3 ] (Sparse.elements (Sparse.inter a b));
  check_list "diff" [ 1; 5 ] (Sparse.elements (Sparse.diff a b));
  check_bool "subset" true (Sparse.subset (Sparse.of_list [ 3 ]) a)

(* -- Fileset units --------------------------------------------------------- *)

let test_fileset_adaptive () =
  let small = Fileset.of_list [ 1; 2; 3 ] in
  check_bool "small stays sparse" false (Fileset.is_dense small);
  let big = Fileset.range 0 1000 in
  check_bool "dense range" true (Fileset.is_dense big);
  check_int "range cardinal" 1001 (Fileset.cardinal big);
  (* A huge-universe tiny set must not densify. *)
  let scattered = Fileset.of_list [ 1; 1_000_000 ] in
  check_bool "scattered sparse" false (Fileset.is_dense scattered)

let test_fileset_ops_mixed_repr () =
  let dense = Fileset.range 0 500 in
  let sparse = Fileset.of_list [ 100; 501 ] in
  check_int "union" 502 (Fileset.cardinal (Fileset.union dense sparse));
  check_list "inter" [ 100 ] (Fileset.elements (Fileset.inter dense sparse));
  check_bool "diff" false (Fileset.mem (Fileset.diff dense sparse) 100);
  check_bool "equal across reprs" true
    (Fileset.equal (Fileset.of_list [ 1; 2 ]) (Fileset.of_list [ 2; 1 ]))

let test_fileset_filter () =
  let s = Fileset.range 0 20 in
  let even = Fileset.filter (fun i -> i mod 2 = 0) s in
  check_int "filtered" 11 (Fileset.cardinal even);
  check_bool "no odd" false (Fileset.mem even 3)

let test_fileset_empty_range () =
  check_bool "inverted range empty" true (Fileset.is_empty (Fileset.range 5 2))

(* -- Roaring container units ----------------------------------------------- *)

let test_roaring_chunk_boundaries () =
  let s = Fileset.of_list [ 65534; 65535; 65536; 65537; 131072 ] in
  check_int "cardinal" 5 (Fileset.cardinal s);
  check_list "elements" [ 65534; 65535; 65536; 65537; 131072 ] (Fileset.elements s);
  check_bool "mem low edge" true (Fileset.mem s 65535);
  check_bool "mem high edge" true (Fileset.mem s 65536);
  check_bool "not mem" false (Fileset.mem s 65538);
  let st = Fileset.container_stats s in
  check_int "three chunks" 3 st.containers

let test_roaring_cross_chunk_range () =
  let s = Fileset.range 65000 70000 in
  check_int "cardinal" 5001 (Fileset.cardinal s);
  check_bool "dense (run containers)" true (Fileset.is_dense s);
  let st = Fileset.container_stats s in
  check_int "two chunks" 2 st.containers;
  check_int "both runs" 2 st.run_containers;
  (* A 5001-element range stored as runs costs a handful of words, not 5001. *)
  check_bool "run compression" true (Fileset.byte_size s < 200)

let test_roaring_bitmap_container () =
  (* Step-2 values: 5001 elements, 5001 runs -> run loses, n > 4096 -> bitmap. *)
  let l = List.init 5001 (fun i -> 2 * i) in
  let s = Fileset.of_list l in
  let st = Fileset.container_stats s in
  check_int "one bitmap container" 1 st.bitmaps;
  check_int "no arrays" 0 st.arrays;
  check_int "cardinal" 5001 (Fileset.cardinal s);
  check_bool "mem" true (Fileset.mem s 10000);
  check_bool "not mem odd" false (Fileset.mem s 9999)

let test_roaring_inter_many () =
  let a = Fileset.range 0 10_000 in
  let b = Fileset.of_list [ 5; 500; 5000; 50_000 ] in
  let c = Fileset.range 400 6000 in
  check_list "three-way" [ 500; 5000 ]
    (Fileset.elements (Fileset.inter_many [ a; b; c ]));
  check_bool "empty list" true (Fileset.is_empty (Fileset.inter_many []));
  check_bool "with empty member" true
    (Fileset.is_empty (Fileset.inter_many [ a; Fileset.empty; b ]));
  check_list "singleton list" (Fileset.elements b)
    (Fileset.elements (Fileset.inter_many [ b ]))

let test_roaring_gallop () =
  (* Tiny array against a huge one exercises the exponential-search path. *)
  let big = Fileset.of_list (List.init 4000 (fun i -> 17 * i)) in
  let small = Fileset.of_list [ 0; 17; 1700; 17_000; 17_001 ] in
  check_list "gallop inter" [ 0; 17; 1700; 17000 ]
    (Fileset.elements (Fileset.inter small big));
  check_list "gallop inter sym" [ 0; 17; 1700; 17000 ]
    (Fileset.elements (Fileset.inter big small))

let test_roaring_equal_construction_paths () =
  let l = [ 3; 70_000; 70_001; 70_002; 9 ] in
  let a = Fileset.of_list l in
  let b = List.fold_left Fileset.add Fileset.empty l in
  let c = Fileset.of_increasing_iter (fun f -> List.iter f (List.sort compare l)) in
  check_bool "of_list = folded add" true (Fileset.equal a b);
  check_bool "of_list = increasing iter" true (Fileset.equal a c);
  check_bool "subset refl" true (Fileset.subset a b);
  let r1 = Fileset.range 100 80_000 in
  let r2 =
    Fileset.of_increasing_iter (fun f ->
        for i = 100 to 80_000 do
          f i
        done)
  in
  check_bool "range = streamed range" true (Fileset.equal r1 r2)

(* The streaming constructor buffers a chunk's values and spills into a
   bitmap past 1041 of them; either way it must produce the set, and the
   canonical container shapes, that element-wise insertion produces. *)
let test_roaring_stream_spill () =
  let shape s =
    let c = Fileset.container_stats s in
    (c.Fileset.containers, c.arrays, c.bitmaps, c.run_containers)
  in
  List.iter
    (fun (n, step, base) ->
      let l = List.init n (fun i -> base + (step * i)) in
      let streamed = Fileset.of_increasing_iter (fun f -> List.iter f l) in
      let added = List.fold_left Fileset.add Fileset.empty l in
      let what = Printf.sprintf "%d elements, step %d, from %d" n step base in
      check_list what l (Fileset.elements streamed);
      check_bool (what ^ ": equal") true (Fileset.equal streamed added);
      check_bool (what ^ ": same shapes") true (shape streamed = shape added))
    [
      (1040, 2, 0); (1041, 2, 0); (1042, 2, 0); (4096, 3, 10); (4097, 3, 10); (5000, 1, 65_000);
      (2000, 7, 60_000); (3, 1, 131_070); (1, 1, 0);
    ]

let test_roaring_of_bitset () =
  let b = Bitset.of_list [ 0; 63; 64; 100_000 ] in
  let s = Fileset.of_bitset b in
  check_list "of_bitset" [ 0; 63; 64; 100_000 ] (Fileset.elements s)

let test_roaring_builder () =
  let bld = Fileset.Builder.create () in
  Fileset.Builder.add bld 7;
  Fileset.Builder.add bld 70_000;
  Fileset.Builder.add bld 7;
  check_int "builder cardinal" 2 (Fileset.Builder.cardinal bld);
  check_bool "builder mem" true (Fileset.Builder.mem bld 70_000);
  let s1 = Fileset.Builder.snapshot bld in
  let s1' = Fileset.Builder.snapshot bld in
  check_bool "snapshot cached" true (s1 == s1');
  check_list "snapshot" [ 7; 70_000 ] (Fileset.elements s1);
  Fileset.Builder.remove bld 7;
  let s2 = Fileset.Builder.snapshot bld in
  check_list "snapshot after remove" [ 70_000 ] (Fileset.elements s2);
  check_list "old snapshot immutable" [ 7; 70_000 ] (Fileset.elements s1);
  Fileset.Builder.clear bld;
  check_bool "cleared" true (Fileset.is_empty (Fileset.Builder.snapshot bld))

let test_roaring_byte_size () =
  (* Sanity: payload never exceeds one word per element plus the spine, and a
     dense range is radically smaller than the elementwise bound. *)
  let s = Fileset.of_list [ 1; 2; 3 ] in
  check_bool "tiny set small" true (Fileset.byte_size s <= 8 * (3 + 2));
  let r = Fileset.range 0 200_000 in
  check_bool "range compressed" true (Fileset.byte_size r < 8 * 200);
  check_int "empty is free" 0 (Fileset.byte_size Fileset.empty)

(* -- properties ------------------------------------------------------------ *)

let small_int_list = QCheck.(small_list (int_bound 400))

let model_of l = IntSet.of_list l

let prop_bitset_matches_model =
  QCheck.Test.make ~name:"bitset setops match Set model" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (la, lb) ->
      let a = Bitset.of_list la and b = Bitset.of_list lb in
      let ma = model_of la and mb = model_of lb in
      Bitset.elements (Bitset.union a b) = IntSet.elements (IntSet.union ma mb)
      && Bitset.elements (Bitset.inter a b) = IntSet.elements (IntSet.inter ma mb)
      && Bitset.elements (Bitset.diff a b) = IntSet.elements (IntSet.diff ma mb)
      && Bitset.cardinal a = IntSet.cardinal ma
      && Bitset.subset a b = IntSet.subset ma mb)

let prop_sparse_matches_model =
  QCheck.Test.make ~name:"sparse setops match Set model" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (la, lb) ->
      let a = Sparse.of_list la and b = Sparse.of_list lb in
      let ma = model_of la and mb = model_of lb in
      Sparse.elements (Sparse.union a b) = IntSet.elements (IntSet.union ma mb)
      && Sparse.elements (Sparse.inter a b) = IntSet.elements (IntSet.inter ma mb)
      && Sparse.elements (Sparse.diff a b) = IntSet.elements (IntSet.diff ma mb)
      && Sparse.subset a b = IntSet.subset ma mb)

let prop_fileset_matches_model =
  QCheck.Test.make ~name:"fileset setops match Set model" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (la, lb) ->
      let a = Fileset.of_list la and b = Fileset.of_list lb in
      let ma = model_of la and mb = model_of lb in
      Fileset.elements (Fileset.union a b) = IntSet.elements (IntSet.union ma mb)
      && Fileset.elements (Fileset.inter a b) = IntSet.elements (IntSet.inter ma mb)
      && Fileset.elements (Fileset.diff a b) = IntSet.elements (IntSet.diff ma mb))

let prop_fileset_add_remove =
  QCheck.Test.make ~name:"fileset add/remove roundtrip" ~count:300
    QCheck.(pair small_int_list (int_bound 400))
    (fun (l, x) ->
      let s = Fileset.of_list l in
      Fileset.mem (Fileset.add s x) x
      && (not (Fileset.mem (Fileset.remove s x) x))
      && Fileset.cardinal (Fileset.add s x)
         = Fileset.cardinal s + if Fileset.mem s x then 0 else 1)

let prop_bitset_iter_sorted =
  QCheck.Test.make ~name:"bitset iterates in increasing order" ~count:200
    small_int_list
    (fun l ->
      let s = Bitset.of_list l in
      let elems = Bitset.elements s in
      elems = List.sort_uniq compare l)

(* -- Roaring differential properties ---------------------------------------

   Generators are segment-based so the sampled sets exercise every container
   shape and kernel pair: scattered points (array containers), arithmetic
   strides crossing the 4096-element boundary (bitmap containers), contiguous
   ranges (run containers), and chunk-crossing offsets near multiples of
   2^16. *)

let segment_gen =
  QCheck.Gen.(
    let* base = oneofl [ 0; 100; 65_000; 65_536; 131_000; 200_000 ] in
    let* off = int_bound 1000 in
    let* shape = int_bound 2 in
    match shape with
    | 0 ->
        (* scattered points *)
        let* pts = list_size (int_bound 30) (int_bound 3000) in
        return (List.map (fun p -> base + off + p) pts)
    | 1 ->
        (* contiguous run *)
        let* len = int_bound 3000 in
        return (List.init (len + 1) (fun i -> base + off + i))
    | _ ->
        (* stride: enough elements to cross the array/bitmap boundary *)
        let* step = oneofl [ 2; 3; 7 ] in
        let* count = int_bound 6000 in
        return (List.init count (fun i -> base + off + (step * i))))

let roaring_list_gen =
  QCheck.Gen.(
    let* segs = list_size (int_bound 4) segment_gen in
    return (List.concat segs))

let roaring_list =
  QCheck.make roaring_list_gen
    ~print:(fun l ->
      Printf.sprintf "[%d elems: %s ...]" (List.length l)
        (String.concat ";"
           (List.map string_of_int
              (List.filteri (fun i _ -> i < 20) l))))

let prop_roaring_binops_match_model =
  QCheck.Test.make ~name:"roaring union/inter/diff match Set model" ~count:120
    QCheck.(pair roaring_list roaring_list)
    (fun (la, lb) ->
      let a = Fileset.of_list la and b = Fileset.of_list lb in
      let ma = model_of la and mb = model_of lb in
      Fileset.elements (Fileset.union a b) = IntSet.elements (IntSet.union ma mb)
      && Fileset.elements (Fileset.inter a b) = IntSet.elements (IntSet.inter ma mb)
      && Fileset.elements (Fileset.diff a b) = IntSet.elements (IntSet.diff ma mb)
      && Fileset.cardinal a = IntSet.cardinal ma
      && Fileset.subset a b = IntSet.subset ma mb
      && Fileset.equal a b = IntSet.equal ma mb)

let prop_roaring_equal_subset =
  QCheck.Test.make ~name:"roaring equal/subset vs model on related sets" ~count:120
    QCheck.(pair roaring_list roaring_list)
    (fun (la, lb) ->
      let a = Fileset.of_list la and b = Fileset.of_list lb in
      let u = Fileset.union a b and i = Fileset.inter a b in
      Fileset.subset a u && Fileset.subset i a
      && Fileset.equal (Fileset.union a a) a
      && Fileset.equal (Fileset.inter u a) a
      && Fileset.equal (Fileset.diff a b) (Fileset.diff u b))

let prop_roaring_inter_many =
  QCheck.Test.make ~name:"roaring inter_many matches folded model inter" ~count:80
    QCheck.(triple roaring_list roaring_list roaring_list)
    (fun (la, lb, lc) ->
      let sets = [ Fileset.of_list la; Fileset.of_list lb; Fileset.of_list lc ] in
      let models = [ model_of la; model_of lb; model_of lc ] in
      let expect =
        match models with
        | m :: rest -> List.fold_left IntSet.inter m rest
        | [] -> IntSet.empty
      in
      Fileset.elements (Fileset.inter_many sets) = IntSet.elements expect)

let prop_roaring_iter_sorted =
  QCheck.Test.make ~name:"roaring iterates in increasing order" ~count:100
    roaring_list
    (fun l ->
      Fileset.elements (Fileset.of_list l) = IntSet.elements (model_of l))

let prop_roaring_filter =
  QCheck.Test.make ~name:"roaring filter matches model" ~count:100
    QCheck.(pair roaring_list (int_bound 6))
    (fun (l, m) ->
      let p v = v mod (m + 2) = 0 in
      Fileset.elements (Fileset.filter p (Fileset.of_list l))
      = IntSet.elements (IntSet.filter p (model_of l)))

let prop_roaring_add_remove =
  QCheck.Test.make ~name:"roaring add/remove roundtrip" ~count:120
    QCheck.(pair roaring_list (int_bound 200_000))
    (fun (l, x) ->
      let s = Fileset.of_list l in
      Fileset.mem (Fileset.add s x) x
      && (not (Fileset.mem (Fileset.remove s x) x))
      && Fileset.equal (Fileset.remove (Fileset.add s x) x) (Fileset.remove s x)
      && Fileset.cardinal (Fileset.add s x)
         = Fileset.cardinal s + if Fileset.mem s x then 0 else 1)

let prop_roaring_byte_size_sane =
  QCheck.Test.make ~name:"roaring byte_size bounded by one word per element + spine"
    ~count:100 roaring_list
    (fun l ->
      let s = Fileset.of_list l in
      let n = Fileset.cardinal s in
      let chunks = (Fileset.container_stats s).containers in
      let bytes = Fileset.byte_size s in
      bytes <= 8 * (n + (2 * chunks))
      && (n = 0 || bytes > 0)
      && (let st = Fileset.container_stats s in
          st.arrays + st.bitmaps + st.run_containers = st.containers))

let prop_roaring_builder_matches_model =
  QCheck.Test.make ~name:"roaring builder add/remove stream matches model" ~count:80
    QCheck.(pair roaring_list roaring_list)
    (fun (adds, removes) ->
      let bld = Fileset.Builder.create () in
      List.iter (Fileset.Builder.add bld) adds;
      List.iter (Fileset.Builder.remove bld) removes;
      let m = IntSet.diff (model_of adds) (model_of removes) in
      Fileset.elements (Fileset.Builder.snapshot bld) = IntSet.elements m
      && Fileset.Builder.cardinal bld = IntSet.cardinal m)

let () =
  Alcotest.run "bitset"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/remove" `Quick test_bitset_add_remove;
          Alcotest.test_case "growth" `Quick test_bitset_growth;
          Alcotest.test_case "negative elements" `Quick test_bitset_negative;
          Alcotest.test_case "set operations" `Quick test_bitset_ops;
          Alcotest.test_case "in-place operations" `Quick test_bitset_inplace;
          Alcotest.test_case "copy isolation" `Quick test_bitset_copy_isolated;
          Alcotest.test_case "choose/max" `Quick test_bitset_choose_max;
          Alcotest.test_case "clear" `Quick test_bitset_clear;
          Alcotest.test_case "paper byte size" `Quick test_paper_byte_size;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "basic" `Quick test_sparse_basic;
          Alcotest.test_case "add/remove" `Quick test_sparse_add_remove;
          Alcotest.test_case "set operations" `Quick test_sparse_setops;
        ] );
      ( "fileset",
        [
          Alcotest.test_case "adaptive representation" `Quick test_fileset_adaptive;
          Alcotest.test_case "mixed-repr operations" `Quick test_fileset_ops_mixed_repr;
          Alcotest.test_case "filter" `Quick test_fileset_filter;
          Alcotest.test_case "empty range" `Quick test_fileset_empty_range;
        ] );
      ( "roaring",
        [
          Alcotest.test_case "chunk boundaries" `Quick test_roaring_chunk_boundaries;
          Alcotest.test_case "cross-chunk range" `Quick test_roaring_cross_chunk_range;
          Alcotest.test_case "bitmap container" `Quick test_roaring_bitmap_container;
          Alcotest.test_case "inter_many" `Quick test_roaring_inter_many;
          Alcotest.test_case "galloping intersection" `Quick test_roaring_gallop;
          Alcotest.test_case "construction paths agree" `Quick
            test_roaring_equal_construction_paths;
          Alcotest.test_case "stream spill" `Quick test_roaring_stream_spill;
          Alcotest.test_case "of_bitset" `Quick test_roaring_of_bitset;
          Alcotest.test_case "builder" `Quick test_roaring_builder;
          Alcotest.test_case "byte_size" `Quick test_roaring_byte_size;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bitset_matches_model;
            prop_sparse_matches_model;
            prop_fileset_matches_model;
            prop_fileset_add_remove;
            prop_bitset_iter_sorted;
            prop_roaring_binops_match_model;
            prop_roaring_equal_subset;
            prop_roaring_inter_many;
            prop_roaring_iter_sorted;
            prop_roaring_filter;
            prop_roaring_add_remove;
            prop_roaring_byte_size_sane;
            prop_roaring_builder_matches_model;
          ] );
    ]
