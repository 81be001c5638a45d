(* Unit and property tests for Hac_bitset: the roaring-backed Fileset.
   Property tests check every operation against Stdlib's Set as a
   reference model. *)

module Fileset = Hac_bitset.Fileset
module IntSet = Set.Make (Int)

let check_list = Alcotest.(check (list int))

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* -- Fileset units --------------------------------------------------------- *)

let test_paper_byte_size () =
  (* The paper: 17000 indexed files -> about 2 KB per semantic directory. *)
  check_int "17000 files" 2125 (Fileset.paper_byte_size ~universe:17000);
  check_int "8 files" 1 (Fileset.paper_byte_size ~universe:8);
  check_int "9 files" 2 (Fileset.paper_byte_size ~universe:9)

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

let test_fileset_empty () =
  let s = Fileset.empty in
  check_int "cardinal" 0 (Fileset.cardinal s);
  check_bool "is_empty" true (Fileset.is_empty s);
  check_bool "mem" false (Fileset.mem s 3);
  check_list "elements" [] (Fileset.elements s);
  check_bool "of_list []" true (Fileset.equal s (Fileset.of_list []));
  check_bool "subset of anything" true (Fileset.subset s (Fileset.singleton 1));
  check_bool "remove from empty" true (Fileset.is_empty (Fileset.remove s 3))

(* Functional insert and delete: the argument set never changes, and
   inserting a member or deleting a non-member is the identity. *)
let test_fileset_add_remove () =
  let s = Fileset.of_list [ 5; 0; 200 ] in
  check_list "elements sorted" [ 0; 5; 200 ] (Fileset.elements s);
  let s' = Fileset.add s 7 in
  check_list "insert middle" [ 0; 5; 7; 200 ] (Fileset.elements s');
  check_list "original untouched by add" [ 0; 5; 200 ] (Fileset.elements s);
  check_int "idempotent add" 3 (Fileset.cardinal (Fileset.add s 5));
  let r = Fileset.remove s 5 in
  check_bool "removed" false (Fileset.mem r 5);
  check_bool "original untouched by remove" true (Fileset.mem s 5);
  check_bool "remove absent" true (Fileset.equal s (Fileset.remove s 42));
  check_bool "remove past the last chunk" true (Fileset.equal s (Fileset.remove s 1_000_000));
  (* Removing a chunk's last element drops the chunk. *)
  let t = Fileset.remove (Fileset.of_list [ 1; 70_000 ]) 70_000 in
  check_list "one element left" [ 1 ] (Fileset.elements t);
  check_int "one chunk left" 1 (Fileset.container_stats t).containers;
  check_bool "equal to the one-chunk set" true (Fileset.equal t (Fileset.singleton 1))

(* Identifiers far past the first chunks: the chunk key is the high bits
   of the identifier, so sets stay sparse however large the ids grow. *)
let test_fileset_large_ids () =
  let big = [ 1 lsl 20; (1 lsl 32) + 5; (1 lsl 40) + 65_535; max_int ] in
  let s = Fileset.of_list (3 :: big) in
  check_list "elements" (3 :: big) (Fileset.elements s);
  List.iter (fun v -> check_bool (Printf.sprintf "mem %d" v) true (Fileset.mem s v)) big;
  check_bool "neighbour absent" false (Fileset.mem s ((1 lsl 40) + 65_536));
  check_int "one chunk each" 5 (Fileset.container_stats s).containers;
  check_bool "byte size stays small" true (Fileset.byte_size s < 8 * 16);
  let r = Fileset.range ((1 lsl 40) - 2) ((1 lsl 40) + 1) in
  check_int "range across a high chunk boundary" 4 (Fileset.cardinal r);
  check_list "inter with the range" [ (1 lsl 40) + 1 ]
    (Fileset.elements (Fileset.inter r (Fileset.of_list [ 5; (1 lsl 40) + 1 ])))

(* File identifiers are non-negative: constructors refuse a negative id,
   and lookups and deletes treat one as absent. *)
let test_fileset_negative () =
  Alcotest.check_raises "negative add" (Invalid_argument "Roaring.add: negative element")
    (fun () -> ignore (Fileset.add Fileset.empty (-1)));
  Alcotest.check_raises "negative in a list"
    (Invalid_argument "Roaring.of_list: negative element") (fun () ->
      ignore (Fileset.of_list [ 3; -1 ]));
  Alcotest.check_raises "negative singleton"
    (Invalid_argument "Roaring.singleton: negative element") (fun () ->
      ignore (Fileset.singleton (-4)));
  let s = Fileset.of_list [ 0; 1 ] in
  check_bool "negative mem" false (Fileset.mem s (-1));
  check_bool "negative remove" true (Fileset.equal s (Fileset.remove s (-1)));
  check_list "range clamps at zero" [ 0; 1; 2 ] (Fileset.elements (Fileset.range (-3) 2))

let test_fileset_choose_max () =
  let opt = Alcotest.(check (option int)) in
  let s = Fileset.of_list [ 42; 7; 100 ] in
  opt "choose" (Some 7) (Fileset.choose_opt s);
  opt "max" (Some 100) (Fileset.max_elt_opt s);
  let chunks = Fileset.of_list [ 70_000; 3; 200_000 ] in
  opt "choose across chunks" (Some 3) (Fileset.choose_opt chunks);
  opt "max across chunks" (Some 200_000) (Fileset.max_elt_opt chunks);
  let runs = Fileset.range 65_000 70_000 in
  opt "choose run container" (Some 65_000) (Fileset.choose_opt runs);
  opt "max run container" (Some 70_000) (Fileset.max_elt_opt runs);
  let bitmap = Fileset.of_list (List.init 5001 (fun i -> (2 * i) + 1)) in
  check_int "bitmap container" 1 (Fileset.container_stats bitmap).bitmaps;
  opt "choose bitmap" (Some 1) (Fileset.choose_opt bitmap);
  opt "max bitmap" (Some 10_001) (Fileset.max_elt_opt bitmap);
  opt "choose empty" None (Fileset.choose_opt Fileset.empty);
  opt "max empty" None (Fileset.max_elt_opt Fileset.empty)

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

let prop_roaring_choose_max =
  QCheck.Test.make ~name:"roaring choose/max match model" ~count:100 roaring_list (fun l ->
      let s = Fileset.of_list l and m = model_of l in
      Fileset.choose_opt s = IntSet.min_elt_opt m && Fileset.max_elt_opt s = IntSet.max_elt_opt m)

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
      ( "fileset",
        [
          Alcotest.test_case "paper byte size" `Quick test_paper_byte_size;
          Alcotest.test_case "adaptive representation" `Quick test_fileset_adaptive;
          Alcotest.test_case "mixed-repr operations" `Quick test_fileset_ops_mixed_repr;
          Alcotest.test_case "filter" `Quick test_fileset_filter;
          Alcotest.test_case "empty range" `Quick test_fileset_empty_range;
          Alcotest.test_case "empty" `Quick test_fileset_empty;
          Alcotest.test_case "add/remove" `Quick test_fileset_add_remove;
          Alcotest.test_case "large identifiers" `Quick test_fileset_large_ids;
          Alcotest.test_case "negative elements" `Quick test_fileset_negative;
          Alcotest.test_case "choose/max" `Quick test_fileset_choose_max;
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
          Alcotest.test_case "builder" `Quick test_roaring_builder;
          Alcotest.test_case "byte_size" `Quick test_roaring_byte_size;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fileset_matches_model;
            prop_fileset_add_remove;
            prop_roaring_binops_match_model;
            prop_roaring_equal_subset;
            prop_roaring_inter_many;
            prop_roaring_iter_sorted;
            prop_roaring_filter;
            prop_roaring_add_remove;
            prop_roaring_byte_size_sane;
            prop_roaring_choose_max;
            prop_roaring_builder_matches_model;
          ] );
    ]
