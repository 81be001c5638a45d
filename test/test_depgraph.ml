(* Tests for the dependency DAG: cycle refusal, topological ordering and
   affected-set computation. *)

module Depgraph = Hac_depgraph.Depgraph

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_list = Alcotest.(check (list int))

let ok = function Ok () -> () | Error _ -> Alcotest.fail "unexpected cycle"

let err = function Ok () -> Alcotest.fail "expected a cycle" | Error _ -> ()

(* Build a diamond: 3 and 2 depend on 1; 4 depends on 2 and 3. *)
let diamond () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 2 [ 1 ]);
  ok (Depgraph.set_deps g 3 [ 1 ]);
  ok (Depgraph.set_deps g 4 [ 2; 3 ]);
  g

let test_nodes () =
  let g = Depgraph.create () in
  Depgraph.add_node g 5;
  check_bool "mem" true (Depgraph.mem g 5);
  check_bool "not mem" false (Depgraph.mem g 6);
  Depgraph.add_node g 5 (* idempotent *);
  check_int "count" 1 (Depgraph.node_count g);
  Depgraph.remove_node g 5;
  check_bool "removed" false (Depgraph.mem g 5)

let test_deps_and_dependents () =
  let g = diamond () in
  check_list "deps of 4" [ 2; 3 ] (Depgraph.deps g 4);
  check_list "dependents of 1" [ 2; 3 ] (Depgraph.dependents g 1);
  check_list "dependents of 2" [ 4 ] (Depgraph.dependents g 2);
  check_int "edges" 4 (Depgraph.edge_count g)

let test_replace_deps () =
  let g = diamond () in
  ok (Depgraph.set_deps g 4 [ 1 ]);
  check_list "new deps" [ 1 ] (Depgraph.deps g 4);
  check_list "2 lost its dependent" [] (Depgraph.dependents g 2)

let test_self_cycle () =
  let g = Depgraph.create () in
  err (Depgraph.set_deps g 1 [ 1 ])

let test_two_cycle () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 1 [ 2 ]);
  err (Depgraph.set_deps g 2 [ 1 ]);
  (* The failed attempt must not leave partial edges. *)
  check_list "2 unchanged" [] (Depgraph.deps g 2);
  check_list "1 unchanged" [ 2 ] (Depgraph.deps g 1)

let test_long_cycle () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 2 [ 1 ]);
  ok (Depgraph.set_deps g 3 [ 2 ]);
  ok (Depgraph.set_deps g 4 [ 3 ]);
  err (Depgraph.set_deps g 1 [ 4 ])

let test_partial_rollback () =
  (* One good edge plus one cycling edge: whole call must roll back. *)
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 1 [ 9 ]);
  ok (Depgraph.set_deps g 2 [ 1 ]);
  err (Depgraph.set_deps g 1 [ 5; 2 ]);
  check_list "rollback to old deps" [ 9 ] (Depgraph.deps g 1)

let test_would_cycle_pure () =
  let g = diamond () in
  check_bool "cycle detected" true (Depgraph.would_cycle g 1 [ 4 ]);
  check_list "graph unchanged" [] (Depgraph.deps g 1);
  check_bool "no cycle" false (Depgraph.would_cycle g 1 []);
  check_list "still unchanged" [] (Depgraph.deps g 1);
  check_list "4 keeps deps" [ 2; 3 ] (Depgraph.deps g 4)

let test_affected_order () =
  let g = diamond () in
  (* Everything depending on 1, dependencies before dependents. *)
  let order = Depgraph.affected g 1 in
  check_int "three affected" 3 (List.length order);
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check_bool "2 before 4" true (pos 2 < pos 4);
  check_bool "3 before 4" true (pos 3 < pos 4);
  check_bool "1 not included" true (not (List.mem 1 order));
  check_list "leaf affects nothing" [] (Depgraph.affected g 4)

let test_topo_all () =
  let g = diamond () in
  let order = Depgraph.topo_all g in
  check_int "all nodes" 4 (List.length order);
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check_bool "1 first" true (pos 1 < pos 2 && pos 1 < pos 3);
  check_bool "4 last" true (pos 4 > pos 2 && pos 4 > pos 3)

(* A chain hanging off one side of a wide fan: the schedule [affected]
   hands the sequential settle must follow every path out of the start. *)
let test_affected_fan_and_chain () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 10 [ 1 ]);
  ok (Depgraph.set_deps g 11 [ 1 ]);
  ok (Depgraph.set_deps g 12 [ 1 ]);
  ok (Depgraph.set_deps g 20 [ 10 ]);
  ok (Depgraph.set_deps g 30 [ 20; 11 ]);
  let order = Depgraph.affected g 1 in
  check_list "every dependent of the root" [ 10; 11; 12; 20; 30 ] (List.sort compare order);
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check_bool "chain in order" true (pos 10 < pos 20 && pos 20 < pos 30);
  check_bool "short side before the join" true (pos 11 < pos 30);
  check_list "from the chain's head" [ 20; 30 ] (Depgraph.affected g 10);
  check_list "from the short side" [ 30 ] (Depgraph.affected g 11);
  check_list "a leaf of the fan" [] (Depgraph.affected g 12);
  (* The schedule follows an edit: 30 no longer hangs off 11. *)
  ok (Depgraph.set_deps g 30 [ 20 ]);
  check_list "dropped edge" [] (Depgraph.affected g 11);
  check_list "chain kept" [ 20; 30 ] (Depgraph.affected g 10)

let test_remove_node_detaches () =
  let g = diamond () in
  Depgraph.remove_node g 2;
  check_list "4's deps lose 2" [ 3 ] (Depgraph.deps g 4);
  check_list "1's dependents lose 2" [ 3 ] (Depgraph.dependents g 1)

let test_unknown_dep_registered () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 1 [ 42 ]);
  check_bool "implicit node" true (Depgraph.mem g 42)

(* -- properties: random DAG construction stays acyclic and topo-consistent --- *)

let gen_edge_attempts =
  QCheck.Gen.(list_size (int_range 0 60) (pair (int_bound 12) (list_size (int_range 0 4) (int_bound 12))))

let arb_attempts =
  QCheck.make gen_edge_attempts ~print:(fun l ->
      String.concat "; "
        (List.map
           (fun (n, ds) ->
             Printf.sprintf "%d<-[%s]" n (String.concat "," (List.map string_of_int ds)))
           l))

let build_graph attempts =
  let g = Depgraph.create () in
  List.iter (fun (n, ds) -> ignore (Depgraph.set_deps g n ds)) attempts;
  g

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo_all places deps before dependents" ~count:300 arb_attempts
    (fun attempts ->
      let g = build_graph attempts in
      let order = Depgraph.topo_all g in
      let pos = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace pos n i) order;
      List.length order = Depgraph.node_count g
      && List.for_all
           (fun n ->
             List.for_all
               (fun d -> Hashtbl.find pos d < Hashtbl.find pos n)
               (Depgraph.deps g n))
           order)

let prop_affected_closed =
  QCheck.Test.make ~name:"affected is transitively closed" ~count:300
    (QCheck.pair arb_attempts (QCheck.int_bound 12))
    (fun (attempts, start) ->
      let g = build_graph attempts in
      QCheck.assume (Depgraph.mem g start);
      let aff = Depgraph.affected g start in
      (* Every direct dependent of anything affected (or of start) is affected. *)
      List.for_all
        (fun n -> List.for_all (fun d -> List.mem d aff) (Depgraph.dependents g n))
        (start :: aff))

(* Every UID reachable from [start] along dependent edges, [start] excluded. *)
let transitive_dependents g start =
  let seen = Hashtbl.create 16 in
  let rec visit n =
    List.iter
      (fun d ->
        if d <> start && not (Hashtbl.mem seen d) then begin
          Hashtbl.replace seen d ();
          visit d
        end)
      (Depgraph.dependents g n)
  in
  visit start;
  Hashtbl.fold (fun n () acc -> n :: acc) seen [] |> List.sort compare

let prop_affected_exact =
  QCheck.Test.make ~name:"affected is exactly the transitive dependents" ~count:300
    (QCheck.pair arb_attempts (QCheck.int_bound 12))
    (fun (attempts, start) ->
      let g = build_graph attempts in
      QCheck.assume (Depgraph.mem g start);
      List.sort compare (Depgraph.affected g start) = transitive_dependents g start)

(* The re-evaluation schedule runs each directory once, after every
   affected directory it depends on. *)
let prop_affected_ordered =
  QCheck.Test.make ~name:"affected places deps before dependents" ~count:300
    (QCheck.pair arb_attempts (QCheck.int_bound 12))
    (fun (attempts, start) ->
      let g = build_graph attempts in
      QCheck.assume (Depgraph.mem g start);
      let order = Depgraph.affected g start in
      let pos = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace pos n i) order;
      Hashtbl.length pos = List.length order
      && List.for_all
           (fun n ->
             List.for_all
               (fun d ->
                 match Hashtbl.find_opt pos d with
                 | Some i -> i < Hashtbl.find pos n
                 | None -> true)
               (Depgraph.deps g n))
           order)

let prop_no_cycles_ever =
  QCheck.Test.make ~name:"graph stays acyclic under random set_deps" ~count:300 arb_attempts
    (fun attempts ->
      let g = build_graph attempts in
      (* A DAG's topological sort covers every node. *)
      List.length (Depgraph.topo_all g) = Depgraph.node_count g)

let () =
  Alcotest.run "depgraph"
    [
      ( "structure",
        [
          Alcotest.test_case "nodes" `Quick test_nodes;
          Alcotest.test_case "deps and dependents" `Quick test_deps_and_dependents;
          Alcotest.test_case "replace deps" `Quick test_replace_deps;
          Alcotest.test_case "remove detaches" `Quick test_remove_node_detaches;
          Alcotest.test_case "unknown deps registered" `Quick test_unknown_dep_registered;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "self" `Quick test_self_cycle;
          Alcotest.test_case "two-node" `Quick test_two_cycle;
          Alcotest.test_case "long" `Quick test_long_cycle;
          Alcotest.test_case "partial rollback" `Quick test_partial_rollback;
          Alcotest.test_case "would_cycle is pure" `Quick test_would_cycle_pure;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "affected order" `Quick test_affected_order;
          Alcotest.test_case "topo_all" `Quick test_topo_all;
          Alcotest.test_case "affected fan and chain" `Quick test_affected_fan_and_chain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_topo_respects_edges;
            prop_affected_closed;
            prop_affected_exact;
            prop_affected_ordered;
            prop_no_cycles_ever;
          ] );
    ]
