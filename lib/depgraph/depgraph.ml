module IntSet = Set.Make (Int)

type t = {
  out_edges : (int, IntSet.t) Hashtbl.t; (* uid -> its dependencies *)
  in_edges : (int, IntSet.t) Hashtbl.t; (* uid -> its dependents *)
  mutable order : int list option; (* [topo_all], until the graph changes *)
}

let create () = { out_edges = Hashtbl.create 64; in_edges = Hashtbl.create 64; order = None }

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:IntSet.empty

let add_node g uid =
  if not (Hashtbl.mem g.out_edges uid) then begin
    g.order <- None;
    Hashtbl.replace g.out_edges uid IntSet.empty;
    Hashtbl.replace g.in_edges uid IntSet.empty
  end

let mem g uid = Hashtbl.mem g.out_edges uid

let remove_node g uid =
  g.order <- None;
  IntSet.iter
    (fun dep -> Hashtbl.replace g.in_edges dep (IntSet.remove uid (get g.in_edges dep)))
    (get g.out_edges uid);
  IntSet.iter
    (fun dependent ->
      Hashtbl.replace g.out_edges dependent (IntSet.remove uid (get g.out_edges dependent)))
    (get g.in_edges uid);
  Hashtbl.remove g.out_edges uid;
  Hashtbl.remove g.in_edges uid

(* A path from [target] reachable by following out-edges starting at [from]?
   Used to detect that adding edge [uid -> dep] would close a cycle, i.e.
   [uid] is already reachable from [dep]. Returns the path for diagnostics. *)
let find_path g ~from ~target =
  let visited = Hashtbl.create 16 in
  let rec dfs node path =
    if node = target then Some (List.rev (node :: path))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      IntSet.fold
        (fun next acc -> match acc with Some _ -> acc | None -> dfs next (node :: path))
        (get g.out_edges node) None
    end
  in
  dfs from []

let set_deps g uid new_deps =
  add_node g uid;
  g.order <- None;
  let new_deps = List.sort_uniq compare new_deps in
  if List.mem uid new_deps then Error [ uid; uid ]
  else begin
    let old_deps = get g.out_edges uid in
    (* Detach the old edges first so a self-reaching path through them does
       not count; then check each new edge against the detached graph. *)
    IntSet.iter
      (fun dep -> Hashtbl.replace g.in_edges dep (IntSet.remove uid (get g.in_edges dep)))
      old_deps;
    Hashtbl.replace g.out_edges uid IntSet.empty;
    let cycle =
      List.fold_left
        (fun acc dep ->
          match acc with
          | Some _ -> acc
          | None -> (
              add_node g dep;
              match find_path g ~from:dep ~target:uid with
              | Some path -> Some (uid :: path)
              | None ->
                  Hashtbl.replace g.out_edges uid (IntSet.add dep (get g.out_edges uid));
                  Hashtbl.replace g.in_edges dep (IntSet.add uid (get g.in_edges dep));
                  acc))
        None new_deps
    in
    match cycle with
    | None -> Ok ()
    | Some path ->
        (* Roll back: restore exactly the old dependencies. *)
        IntSet.iter
          (fun dep -> Hashtbl.replace g.in_edges dep (IntSet.remove uid (get g.in_edges dep)))
          (get g.out_edges uid);
        Hashtbl.replace g.out_edges uid old_deps;
        IntSet.iter
          (fun dep -> Hashtbl.replace g.in_edges dep (IntSet.add uid (get g.in_edges dep)))
          old_deps;
        Error path
  end

let deps g uid = IntSet.elements (get g.out_edges uid)

let dependents g uid = IntSet.elements (get g.in_edges uid)

let would_cycle g uid new_deps =
  let old_deps = deps g uid in
  match set_deps g uid new_deps with
  | Error _ -> true
  | Ok () ->
      (* Pure predicate: restore the previous dependencies. *)
      (match set_deps g uid old_deps with
      | Ok () -> ()
      | Error _ -> assert false (* the old edges were acyclic *));
      false

(* Kahn's algorithm restricted to [nodes]; ties broken by uid order for
   determinism. *)
let topo_of g nodes =
  let in_deg = Hashtbl.create 64 in
  let node_set = List.fold_left (fun s n -> IntSet.add n s) IntSet.empty nodes in
  IntSet.iter
    (fun n ->
      let d = IntSet.cardinal (IntSet.inter (get g.out_edges n) node_set) in
      Hashtbl.replace in_deg n d)
    node_set;
  let ready =
    ref (IntSet.filter (fun n -> Hashtbl.find in_deg n = 0) node_set)
  in
  let order = ref [] in
  while not (IntSet.is_empty !ready) do
    let n = IntSet.min_elt !ready in
    ready := IntSet.remove n !ready;
    order := n :: !order;
    IntSet.iter
      (fun dependent ->
        if IntSet.mem dependent node_set then begin
          let d = Hashtbl.find in_deg dependent - 1 in
          Hashtbl.replace in_deg dependent d;
          if d = 0 then ready := IntSet.add dependent !ready
        end)
      (get g.in_edges n)
  done;
  List.rev !order

(* Every settle walks the whole order, and the graph changes only when a
   directory is created, removed or re-queried. *)
let topo_all g =
  match g.order with
  | Some order -> order
  | None ->
      let order = topo_of g (Hashtbl.fold (fun n _ acc -> n :: acc) g.out_edges []) in
      g.order <- Some order;
      order

let affected g uid =
  (* Transitive dependents via reverse edges, then topologically ordered. *)
  let seen = Hashtbl.create 16 in
  let rec collect n =
    IntSet.iter
      (fun dep ->
        if not (Hashtbl.mem seen dep) then begin
          Hashtbl.replace seen dep ();
          collect dep
        end)
      (get g.in_edges n)
  in
  collect uid;
  let nodes = Hashtbl.fold (fun n _ acc -> n :: acc) seen [] in
  topo_of g nodes

let node_count g = Hashtbl.length g.out_edges

let edge_count g =
  Hashtbl.fold (fun _ s acc -> acc + IntSet.cardinal s) g.out_edges 0

let approx_bytes g =
  let word = Sys.int_size / 8 + 1 in
  (node_count g * 4 * word) + (edge_count g * 6 * word)
