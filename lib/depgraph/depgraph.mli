(** The dependency graph between semantic directories (section 2.5).

    Nodes are directory UIDs.  An edge [a -> b] means {e [a] depends on [b]}:
    [a]'s query must be re-evaluated whenever [b]'s scope changes.  Two kinds
    of dependencies share the graph: the implicit parent edge (a semantic
    directory depends on its parent) and explicit [{dir}] references inside
    queries.  The graph must stay acyclic; every mutation that could create a
    cycle is refused. *)

type t
(** A mutable dependency graph. *)

val create : unit -> t
(** An empty graph. *)

val add_node : t -> int -> unit
(** Register a UID with no dependencies; no-op when present. *)

val remove_node : t -> int -> unit
(** Drop a UID and every edge touching it. *)

val mem : t -> int -> bool
(** Whether the UID is registered. *)

val set_deps : t -> int -> int list -> (unit, int list) result
(** [set_deps g uid deps] replaces [uid]'s outgoing dependencies.  Unknown
    dependency UIDs are registered implicitly.  If the new edges would close
    a cycle the graph is left unchanged and [Error cycle] returns one
    offending path (from [uid] back to itself). *)

val deps : t -> int -> int list
(** Current direct dependencies (sorted). *)

val dependents : t -> int -> int list
(** UIDs directly depending on the given one (sorted). *)

val affected : t -> int -> int list
(** Every UID whose result may change when the given UID's scope changes:
    all transitive dependents, in topological order (dependencies before
    dependents), excluding the start UID itself.  This is the re-evaluation
    schedule of the scope-consistency algorithm. *)

val topo_all : t -> int list
(** Every node, dependencies before dependents.  Computed once and kept
    until {!add_node}, {!remove_node} or {!set_deps} (hence
    {!would_cycle}) next runs. *)

val would_cycle : t -> int -> int list -> bool
(** [true] when [set_deps] with these edges would be refused. *)

val node_count : t -> int
(** Number of registered UIDs. *)

val edge_count : t -> int
(** Number of dependency edges. *)

val approx_bytes : t -> int
(** Estimated memory footprint, for space accounting. *)
