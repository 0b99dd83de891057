(** The rake-and-compress process of [CHL+19] (the paper's Algorithm 1).

    On a tree and for a parameter [k >= 2], iterate:
    - {b Compress}: mark every node whose degree and all of whose
      neighbors' degrees (in the current remaining subtree) are at most
      [k];
    - {b Rake}: mark every remaining node of degree at most 1 (after the
      compress-marked nodes of this iteration are removed).

    Lemma 9 guarantees all nodes are marked within
    [⌈log_k n⌉ + 1] iterations. The process induces the total order on
    nodes used throughout Section 3: layers ordered by marking time
    (compress of iteration [i] below rake of iteration [i]), ties within a
    layer broken by ID (higher ID = higher node). *)

type t

val run : Tl_graph.Graph.t -> k:int -> ids:int array -> t
(** Raises [Invalid_argument] if the graph is not a forest (the process
    and all certificates apply per component, so forests are accepted)
    or [k < 2]; raises [Failure] if the iteration bound of Lemma 9 is
    exceeded (impossible on forests — a built-in certificate).

    Each node's layer is one int, and the alive nodes sit in a
    compacted array, so a compress step scans the alive nodes and their
    adjacency rows and a rake step the alive nodes only: an iteration
    costs the sum of degrees over the nodes alive at its start, plus the
    rows of the nodes it removes. Beyond the forest check (two int
    arrays), a run allocates three int arrays of length [n]. *)

(** {1 Layers and order} *)

type mark = Compressed of int | Raked of int
(** The layer of a node: [Compressed i] = layer [C_i], [Raked i] = layer
    [R_i] (iterations are 1-based). *)

val mark : t -> int -> mark
(** Built from the node's {!layer_index} on each call. *)

val iterations : t -> int

val layer_index : t -> int -> int
(** Position of a node's layer in the total order of layers
    ([C_1 < R_1 < C_2 < ...]). *)

val is_higher : t -> int -> int -> bool
(** [is_higher t u v]: [u] is higher than [v] in the total order on nodes
    (layer order, ties by ID). *)

val higher_endpoint : t -> int -> int
val lower_endpoint : t -> int -> int

val decomposition_rounds : t -> int
(** LOCAL rounds to compute the decomposition: 3 per iteration (degree
    exchange, compress marks, rake marks). *)

(** {1 The two parts} *)

val compressed_nodes : t -> int list
val raked_nodes : t -> int list

val t_c : t -> Tl_graph.Semi_graph.t
(** The semi-graph [T_C] of Theorem 12: compressed nodes plus all incident
    edges (edges to raked nodes have rank 1). *)

val t_r : t -> Tl_graph.Semi_graph.t
(** The semi-graph [T_R]: raked nodes plus all incident edges. *)

type raked_components = {
  members : int list array;
      (** each component's nodes in ascending order; components are
          ordered by their smallest node *)
  highest : int array;  (** each component's highest node ({!is_higher}) *)
  eccentricity : int array;
      (** the eccentricity of [highest] within its component *)
}

val raked_components : t -> raked_components
(** The connected components of [T_R]'s underlying graph (raked nodes,
    edges with both endpoints raked), found by a BFS over the tree's
    adjacency rows restricted to raked nodes, with a second BFS per
    component from its highest node — the node that gathers the
    component in Algorithm 2. No semi-graph is built or compiled; the
    sweeps share three int arrays of length [n]. *)

(** {1 Certificates (Lemmas 9-11)} *)

val check_lemma9 : t -> bool
(** All nodes marked within [⌈log_k n⌉ + 1] iterations. *)

val compress_part_max_degree : t -> int
(** Maximum degree of the graph induced by the edges whose lower endpoint
    lies in a compress layer (the quantity of Lemma 10). *)

val check_lemma10 : t -> bool
(** [compress_part_max_degree <= k]. *)

val rake_component_diameters : t -> int list
(** Diameters of the connected components of the graph induced by the
    raked nodes (Lemma 11). *)

val lemma11_bound : t -> int
(** [4 (log_k n + 1) + 2], rounded up. *)

val check_lemma11 : t -> bool
