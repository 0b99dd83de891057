(** Semi-graphs (Definition 4 of the paper): graphs whose edges may have 0,
    1 or 2 endpoints.

    A semi-graph here is always a {e view} over a base graph: a subset of
    the base nodes and a subset of the base edges. A present edge has rank
    equal to its number of {e present} endpoints — this is exactly how
    semi-graphs arise in the paper ([T_C], [T_R] keep all edges incident to
    a node subset; [G[E_2]] and [G[F_{i,j}]] keep an edge subset).

    A half-edge of the base graph belongs to the semi-graph iff both its
    edge and its node are present. Degrees in the semi-graph count present
    incident edges of {e any} rank, while the {e underlying graph} (and its
    degree, the quantity bounded by Lemmas 10 and 14) only keeps rank-2
    edges. *)

type t

(** {1 Construction} *)

val of_node_subset : Graph.t -> bool array -> t
(** Present nodes as given; present edges = base edges with at least one
    present endpoint. This is the paper's [T_C] / [T_R] construction. *)

val of_edge_subset : Graph.t -> bool array -> t
(** Present edges as given; present nodes = their endpoints. All present
    edges have rank 2. This is the paper's [G[E_2]] / [G[F_{i,j}]]
    construction. *)

val of_graph : Graph.t -> t
(** The whole base graph viewed as a semi-graph (all ranks 2). *)

(** {1 Accessors} *)

val base : t -> Graph.t

val node_present : t -> int -> bool
val edge_present : t -> int -> bool

(** {1 In-place restriction}

    Views are mutable only in the shrinking direction: a node or edge
    can be masked out of an existing view (cheaper than rebuilding the
    view when peeling layers off a decomposition). Hiding an
    already-absent node/edge is a no-op. *)

val hide_node : t -> int -> unit
val hide_edge : t -> int -> unit

val half_edge_present : t -> int -> bool
(** Whether a base half-edge id belongs to the semi-graph. *)

val nodes : t -> int list
(** Present nodes, ascending. *)

val edges : t -> int list
(** Present edge ids, ascending. *)

val n_present_nodes : t -> int

val rank : t -> int -> int
(** Rank of a present edge (0, 1 or 2). Raises [Invalid_argument] on an
    absent edge. *)

val sdeg : t -> int -> int
(** Degree of a present node in the semi-graph: number of present incident
    edges of any rank. Raises [Invalid_argument] on an absent node. *)

val underlying_degree : t -> int -> int
(** Number of present incident rank-2 edges. *)

val max_underlying_degree : t -> int
(** Maximum of {!underlying_degree} over present nodes — the [Δ] handed to
    a truly local algorithm running on this semi-graph. *)

val half_edges_of : t -> int -> int list
(** Present half-edges at a present node (one per present incident edge of
    any rank — these are the half-edges the node must label). *)

val rank2_neighbors : t -> int -> (int * int) list
(** [(neighbor, edge)] pairs over present rank-2 edges at a present node —
    the communication links available in the LOCAL model (Definition 5
    restricts messages to rank-2 edges). *)

val iter_rank2_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_rank2_neighbors t v f] calls [f neighbor edge] for each present
    rank-2 edge at present node [v] — same pairs as {!rank2_neighbors},
    without materialising the list (the repair BFS walks millions of
    nodes; a list per visit is the dominant cost). *)

(** {1 Underlying-graph structure} *)

val underlying_components : t -> int list array
(** Connected components of the underlying graph: partition of the present
    nodes, connectivity via present rank-2 edges. *)

val component_of : t -> int -> int list
(** Component (as above) containing a given present node. *)

val underlying_distances : t -> int -> int array
(** BFS distances from a present node through present rank-2 edges; [-1]
    for unreachable or absent nodes. *)

val underlying_eccentricity : t -> int -> int
