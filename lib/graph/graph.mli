(** Simple undirected graphs with stable edge and half-edge indexing.

    Nodes are integers [0 .. n-1]. Edges are stored once, as ordered pairs
    [(u, v)] with [u < v], and carry a stable identifier [0 .. m-1]. A
    {e half-edge} is a pair (node, incident edge); half-edge [(e, side)] has
    the stable identifier [2*e + side], where side [0] is the smaller
    endpoint of [e] and side [1] the larger. All half-edge labelings in this
    repository are arrays indexed by these identifiers.

    Graphs are immutable after construction. *)

type t

(** {1 Construction} *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on nodes [0..n-1]. Raises
    [Invalid_argument] on out-of-range endpoints, self-loops, or duplicate
    edges (in either orientation). *)

val of_edge_array : n:int -> (int * int) array -> t
(** {!of_edges} from an array: edge [i] of the result is [edges.(i)]
    (ordered as [(min, max)]); the array is not retained. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] nodes. *)

(** {1 Basic accessors} *)

val n_nodes : t -> int
val n_edges : t -> int

val degree : t -> int -> int

val max_degree : t -> int
(** Maximum degree [Δ]; [0] for an edgeless graph. *)

val neighbors : t -> int -> int array
(** Neighbor node ids of a node. The returned array is owned by the graph
    and must not be mutated. Aligned with {!incident}. *)

val incident : t -> int -> int array
(** Edge ids incident to a node, aligned with {!neighbors}: the [i]-th
    incident edge connects to the [i]-th neighbor. Not to be mutated. *)

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of an edge id. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g e v] is the endpoint of [e] distinct from [v]. Raises
    [Invalid_argument] if [v] is not an endpoint of [e]. *)

val has_edge : t -> int -> int -> bool
(** Whether two nodes are adjacent (logarithmic in degree). *)

val find_edge : t -> int -> int -> int option
(** Edge id connecting two nodes, if any. *)

(** {1 Half-edges} *)

val n_half_edges : t -> int
(** [2 * n_edges]. *)

val half_edge : t -> edge:int -> node:int -> int
(** Identifier of the half-edge of [edge] at [node]. Raises
    [Invalid_argument] if [node] is not an endpoint. *)

val half_edge_node : t -> int -> int
(** The node of a half-edge id. *)

val half_edge_edge : int -> int
(** The edge of a half-edge id (that is, [h / 2]). *)

val opposite_half_edge : int -> int
(** The half-edge on the other side of the same edge ([h lxor 1]). *)

val half_edges_of : t -> int -> int list
(** All half-edge ids at a node (one per incident edge), in {!incident}
    order. *)

(** {1 Iteration} *)

val fold_edges : (int -> int * int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds [f eid (u, v)] over all edges. *)

val iter_edges : (int -> int * int -> unit) -> t -> unit

val edge_list : t -> (int * int) list
(** All edges as ordered pairs, in edge-id order. *)

(** {1 Derived graphs} *)

val line_graph : t -> t * (int -> int)
(** [line_graph g] is the line graph [l] of [g] — one node per edge of [g],
    adjacent iff the edges share an endpoint — together with the identity
    mapping from [l]-nodes to [g]-edge ids. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (node-induced),
    with nodes renumbered [0..]; the returned array maps new ids to the
    original ids. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: node/edge counts and the edge list (truncated). *)
