(** The paper's new decomposition process for bounded-arboricity graphs
    (Section 4, Algorithm 3), with the typical/atypical edge split, the
    [F_i] forests and the [F_{i,j}] star partition used by Theorem 15.

    Parameters: arboricity bound [a], [b = 2a], and [k >= 5a]. The single
    {b Compress(G, b, k)} operation marks a node if its degree is at most
    [k] and at most [b] of its neighbors have degree exceeding [k] —
    unlike [CHL+19], a node may be removed while it still has high-degree
    neighbors, and no rake step is needed. Lemma 13: all nodes are marked
    within [⌈10 log_{k/a} n⌉ + 1] iterations.

    An edge is {e atypical} if, at the time its lower endpoint [u] was
    marked, its higher endpoint still had degree exceeding [k] in the
    remaining graph; each node has at most [b = 2a] atypical edges. The
    typical edges [E₂] induce a graph of maximum degree at most [k]
    (Lemma 14). The atypical edges are split into [2a] forests [F_i] (each
    lower endpoint colors its atypical edges distinctly), each forest is
    3-colored in [O(log* n)] rounds, and [F_{i,j}] (edges of [F_i] whose
    higher endpoint got color [j]) has star components centered at higher
    endpoints. *)

type t

val run : Tl_graph.Graph.t -> a:int -> k:int -> ids:int array -> t
(** Raises [Invalid_argument] if [a < 1] or [k < 5a]; raises [Failure] if
    the Lemma 13 iteration bound is exceeded (e.g. the graph's arboricity
    actually exceeds [a]).

    Each node's layer is one int and the alive nodes sit in a compacted
    array, so an iteration reads the rows of the nodes alive at its
    start once (the compress decision) and the rows of the nodes it
    marks twice (their atypical edges, then their neighbors' degrees):
    it costs the sum of degrees over the nodes alive at its start. The
    F_i split is one pass over the edges. The forests and all [6a] star
    families come from stable counting sorts of the [A] atypical edges,
    built once per run, and each forest's Cole-Vishkin run costs the
    forest's size per round ({!Tl_symmetry.Cole_vishkin.color3}).
    Scratch is a few int arrays of length [n] and [A], allocated once
    per run; with no atypical edge, no forest or star family is built.
    Spans: ["arb-decompose"] with children ["peel"] (counter
    [iterations]) and ["cv3-forests"] (counter [cv_rounds]). *)

(** {1 Layers and order} *)

val layer : t -> int -> int
(** 1-based marking iteration of a node. *)

val iterations : t -> int
val a : t -> int
val b : t -> int
val k : t -> int

val is_higher : t -> int -> int -> bool
val higher_endpoint : t -> int -> int
val lower_endpoint : t -> int -> int

val decomposition_rounds : t -> int
(** LOCAL rounds to compute the layers: 2 per iteration. *)

val cv_rounds : t -> int
(** Rounds of the Cole-Vishkin 3-coloring of the [F_i] forests (they run
    in parallel; the maximum is charged). *)

(** {1 Edge classification} *)

val atypical : t -> int -> bool
val typical_edges : t -> int list
val atypical_edges : t -> int list

val g_e2 : t -> Tl_graph.Semi_graph.t
(** The semi-graph induced by the typical edges (all ranks 2). *)

val f_index : t -> int -> int
(** For an atypical edge, its forest index in [1 .. 2a]; [0] for typical
    edges. *)

val star_class : t -> int -> int * int
(** For an atypical edge, its [(i, j)] with [i ∈ 1..2a], [j ∈ 1..3];
    [(0, 0)] for typical edges. *)

val stars : t -> i:int -> j:int -> (int * int list) list
(** Star components of [G[F_{i,j}]] as [(center, edges)] pairs — the
    center is the common higher endpoint — in ascending center order,
    each center's edges ascending. Read off the family's slice of the
    sort {!run} made, so a call costs the family's size. [[]] for a
    pair outside [1..2a] × [1..3]. *)

(** {1 Certificates (Lemmas 13, 14 and the star property)} *)

val lemma13_bound : t -> int
val check_lemma13 : t -> bool

val typical_max_degree : t -> int
val check_lemma14 : t -> bool
(** [typical_max_degree <= k]. *)

val max_atypical_per_node : t -> int
val check_atypical_bound : t -> bool
(** Every node has at most [b = 2a] atypical edges for which it is the
    lower endpoint. *)

val check_forests : t -> bool
(** Every [G[F_i]] is a forest in which each node has at most one higher
    neighbor. *)

val check_stars : t -> bool
(** Every component of every [G[F_{i,j}]] is a star centered at its
    highest node: no edge's lower endpoint is a center of its own
    class. Linear: each class stamps its centers in one array of length
    [n], so membership is one read per edge. *)

(** {1 Corollary: bounded-out-degree acyclic orientation}

    Orienting every edge from its lower to its higher endpoint gives an
    acyclic orientation with out-degree at most [k]: when a node was
    marked its remaining degree was at most [k], and all its higher
    neighbors were still alive. This is the Nash-Williams-flavoured
    orientation primitive (compare [BE10]) that the decomposition yields
    for free in [O(log_{k/a} n)] rounds. *)

val out_degree_orientation : t -> bool array
(** Per edge id: [true] if oriented from the smaller endpoint to the
    larger one; the orientation is "lower endpoint points at higher". *)

val max_out_degree : t -> int
(** Maximum out-degree of {!out_degree_orientation} (at most [k]). *)

val check_acyclic_orientation : t -> bool
(** The orientation has no directed cycle and out-degree at most [k]. *)
