(** Truly local base algorithms — the inputs [A] of the transformations.

    Each algorithm runs on a semi-graph, takes a globally unique ID
    assignment, writes a complete labeling of the semi-graph's half-edges
    in the corresponding node-edge-checkable encoding, and returns the
    exact number of synchronous LOCAL rounds it used. All have complexity
    [O(poly(Δ) + log* n)] where [Δ] is the {e underlying} degree of the
    semi-graph: Linial reduction ([log* n + O(1)] rounds) followed by
    one-class-per-round greedy reduction ([O(Δ² log² Δ)] rounds), with the
    edge problems simulated on the line graph at a 2× round overhead.

    The simulation is plain int-array work with no engine run. Vertex
    and edge problems share one chain over CSR rows indexed by node id:
    {!Linial.reduce_csr}, {!Reduce.kw_to_delta_plus_one_csr},
    {!Reduce.to_bound_csr} and the class sweep. The rows are those of
    the view's compiled topology for vertex problems, and the
    {!line_csr} for edge problems. Every per-class schedule runs
    bucketed: the nodes are counting-sorted by color once, and each
    round visits only its own class (see {!Reduce}). The order of the
    nodes within one round cannot change the outcome: the nodes that act
    in the same round share a color, and a proper coloring never puts
    two of them next to each other, so none of them reads what another
    writes that round. No step depends on the order within a row
    either. Labelings and round counts are therefore those of the plain
    one-class-per-round schedule.

    The labels are written straight into the labeling: a vertex problem
    walks each present node's base incidence row once, taking a present
    edge [e] to [u] as the node's half-edge [2e + (if v < u then 0 else
    1)]; an edge problem writes [2e] and [2e + 1]. Every write goes
    through {!Labeling.set} or {!Labeling.set_some}, so a half-edge that
    an earlier phase labeled raises [Invalid_argument]. MIS, matching and
    deg+1 coloring store [Some] blocks built once per call (one per
    label, or one per color), so their writes allocate nothing.

    When a {!Tl_obs.Span} is ambient, each step opens a child span:
    [compile] (the view's topology, vertex problems) or [line-csr] (edge
    problems), then [linial], [kw], [to-bound], [class-sweep] (MIS and
    matching) and [label] (the label writes, with the matched and
    underlying-degree arrays of the edge problems). They carry no rounds;
    the caller charges the returned total.

    The paper's Theorems 12/15 are black-box in [A]; these executable
    algorithms exercise the transformation end-to-end, while the
    state-of-the-art [f] of [BBKO22b] enters the experiments through the
    analytic model in [Tl_core.Complexity] (see DESIGN.md,
    "Substitutions"). *)

module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling

val proper_coloring :
  Semi_graph.t -> ids:int array -> int array * int * int
(** (deg+1)-coloring of the {e underlying} graph: returns
    [(colors, palette, rounds)] with [colors.(v) ∈ 0 .. udeg(v)] for
    present nodes ([-1] elsewhere) and [palette = Δ' + 1]. *)

val deg_plus_one_coloring :
  Semi_graph.t -> ids:int array -> Tl_problems.Coloring.label Labeling.t -> int
(** Base algorithm for (deg + 1)-vertex-coloring (labels are 1-based
    colors written on every present half-edge). Returns rounds. *)

val mis :
  Semi_graph.t -> ids:int array -> Tl_problems.Mis.label Labeling.t -> int
(** Base algorithm for MIS (color-class greedy over the proper coloring;
    [M] everywhere on MIS nodes, one [P] plus [O]s on the rest — [P] only
    across rank-2 edges). Returns rounds. *)

val maximal_matching :
  Semi_graph.t -> ids:int array -> Tl_problems.Matching.label Labeling.t -> int
(** Base algorithm for maximal matching via MIS on the line graph
    (Section 5.2 labels; rank-1 edges get [D]). Returns rounds. *)

val edge_coloring :
  Semi_graph.t -> ids:int array -> Tl_problems.Edge_coloring.label Labeling.t -> int
(** Base algorithm for (edge-degree + 1)-edge coloring via (deg+1)-coloring
    of the line graph (Section 5.1 labels; rank-1 edges get [D]).
    Returns rounds. *)

(** {1 Line-graph simulation} *)

type line_csr = {
  edge_of : int array;  (** base edge id of each line node *)
  off : int array;  (** row offsets, one more than the line nodes *)
  adj : int array;  (** line neighbors of each line node, by row *)
}
(** The line graph of a view's underlying graph as CSR rows: one line
    node per present rank-2 edge, numbered by ascending edge id (as
    {!line_structure}); two line nodes are adjacent iff their edges share
    a present endpoint. The row of line node [{a, b}] lists the other
    line nodes at [a], then those at [b]: [deg a + deg b - 2] entries in
    the underlying graph, never the line node itself. *)

val line_csr : Semi_graph.t -> line_csr
(** Write the line CSR straight from the base graph's incidence arrays:
    count each row, then fill the rows through one write cursor per line
    node. No line [Graph.t], semi-graph or topology is built.
    [O(n + m + Σ deg²)]. The edge problems run base algorithm A on
    it. *)

val line_structure : Semi_graph.t -> Tl_graph.Graph.t * int array
(** [(lg, edge_of)] where [lg] has one node per present rank-2 edge
    (adjacent iff the edges share a present endpoint) and [edge_of]
    maps [lg]-nodes back to base edge ids. Line nodes follow ascending
    edge id; line edges are numbered in reverse of their discovery order
    (present nodes ascending, pairs of incident edges in incident
    order). No pipeline calls it: it is the reference that the
    benchmark's replay and the tests check {!line_csr} and the edge
    problems against. *)
