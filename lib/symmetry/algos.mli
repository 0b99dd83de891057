(** Truly local base algorithms — the inputs [A] of the transformations.

    Each algorithm runs on a semi-graph, takes a globally unique ID
    assignment, writes a complete labeling of the semi-graph's half-edges
    in the corresponding node-edge-checkable encoding, and returns the
    exact number of synchronous LOCAL rounds it used. All have complexity
    [O(poly(Δ) + log* n)] where [Δ] is the {e underlying} degree of the
    semi-graph: Linial reduction ([log* n + O(1)] rounds) followed by
    one-class-per-round greedy reduction ([O(Δ² log² Δ)] rounds), with the
    edge problems simulated on the line graph at a 2× round overhead.

    The simulation runs every per-class schedule bucketed: the nodes are
    counting-sorted by color once, and each round visits only its own
    class, reading adjacency from the CSR of the compiled topology (see
    {!Reduce} for the reductions). The order of the nodes within one
    round cannot change the outcome: the nodes that act in the same
    round share a color, and a proper coloring never puts two of them
    next to each other, so none of them reads what another writes that
    round. Labelings and round counts are therefore those of the plain
    one-class-per-round schedule.

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

val line_structure : Semi_graph.t -> Tl_graph.Graph.t * int array
(** [(lg, edge_of)] where [lg] has one node per present rank-2 edge
    (adjacent iff the edges share a present endpoint) and [edge_of]
    maps [lg]-nodes back to base edge ids. Line nodes follow ascending
    edge id; line edges are numbered in reverse of their discovery order
    (present nodes ascending, pairs of incident edges in incident
    order). *)
