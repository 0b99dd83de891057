(** (Edge-degree + 1)-edge coloring, exactly the encoding of Section 5.1.

    Labels are pairs [(a, b)] — [a] the {e degree part}, [b] the {e color
    part} — plus [D] for dangling rank-1 edges. Node constraint: among the
    non-[D] labels [{(a_1,b_1), ..., (a_p,b_p)}], every [a_k <= p] and all
    color parts [b_k] pairwise distinct (properness). Edge constraints:
    [E⁰ = {∅}], [E¹ = {{D}}], and
    [E² = {{(a_1,b), (a_2,b)} | a_1 + a_2 >= b + 1}] — the two sides share
    the color [b], and the degree parts certify
    [b <= a_1 + a_2 - 1 <= edge-degree + 1]. *)

type label = Pair of int * int | D

val problem : label Nec.t
(** (edge-degree + 1)-edge coloring. *)

val problem_two_delta : delta:int -> label Nec.t
(** (2Δ - 1)-edge coloring for a fixed [delta]: same constraints plus the
    explicit palette bound [b <= 2Δ - 1]. Any valid (edge-degree + 1)
    solution is also valid here, as [edge-degree + 1 <= 2Δ - 1]. *)

val decode : Tl_graph.Graph.t -> label Labeling.t -> int array
(** Color part per edge id ([0] if unlabeled or dangling). *)

val encode : Tl_graph.Graph.t -> int array -> label Labeling.t
(** Encode a proper edge coloring with [color e <= edge_degree e + 1]
    (colors are positive). Raises [Invalid_argument] otherwise. *)

val solve_node_list :
  Tl_graph.Graph.t -> label Labeling.t -> edges:int list -> unit
(** The [Π*] completion used by Theorem 15's Algorithm 4 — the labeling
    process of Lemma 16. For each edge [{v1, v2}] (rank-2, both half-edges
    unlabeled) in order: let [c_i] be the number of non-[D] labels
    currently at [v_i]; choose the smallest color [c <= c_1 + c_2 + 1]
    absent from both endpoints and write [(c_1 + 1, c)], [(c_2 + 1, c)].
    Each endpoint's labels are read once per call, into a count and a
    color set that the call then updates as it writes, so a star's hub
    costs its degree once rather than once per edge. Concurrent calls
    must touch disjoint nodes (Theorem 15's stars of one class do). *)

val solve_sequential : Tl_graph.Graph.t -> label Labeling.t
(** Greedy (edge-degree + 1)-edge coloring from scratch. *)
