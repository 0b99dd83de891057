(** Maximal matching, exactly the encoding of Section 5.2 of the paper.

    Labels: [M] (matched via this edge), [P] (this node is matched, via
    some other edge), [O] (this node is unmatched), [D] (dangling rank-1
    edge). Node constraint [N^i]: either exactly one [M] and the rest in
    [{P,O,D}], or no [M] and everything in [{O,D}]. Edge constraints:
    [E⁰ = {∅}], [E¹ = {{D}}], [E² = {{P,O}, {M,M}, {P,P}}] — note
    [{O,O} ∉ E²] is what encodes maximality. *)

type label = M | P | O | D

val problem : label Nec.t

val decode : Tl_graph.Graph.t -> label Labeling.t -> bool array
(** [in_matching] per edge id: both half-edges labeled [M]. *)

val encode : Tl_graph.Graph.t -> bool array -> label Labeling.t
(** Encode a maximal matching per Section 5.2. Raises [Invalid_argument]
    if the edge set is not a maximal matching. *)

val solve_node_list :
  Tl_graph.Graph.t -> label Labeling.t -> edges:int list -> unit
(** The [Π*] completion used by Theorem 15's Algorithm 4 — the labeling
    process of Lemma 17. Processes [edges] (which must be rank-2 and have
    both half-edges unlabeled) in the given order; for edge [{v1, v2}]
    writes [M,M] if neither endpoint currently carries an [M], [P] on an
    endpoint that does and [O]/[P] accordingly otherwise. Whether a node
    carries an [M] is read from the labeling once per call and then
    tracked by the call, so nothing else may write at these nodes during
    the call (concurrent calls on node-disjoint stars may run). *)

val solve_sequential : Tl_graph.Graph.t -> label Labeling.t
(** Greedy maximal matching from scratch (edges in ascending id order). *)
