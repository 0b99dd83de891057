(** Node-edge-checkable problems (Definition 6) as first-class values.

    A problem is given by predicates on the multisets of labels around
    nodes and edges, instead of materialized collections [N_Π] / [E_Π]
    (which are infinite for problems like (edge-degree + 1)-edge coloring).
    The node predicate receives the full multiset of labels on the node's
    incident half-edges (its cardinality is the node's degree in the
    semi-graph); the edge predicate receives the labels on the edge's
    incident half-edges (cardinality = rank).

    The list variants Π{^ *} (Definition 7) and Π{^ ×} (Definition 8) are
    represented {e operationally} by the [solve_node_list] /
    [solve_edge_list] completion procedures each concrete problem module
    provides: given a partial labeling in which, respectively, every
    {e node} (resp. {e edge}) outside the target part is either fully
    labeled or fully unlabeled, they extend the labeling over the part.
    This matches how the paper uses the list variants inside Algorithms 2
    and 4, where the input lists [h_in] are exactly "the configurations
    still compatible with the fixed context [χ]". *)

type 'l t = {
  name : string;
  equal_label : 'l -> 'l -> bool;
  pp_label : Format.formatter -> 'l -> unit;
  node_ok : 'l list -> bool;
      (** Whether a multiset is in [N_Π{^ deg}]. Receives all labels on the
          node's present half-edges, in the order of
          {!Tl_graph.Graph.incident}. *)
  edge_ok : 'l list -> bool;
      (** Whether a multiset is in [E_Π{^ rank}]. Receives the labels of
          the edge's present endpoints, smaller endpoint first. *)
}

(** {1 Validation} *)

type violation =
  | Node_violation of int * string  (** node id, rendered configuration *)
  | Edge_violation of int * string  (** edge id, rendered configuration *)
  | Missing_half_edge of int  (** half-edge id with no label *)

val validate_semi :
  'l t -> Tl_graph.Semi_graph.t -> 'l Labeling.t -> violation list
(** Check a labeling against the problem on a semi-graph: every present
    half-edge must be labeled, every present node's configuration must be
    in [N_Π] and every present edge's (rank-sized) configuration in
    [E_Π]. Labels on absent half-edges are ignored. Returns all
    violations ([[]] means valid).

    A node is checked only once all its present half-edges are labeled,
    and an edge once all its present endpoints' half-edges are; a rank-0
    edge is checked on [[]]. Violations come in a fixed order: missing
    half-edges by descending id, then node violations by ascending node
    id, then edge violations by ascending edge id. A configuration is
    rendered in the order its predicate receives it ([node_ok]: incident
    order; [edge_ok]: smaller endpoint first).

    Cost: one pass over the base edges and one over the base nodes,
    reading labels straight from the incidence arrays, and one list cell
    per label handed to a predicate. *)

val validate : 'l t -> Tl_graph.Graph.t -> 'l Labeling.t -> violation list
(** {!validate_semi} on the whole graph. *)

val validate_partial : 'l t -> Tl_graph.Graph.t -> 'l Labeling.t -> violation list
(** The inductive invariant of the Theorem 12/15 correctness proofs:
    check only the {e fully labeled} nodes and edges against [N_Π] /
    [E_Π], ignoring everything still unlabeled. Phase boundaries of the
    transformations must satisfy this (every configuration completed so
    far is already correct); the transformations assert it when run with
    [~check_invariants:true]. *)

val is_valid : 'l t -> Tl_graph.Graph.t -> 'l Labeling.t -> bool

val pp_violation : Format.formatter -> violation -> unit

(** {1 Helpers for defining problems} *)

val multiset_equal : ('l -> 'l -> bool) -> 'l list -> 'l list -> bool
(** Equality of multisets under a label equality. *)

val count : ('l -> bool) -> 'l list -> int
(** Number of labels satisfying the predicate; allocates nothing, so
    predicates built on it stay allocation-free. *)
