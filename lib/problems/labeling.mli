(** Half-edge labelings — the single source of truth for solutions.

    A labeling assigns an optional label to every half-edge of a base
    graph, indexed by the stable half-edge ids of {!Tl_graph.Graph}. The
    multi-phase transformations of the paper write into one shared
    labeling: phase boundaries are visible as the already-[Some] entries
    (the [χ(e)] / [χ(u)] context of Algorithms 2 and 4). *)

type 'l t

val create : Tl_graph.Graph.t -> 'l t
(** All half-edges unlabeled. *)

val graph : 'l t -> Tl_graph.Graph.t

val get : 'l t -> int -> 'l option
val set : 'l t -> int -> 'l -> unit
(** Raises [Invalid_argument] if the half-edge is already labeled
    (phases must never overwrite each other). *)

val set_some : 'l t -> int -> 'l option -> unit
(** [set_some t h (Some l)] is [set t h l] without allocating: the
    labeling stores the caller's block. A solver writing a few constant
    labels shares one preallocated [Some] per label, so its writes
    allocate nothing and leave no young block for the minor GC to
    promote. Raises [Invalid_argument] on [None], as [set] does on a
    labeled half-edge. *)

val set_exn_free : 'l t -> int -> 'l -> unit
(** Unchecked assignment, for tests that need to build arbitrary
    (including invalid) labelings. *)

val is_labeled : 'l t -> int -> bool

val labels_at_node : 'l t -> int -> 'l list
(** Labels currently assigned to half-edges at a node (unlabeled ones
    skipped). *)

val labels_at_edge : 'l t -> int -> 'l list
(** Labels currently assigned to the (up to two) half-edges of an edge. *)

val node_fully_labeled : 'l t -> int -> bool
val complete : 'l t -> bool
(** Every half-edge of the base graph is labeled. *)

val unlabeled_count : 'l t -> int

val copy : 'l t -> 'l t
