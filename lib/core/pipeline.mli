(** Ready-made end-to-end pipelines: each of the four flagship problems
    wired to its base algorithm, list-variant solver and default
    complexity model. These are the entry points used by the examples,
    the CLI and the experiments.

    The Theorem 12 and Theorem 15 pipelines take [?workers] (default
    [1]), the pool width that fans out their gather-solve or star phase
    ({!Tl_core.Theorem1.run}, {!Tl_core.Theorem2.run}); the labeling
    and the ledger are bit-identical for every width. *)

type 'l report = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  total_rounds : int;
  valid : bool;  (** Definition 6 validation on the input graph. *)
  k : int;  (** decomposition parameter actually used *)
  violations : Tl_problems.Nec.violation list;
}

(** {1 Theorem 12 pipelines (trees)} *)

val mis_on_tree :
  ?workers:int -> ?k:int -> tree:Tl_graph.Graph.t -> ids:int array ->
  unit -> Tl_problems.Mis.label report
(** MIS on a tree via Theorem 12. Default [k] from the paper's
    [f(Δ) = Θ(Δ)] model (the tight truly local complexity of MIS), i.e.
    [k·ln k = ln n] giving the [O(log n / log log n)] bound of [BE10]. *)

val coloring_on_tree :
  ?workers:int -> ?k:int -> tree:Tl_graph.Graph.t -> ids:int array ->
  unit -> Tl_problems.Coloring.label report
(** (deg+1)-vertex coloring on a tree via Theorem 12. *)

val delta_coloring_on_tree :
  ?workers:int -> ?k:int -> tree:Tl_graph.Graph.t -> ids:int array ->
  unit -> Tl_problems.Coloring.label report
(** (Δ+1)-vertex coloring on a tree: the (deg+1) pipeline validated
    against the (Δ+1) constraints (a (deg+1) solution always is one). *)

val sinkless_orientation_on_tree :
  tree:Tl_graph.Graph.t -> ids:int array -> unit ->
  Tl_problems.Orientation.label report
(** Sinkless orientation on trees in Θ(log n) rounds ({!Sinkless}) —
    the paper's example of a problem with a nontrivial tight bound. *)

(** {1 Theorem 15 pipelines (bounded arboricity; trees are [a = 1])} *)

val matching_on_graph :
  ?workers:int -> ?rho:int -> ?k:int -> graph:Tl_graph.Graph.t -> a:int ->
  ids:int array -> unit -> Tl_problems.Matching.label report
(** Maximal matching via Theorem 15 with the Section 5.2 encoding;
    reproves the [O(log n / log log n)] bound on trees ([a = 1]). *)

val edge_coloring_on_graph :
  ?workers:int -> ?rho:int -> ?k:int -> graph:Tl_graph.Graph.t -> a:int ->
  ids:int array -> unit -> Tl_problems.Edge_coloring.label report
(** (edge-degree+1)-edge coloring via Theorem 15 with the Section 5.1
    encoding — the executable counterpart of Theorem 3. *)

val two_delta_edge_coloring_on_graph :
  ?workers:int -> ?rho:int -> ?k:int -> graph:Tl_graph.Graph.t -> a:int ->
  ids:int array -> unit -> Tl_problems.Edge_coloring.label report
(** (2Δ-1)-edge coloring: the (edge-degree+1) pipeline validated against
    the explicit (2Δ-1) palette (Theorem 3 covers both). *)

(** {1 Direct baselines}

    The base algorithms run directly on the whole graph — the
    [O(f(Δ) + log* n)] upper bound the transformation improves upon when
    [Δ] is large. *)

val mis_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Mis.label report

val coloring_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Coloring.label report

val matching_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Matching.label report

val edge_coloring_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Edge_coloring.label report
