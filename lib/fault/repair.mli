(** Validity checking and incremental recovery for the chaos workloads.

    Faults leave a run's labeling stale in ways a plain engine re-run
    cannot fix: flooding is monotone (a node disconnected from the
    source keeps its [1] forever), and an MIS [out] node whose last
    [in]-neighbor crashed is unwitnessed but locally stable. Repair
    therefore works {e structurally} — it finds the damaged region and
    re-solves only that region, instead of recomputing the whole
    instance from scratch:

    - {!repair_flood} re-derives the component indicator for every
      component containing a {e suspect} node (a neighbor of a crashed
      node, or a recovered node) by one BFS per suspect component —
      [O(size of touched components)], not [O(n)].
    - {!repair_mis} scans for violations ([O(n + m)] over the surviving
      view), resets the violated nodes (undecided / unwitnessed-out) to
      undecided, and re-runs the greedy kernel
      ({!Tl_engine.Flat.Kernels.mis_local_max}) on the reset region plus
      its 1-hop boundary as a fresh {!Tl_graph.Semi_graph.of_node_subset}
      view — the kernel freezes decided nodes, so the surrounding MIS
      acts as a fixed boundary condition and only the damaged region
      recomputes.

    Both repairs are deterministic (BFS and engine order are fixed) and
    both are validated by re-running the corresponding checker, which is
    what [make chaos-smoke] asserts. *)

module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph

(** {1 Validity checkers} — [O(n + m)] over the surviving view. *)

val check_flood : sg:Semi_graph.t -> source:int -> labels:int array -> bool
(** [labels.(v)] must be [1] exactly when [v] lies in the source's
    rank-2 component of [sg]; when the source itself is absent, every
    present label must be [0]. Absent nodes are ignored. *)

val check_mis : sg:Semi_graph.t -> labels:int array -> bool
(** Every present node decided; no two adjacent [in]s; every [out] has
    an [in]-neighbor (all over present rank-2 edges). *)

(** {1 Repair} *)

type stats = {
  relabeled : int;  (** labels rewritten (flood) or reset (MIS) *)
  region : int;  (** nodes of the re-solved region (incl. boundary) *)
  rounds : int;  (** engine rounds of the region re-run (MIS only) *)
}

val no_repair : stats
(** [{ relabeled = 0; region = 0; rounds = 0 }] — what a repair returns
    when the checker already passes. *)

val repair_flood :
  sg:Semi_graph.t -> source:int -> labels:int array -> suspects:int list ->
  stats
(** Recompute the source-component indicator on every component of [sg]
    containing a suspect node, writing [labels] in place. Suspects
    outside [sg] are skipped. *)

val repair_mis :
  graph:Graph.t -> sg:Semi_graph.t -> ids:int array -> labels:int array ->
  stats
(** Violation scan, reset, region re-run ({!Tl_engine.Flat.exec} of the
    MIS kernel from the current labels, over a one-shot
    {!Tl_engine.Topology.compile} of the region), splice back into
    [labels]. [ids] must be distinct, as the kernel requires. Raises
    [Failure] only if the region re-run exceeds its round budget, which
    a finite region with distinct ids cannot. *)
