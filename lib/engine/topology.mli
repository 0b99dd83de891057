(** Compiled topology snapshot of a semi-graph.

    A {!Tl_graph.Semi_graph.t} answers {!Tl_graph.Semi_graph.rank2_neighbors}
    by scanning the base incidence arrays and re-checking node/edge presence
    on every call, allocating a fresh list each time — which a naive
    stepper does once per node per round. A topology compiles that view once
    into CSR (compressed sparse row) arrays over the {e rank-2} adjacency:
    for each present node, the present rank-2 neighbors and the connecting
    edge ids, in the same ascending incident order as [rank2_neighbors].
    The engine's hot loop then runs over flat [int] arrays with no
    presence checks. A slot's half-edge id is not stored: at row node [v]
    with neighbor [u] over edge [e] it is [2e + (if v < u then 0 else 1)]
    (see {!Tl_graph.Graph}).

    The snapshot is immutable; the exposed arrays must not be mutated. *)

type t = private {
  sg : Tl_graph.Semi_graph.t;  (** the view this was compiled from *)
  n_base : int;  (** nodes of the base graph (array extents) *)
  n_present : int;
  present : bool array;
  present_nodes : int array;  (** present node ids, ascending *)
  off : int array;  (** CSR row offsets, length [n_base + 1] *)
  adj : int array;  (** neighbor node id per CSR slot *)
  eid : int array;  (** connecting edge id per CSR slot *)
}

val compile : Tl_graph.Semi_graph.t -> t
(** Flatten the rank-2 adjacency of a semi-graph. [O(n + m)]. Always
    compiles afresh: the library keeps no snapshot across calls. A
    caller that runs many times over one unchanged view compiles it once
    and holds the result — the serving daemon keeps each instance's
    snapshot in its bounded instance cache, and a chaos run recompiles
    only after an event round changed its view. *)

val clear_cache : unit -> unit
(** Does nothing. There is no process-wide snapshot cache to clear; the
    function stays only because the end-to-end benchmark
    (bench/e2e/batch.ml's [settle]) still calls it, and goes when that
    benchmark drops the call. *)

val n_base : t -> int
val n_present : t -> int
val present : t -> int -> bool

val degree : t -> int -> int
(** Rank-2 (underlying) degree of a node; [0] for absent nodes. *)

val max_degree : t -> int
(** Maximum rank-2 degree over present nodes. *)

val neighbor_nodes : t -> int -> int list
(** Present rank-2 neighbor ids of a node, ascending incident order —
    the CSR equivalent of
    [List.map fst (Semi_graph.rank2_neighbors sg v)]. *)

val neighbor_pairs : t -> int -> (int * int) list
(** [(neighbor, edge)] pairs, identical order and contents to
    [Semi_graph.rank2_neighbors sg v]. *)
