(** Deterministic synchronous simulator for the LOCAL model (Definition 5).

    The simulation uses the standard state-reading formulation, equivalent
    to LOCAL with unbounded messages: in every round each node atomically
    reads the current published state of all neighbors reachable over
    rank-2 edges of the semi-graph, then computes its next state. The
    number of executed rounds is returned; algorithms built on top record
    their cost in a {!Round_cost.t} ledger.

    Since the engine subsystem landed, these entry points are thin
    compatibility wrappers over {!Tl_engine.Engine}: the semi-graph is
    compiled once into a CSR {!Tl_engine.Topology} snapshot and stepped
    with the double-buffered active-set scheduler (no per-round full
    copies; converged regions cost zero). The optional [mode] selects the
    stepper — [Naive] (the original full-scan reference), [Seq] (default,
    via {!Tl_engine.Engine.default_mode}), [Par p] (OCaml 5 domains,
    deterministic chunking), [Shard s] (the sharded halo-exchange
    backend {!Tl_shard.Shard}) or [Proc p] (one worker process per
    shard, [Tl_proc.Coordinator]); the runtime force-links both backends
    so they are available in every binary built on it. All are
    bit-identical under the engine's stationarity contract (see
    {!Tl_engine.Engine}).

    Determinism: given the semi-graph, the ID assignment and a
    deterministic [step], runs are bit-for-bit reproducible across all
    modes and schedulings.

    Observability: when a {!Tl_obs.Span} is ambient, every entry point
    traces its engine run (creating a {!Tl_engine.Trace} if the caller
    supplied none) and attaches it to the current span as an
    ["engine:<label>"] child, so phase spans opened by the callers show
    where the simulator actually spent its work. *)

type 'state outcome = {
  states : 'state array;
      (** Final state per base node (only present nodes are meaningful). *)
  rounds : int;  (** Number of synchronous rounds executed. *)
}

val run :
  sg:Tl_graph.Semi_graph.t ->
  init:(int -> 'state) ->
  step:
    (round:int ->
    node:int ->
    'state ->
    neighbors:(int * int * 'state) list ->
    'state) ->
  halted:('state -> bool) ->
  max_rounds:int ->
  'state outcome
(** [run ~sg ~init ~step ~halted ~max_rounds] initializes every present
    node with [init node] and then executes synchronous rounds: in round
    [r] (starting from 1) each present node [v] receives
    [step ~round:r ~node:v state ~neighbors] where [neighbors] lists
    [(neighbor, edge, neighbor_state)] over present rank-2 edges. The run
    stops as soon as every present node's state satisfies [halted] —
    checked {e before} the first round, so an already-halted configuration
    costs 0 rounds — or when [max_rounds] is reached, whichever comes
    first. Raises [Failure] if [max_rounds] is exceeded with non-halted
    nodes, as a guard against non-terminating algorithms. The stepper is
    selected by {!Tl_engine.Engine.default_mode}; active-set change
    detection uses structural equality. *)

val run_until_stable :
  sg:Tl_graph.Semi_graph.t ->
  init:(int -> 'state) ->
  step:
    (round:int ->
    node:int ->
    'state ->
    neighbors:(int * int * 'state) list ->
    'state) ->
  equal:('state -> 'state -> bool) ->
  max_rounds:int ->
  'state outcome
(** Like {!run}, but stops when a global fixed point is reached (no state
    changed during a round). The fixed-point detection round itself is not
    charged. *)

val run_with :
  ?mode:Tl_engine.Engine.mode ->
  ?sched:Tl_engine.Engine.scheduling ->
  ?equal:('state -> 'state -> bool) ->
  ?trace:Tl_engine.Trace.t ->
  sg:Tl_graph.Semi_graph.t ->
  init:(int -> 'state) ->
  step:
    (round:int ->
    node:int ->
    'state ->
    neighbors:(int * int * 'state) list ->
    'state) ->
  halted:('state -> bool) ->
  max_rounds:int ->
  unit ->
  'state outcome
(** {!run} with explicit engine controls: stepper [mode] ([Naive] /
    [Seq] / [Par p] / [Shard s] / [Proc p]), [sched]uling, active-set
    [equal] and a [trace] collector. *)

val run_until_stable_with :
  ?mode:Tl_engine.Engine.mode ->
  ?sched:Tl_engine.Engine.scheduling ->
  ?trace:Tl_engine.Trace.t ->
  sg:Tl_graph.Semi_graph.t ->
  init:(int -> 'state) ->
  step:
    (round:int ->
    node:int ->
    'state ->
    neighbors:(int * int * 'state) list ->
    'state) ->
  equal:('state -> 'state -> bool) ->
  max_rounds:int ->
  unit ->
  'state outcome
(** {!run_until_stable} with explicit engine controls. *)

val charge_trace : Round_cost.t -> Tl_engine.Trace.t -> unit
(** Merge an engine trace into a round ledger: charges the measured
    engine rounds under the phase ["engine:<label>"]. Used by the CLI to
    surface [--trace] metrics in the standard ledger report. *)
