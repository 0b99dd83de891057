(** Deterministic execution engine for the LOCAL model (Definition 5):
    synchronous rounds in which every present node reads its rank-2
    neighbors' published states, run over a compiled {!Topology}
    snapshot. Node states are int slabs stepped by {!Flat} kernels; a
    run's {!mode} picks where the rounds execute:

    - [Seq] — single-threaded, double-buffered with an O(changed)-cost
      commit and, under [Active_set] scheduling, a frontier queue: only
      nodes whose 1-hop neighborhood changed in the previous round are
      re-stepped, so converged regions cost zero ({!Flat.exec}).
    - [Par p] — the [Seq] stepper with the per-round compute fanned out
      over [p] workers of the persistent domain {!Team} (spawned once
      per process, parked on a barrier between rounds) in fixed
      deterministic contiguous chunks of the active array. Reads go to
      the current buffer only and every active node is written by
      exactly one domain, so results are bit-identical to [Seq]
      regardless of [p], the {!par_grain} inline threshold, or thread
      interleaving.
    - [Proc p] — the process-parallel distributed backend
      ([Tl_proc.Coordinator.run_kernel]): the snapshot is partitioned by
      [Tl_shard.Plan] into [p] contiguous shards with ghost (halo)
      copies of remote neighbors, one Unix process per shard, halos
      exchanged over socketpairs in a length-prefixed binary wire format
      and termination decided by a [changed]-count allreduce over a
      collective tree.

    Every mode runs the shared {!Stepper} round body ([Proc] per shard,
    in its workers) under the one round driver {!drive}. The services
    (served flood, [Tl_fault.Chaos]'s epochs, [Tl_fault.Repair]'s region
    re-run) are such runs. The mode is an argument of every run, never
    process state: the caller that owns a run — the CLI's [chaos]
    command, the daemon per request, a bench kernel — passes it down to
    [Tl_proc.Coordinator.run_kernel]. The paper's pipelines
    ([Tl_core.Theorem1]/[Theorem2]) make no engine run at all; their
    phases are direct loops.

    {2 Determinism guarantee}

    For a fixed topology, kernel and ID assignment, all modes and
    schedulings produce bit-identical final states and round counts,
    {e provided} the kernel's step is stationary: its output depends
    only on the node's state and its neighbors' states — not on
    [~round] — whenever those inputs are unchanged from the previous
    round. (Between rounds with different inputs, a step may use
    [~round] freely; schedules that fire on specific round numbers
    independently of state must use [Full_scan].) Under [Active_set] a
    node with an unchanged closed neighborhood is not re-stepped;
    stationarity is exactly the condition making that skip
    unobservable.

    All modes raise [Failure] when [max_rounds] is exhausted; the
    active-set stepper additionally fails fast, with the same text,
    when the active set drains while unhalted nodes remain (a
    stationary machine can then never halt). The test suite's naive
    full-scan oracle ([test/naive.ml]) holds every mode to these
    rules. *)

type mode = Seq | Par of int | Proc of int

type scheduling = Stepper.scheduling =
  | Active_set  (** re-step only nodes with a changed 1-hop neighborhood *)
  | Full_scan  (** re-step every present node every round *)

val mode_to_string : mode -> string
val sched_to_string : scheduling -> string

val mode_of_string : string -> mode
(** Parses ["seq"], ["par:N"] and ["proc:N"] (N >= 1): for every [m],
    [mode_of_string (mode_to_string m) = m]. Raises [Invalid_argument]
    with a message naming the offending input for anything else: a bare
    ["par"] or ["proc"] (the count is part of the mode),
    ["par:0"]/["proc:0"] (count must be >= 1), non-digit,
    zero-padded or out-of-range counts, and strings with surrounding
    whitespace
    (callers splitting config lines forget to trim; a silent accept here
    would mask that). *)

val par_grain : int ref
(** Minimum active-set size {e per chunk} for a [Par] round to fan out
    to the domain team: a round fans out only when
    [count > par_grain * p], otherwise it computes inline on the calling
    domain (the barrier handshake costs more than the step work unless
    every worker gets a sizable chunk). Chunk assignment is a pure
    function of the active count, so the grain never changes results —
    only which domain computes them. Default [2048]; tests pin it to
    [0] to force the team on. *)

val trace_sink : (Trace.t -> unit) option ref
(** When set, every engine run reports its trace here (creating an
    internal trace if the caller did not supply one) — the hook behind
    the CLI's [--trace]. Traces are delivered even when the run raises. *)

val metrics_sink : (Trace.t -> unit) option ref
(** Second per-run delivery hook with the same contract as
    {!trace_sink} (internal trace creation, delivery on raise), invoked
    after it. Owned by [Tl_obs.Metrics.enable], which sits above this
    library in the DAG and feeds the [engine_*] registry metrics from
    each finished trace. Independent of [trace_sink]: either, both or
    neither may be set. *)

val fault_gate : (round:int -> bool) option ref
(** Fault-injection round gate, owned by [Tl_fault.Injector] (above this
    library in the DAG, like the sinks). When set, every in-process
    stepper consults it once per {e committed} round — [g ~round:r]
    fires after round [r]'s states are published. Returning [false]
    interrupts the run at that round boundary: the stepper returns the
    states exactly as committed, [rounds] counts only the executed
    rounds, and the usual [max_rounds] [Failure] is suppressed (an
    interrupted run is not a diverged run). The caller that armed the
    gate is expected to know it fired (the injector records the trip)
    and resume with a fresh run over the repaired topology. Disarmed
    ([None], the default) the gate costs one ref read per round and
    nothing per node — the same discipline as [Tl_obs.Metrics.enable].
    Every backend checks it in the shared {!drive} (the proc backend on
    its coordinator, between worker rounds). *)

val gate_open : round:int -> bool
(** [true] when no gate is armed or the armed gate allows continuing
    past committed round [round]. *)

(** {2 Stop policies and the round driver}

    Every backend ({!Flat.exec} for [Seq]/[Par] and the [Tl_proc]
    coordinator) runs its rounds through {!drive}. The driver owns
    these rules:

    {v
                    Halted m             Stable m             Rounds n
    runs while      some node unhalted   not at fixed point   round <= n
                    and rounds < m       and rounds < m
    counted rounds  every executed one   every changing one   all n (or up
                                         (the no-change       to the gated
                                         detection round is   round when
                                         traced, not counted) interrupted)
    active set      stall: exhausted     fixed point: stable  round skipped
    drains                                                    but counted
    trace unhalted  recorded             -1                   -1
    fault gate      after each counted round, skipped ones included;
                    closing it stops the run without a failure
    exhausted       "Engine.run:         "Engine.run_until_   never
    failure text    max_rounds=%d        stable: max_rounds=
                    exceeded"            %d exceeded"
    v}

    Round [r] is numbered from 1 and is the number passed to [step]. *)

type stop =
  | Halted of int  (** until every present node halts, within max_rounds *)
  | Stable of int  (** until a round changes nothing, within max_rounds *)
  | Rounds of int  (** exactly this many scheduled rounds *)

val drive :
  trace:Trace.t option ->
  stop:stop ->
  active:(unit -> int) ->
  unhalted:(unit -> int) ->
  exec:(int -> int) ->
  int * bool
(** [drive ~trace ~stop ~active ~unhalted ~exec] runs rounds under
    [stop]: [active ()] is the size of the next round's active set,
    [unhalted ()] the current unhalted count (read only under [Halted]),
    and [exec r] executes and commits round [r], returning how many
    nodes changed. Returns the counted rounds and whether the policy was
    exhausted. The driver does not raise on exhaustion: the backend
    cleans up first (writes back states, stops workers) and then calls
    {!exhausted}. Records one trace entry per executed round; reads the
    wall clock only when [trace] is attached and allocates nothing per
    round. *)

val exhausted : stop -> 'a
(** Raises the policy's exhausted [Failure] (see the table above) —
    byte-identical across all modes. [Invalid_argument] for [Rounds],
    which never exhausts. *)

val begin_trace :
  ?trace:Trace.t ->
  label:string ->
  mode:string ->
  sched:scheduling ->
  Topology.t ->
  Trace.t option
(** The run's trace: the caller's [trace], else a fresh one when a sink
    is set, else [None]; stamped with [mode] (e.g. ["flat:seq"],
    ["flat:par:2"], ["proc:4"]), scheduling and sizes. *)

val with_trace : Trace.t option -> (unit -> 'a) -> 'a
(** Runs the thunk, then finishes the trace and delivers it to
    {!trace_sink} and {!metrics_sink} — also when the thunk raises. *)
