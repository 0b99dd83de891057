(** The engine's execution path: int-slab node states, closure-free
    stepping, zero minor-heap allocation per step.

    A run holds the state in preallocated [int array] slabs indexed by
    node slot: a kernel's [step] reads neighbor states straight out of
    the CSR arrays and writes its node's slots in place. The hot loop
    allocates {e nothing} on the minor heap — no neighbor lists, no
    closures, no boxed floats (round timing is only taken when a trace
    is attached). A boxed step that is handed a fresh
    [(neighbor, edge, state)] list allocates about 6 words per neighbor:
    hundreds of MB of short-lived garbage per round on a million-node
    instance.

    Flat kernels are what the services run: served flood and the chaos
    epochs step them in every engine mode through
    [Tl_proc.Coordinator.run_kernel] (which runs {!exec} for [Seq] and
    [Par], and one worker process per shard for [Proc]), and
    [Tl_fault.Repair] re-runs its MIS region with {!exec}. Their
    reference is the naive full-scan oracle of the test suite
    ([test/naive.ml]): a boxed stepper that shares no round loop with
    this path. The differential batteries in [test/test_engine.ml] check
    states, round counts, per-round trace records and failure texts of
    every flat kernel against it.

    {2 Determinism}

    A run is the shared round body ({!Stepper}: scheduling, frontier
    maintenance, the commit and the parallel chunking) over this
    module's {!store} (change detection is a word comparison over a
    node's slots), so it produces the same states, round count and
    per-round [active]/[changed]/[unhalted] trace records for any [par]
    and any {!Engine.par_grain}. Rounds run through {!Engine.drive}, so
    the stop rules, the {!Engine.fault_gate} check and the
    [max_rounds] [Failure] texts are the engine's. Parallel rounds fan
    out over the persistent domain {!Team} in fixed contiguous
    chunks. *)

type ctx = {
  n_base : int;
  n_present : int;
  off : int array;  (** CSR row offsets (see {!Topology}) *)
  adj : int array;  (** neighbor node id per CSR slot *)
  eid : int array;  (** connecting edge id per CSR slot *)
  slots : int;  (** state words per node *)
  cur : int array;  (** published states, [node * slots + slot]; read-only in [step] *)
  nxt : int array;  (** round buffer; [step ~node:v] must write all of [v]'s slots *)
}
(** The preallocated view a kernel steps over. A [step] call for node
    [v] may read any [cur] entry (its own and its neighbors' slots, via
    [off]/[adj]) and must write {e exactly} the [slots] words
    [nxt.(v * slots) .. nxt.(v * slots + slots - 1)] — writing any other
    node's slots breaks the ownership discipline that makes parallel
    rounds deterministic. *)

type kernel = {
  name : string;
  slots : int;  (** state words per node, >= 1 *)
  scratch_words : int;
  (** per-worker scratch slab size ([scratch] argument of [step]);
          0 for kernels that need none *)
  init : node:int -> slot:int -> int;  (** initial slab contents *)
  step : ctx -> scratch:int array -> round:int -> node:int -> unit;
  (** one node step; must not allocate on its hot path — neighbor
          scans belong in top-level recursive helpers, not local
          closures *)
  halted : (ctx -> node:int -> bool) option;
      (** halting predicate on the {e published} state, for the
          [Halted] stop policy; [None] restricts the kernel to
          [Stable] / [Rounds] *)
}

type outcome = { slab : int array; slots : int; rounds : int }

val read : outcome -> node:int -> slot:int -> int
(** [slab.(node * slots + slot)]. *)

val column : outcome -> slot:int -> int array
(** One state word per node (length [n_base]), for differential
    comparison. *)

val validate : stop:Engine.stop -> kernel -> unit
(** Raises [Invalid_argument] for a kernel with [slots < 1], or without
    [halted] under [Halted] — what every flat run checks first. *)

val exec :
  ?par:int ->
  ?sched:Engine.scheduling ->
  ?trace:Trace.t ->
  ?label:string ->
  topo:Topology.t ->
  kernel:kernel ->
  stop:Engine.stop ->
  unit ->
  outcome
(** One in-process flat run under the stop policy [stop] (the table in
    {!Engine}): [Halted max_rounds] (requires [kernel.halted]) runs
    until every present node halts, [Stable max_rounds] until a round
    changes nothing (the detection round is not charged), [Rounds r]
    exactly [r] rounds of a fixed schedule (use [~sched:Full_scan] for
    round-number-driven kernels). [par] defaults to 1 (pure
    sequential, the zero-allocation reference path); [par > 1] fans
    rounds with more than {!Engine.par_grain} active nodes per chunk
    out to the domain team. The label defaults to
    ["flat." ^ kernel.name]; traces are stamped
    [mode = "flat:seq" | "flat:par:N"] and delivered to
    {!Engine.trace_sink} / {!Engine.metrics_sink}. Raises
    [Invalid_argument] as {!validate} does. *)

val store :
  Stepper.csr -> workers:int -> halting:bool -> kernel -> ctx * Stepper.store
(** The flat store of the shared round body, over the whole topology or
    a shard's sub-CSR (then [kernel] indexes local ids; ghosts get
    [init] of their local id too): a slab of [n_local] nodes, a step
    slab of the [n_owned] that step, one scratch slab per worker, a
    node changes when any of its words does, and [halted] is the
    kernel's exactly when [halting]. Returns the [ctx] — whose [cur]
    holds the published states — with the store over it. *)

(** Stock kernels, bit-compatible with the boxed machines the test
    suite's naive oracle runs. *)
module Kernels : sig
  val flood : ?source:int -> unit -> kernel
  (** Reachability flood from [source] (default 0): slot 0 is 0/1.
      Boxed twin: [s || exists neighbor reached] over [bool] states
      (state [b] encodes as [Bool.to_int b]). [halted] is "reached" —
      stop on [Stable] on graphs where not every node is reachable. *)

  val mis_local_max : ids:int array -> kernel
  (** Greedy MIS by local id maximum, slot 0 in {0 undecided; 1 in;
      2 out}: an undecided node joins when every undecided neighbor has
      a smaller id, leaves when a neighbor joined; a decided node never
      changes, so a run from a partial labeling (a chaos epoch, a repair
      region) keeps it as a fixed boundary. Adjacent equal ids block
      each other, so [ids] must be distinct (as [Tl_local.Ids] makes
      them). Bit-compatible with the [mis_step] machine in
      test/test_engine.ml. [halted] is "decided". *)
end
