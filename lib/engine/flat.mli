(** Flat (unboxed) execution path: int-slab node states, closure-free
    stepping, zero minor-heap allocation per step.

    The boxed steppers in {!Engine} pay, per step, a fresh
    [(neighbor, edge, state)] list (≈ 6 words per neighbor) plus a
    polymorphic [step] call — on a million-node instance that is
    hundreds of MB of short-lived garbage per round, and it is why
    `par:{2,4}` lost to `seq` in BENCH_engine.json. This module is the
    same engine discipline (double buffer, active-set scheduling,
    deterministic chunked parallel compute, sequential commit) with the
    state held in preallocated [int array] slabs indexed by node slot:
    a kernel's [step] reads neighbor states straight out of the CSR
    arrays and writes its node's slots in place. The hot loop allocates
    {e nothing} on the minor heap — no neighbor lists, no closures, no
    boxed floats (round timing is only taken when a trace is attached).

    The boxed store stays the bit-exact reference: the
    differential battery in [test/test_engine.ml] checks labelings,
    round counts, traces and failure behaviour of every flat kernel
    against its boxed twin, and [bench] B11 measures the gap.

    {2 Determinism and parity}

    Flat and boxed runs share one round body ({!Stepper}): scheduling,
    frontier maintenance, the commit and the parallel chunking are the
    same code, and only the {!store} differs (change detection is a
    word comparison over a node's slots). So a flat run produces the
    same states, the same round count, and the same per-round
    [active]/[changed]/[unhalted] trace records as the boxed engine
    running an equivalent kernel — for any [par] and any
    {!Engine.par_grain}. Rounds run through the boxed engine's own
    {!Engine.drive}, so the stop rules, the {!Engine.fault_gate} check
    and the [max_rounds] [Failure] text ("Engine.run: ...") are the
    engine's by construction. Parallel rounds fan out over the
    persistent domain {!Team} in fixed contiguous chunks. *)

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
      (** halting predicate on the {e published} state, for {!run};
          [None] restricts the kernel to {!run_until_stable} /
          {!run_rounds} *)
}

type outcome = { slab : int array; slots : int; rounds : int }

val read : outcome -> node:int -> slot:int -> int
(** [slab.(node * slots + slot)]. *)

val column : outcome -> slot:int -> int array
(** One state word per node (length [n_base]) — the flat counterpart of
    the boxed engine's [states] array, for differential comparison. *)

val run :
  ?par:int ->
  ?sched:Engine.scheduling ->
  ?trace:Trace.t ->
  ?label:string ->
  topo:Topology.t ->
  kernel:kernel ->
  max_rounds:int ->
  unit ->
  outcome
(** Flat counterpart of {!Engine.run} (requires [kernel.halted]; raises
    [Invalid_argument] otherwise). [par] defaults to 1 (pure sequential,
    the zero-allocation reference path); [par > 1] fans rounds with more
    than {!Engine.par_grain} active nodes per chunk out to the domain
    team. Traces
    are stamped [mode = "flat:seq" | "flat:par:N"], [layout = "flat"]
    and delivered to {!Engine.trace_sink} / {!Engine.metrics_sink}
    exactly like boxed runs. *)

val run_until_stable :
  ?par:int ->
  ?sched:Engine.scheduling ->
  ?trace:Trace.t ->
  ?label:string ->
  topo:Topology.t ->
  kernel:kernel ->
  max_rounds:int ->
  unit ->
  outcome
(** Flat counterpart of {!Engine.run_until_stable} ([kernel.halted] is
    ignored): stops at a global fixed point; the detection round is not
    charged. *)

val run_rounds :
  ?par:int ->
  ?sched:Engine.scheduling ->
  ?trace:Trace.t ->
  ?label:string ->
  topo:Topology.t ->
  kernel:kernel ->
  rounds:int ->
  unit ->
  outcome
(** Flat counterpart of {!Engine.run_rounds}: exactly [rounds] rounds of
    a fixed schedule (use [~sched:Full_scan] for round-number-driven
    kernels). *)

val store :
  Stepper.csr -> workers:int -> halting:bool -> kernel -> ctx * Stepper.store
(** The flat store of the shared round body, over the whole topology or
    a shard's sub-CSR (then [kernel] indexes local ids; ghosts get
    [init] of their local id too): a slab of [n_local] nodes, a step
    slab of the [n_owned] that step, one scratch slab per worker, a
    node changes when any of its words does, and [halted] is the
    kernel's exactly when [halting]. Returns the [ctx] — whose [cur]
    holds the published states — with the store over it. *)

(** Ported kernels, bit-compatible with the boxed machines used across
    tests and benchmarks. *)
module Kernels : sig
  val flood : ?source:int -> unit -> kernel
  (** Reachability flood from [source] (default 0): slot 0 is 0/1.
      Boxed twin: [s || exists neighbor reached] over [bool] states
      (state [b] encodes as [Bool.to_int b]). [halted] is "reached" —
      use {!run_until_stable} on graphs where not every node is
      reachable. *)

  val mis_local_max : ids:int array -> kernel
  (** Greedy MIS by local id maximum, slot 0 in {0 undecided; 1 in;
      2 out}: an undecided node joins when every undecided neighbor has
      a smaller id, leaves when a neighbor joined. Bit-compatible with
      the [mis_step] machine in test/test_engine.ml and bench B6.
      [halted] is "decided". *)
end
