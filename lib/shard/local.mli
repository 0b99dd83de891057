(** One shard's side of a synchronous LOCAL round (Definition 5): the
    round body shared by the in-process {!Shard} backend and the process
    backend's workers. It is {!Tl_engine.Stepper}'s body over the
    shard's sub-CSR ({!csr}), whose commit also appends one route per
    (target shard, ghost slot) of every changed boundary node. Between
    commit and advance the backend's exchange {!drain}s the route
    buffer — into other shards' arrays, or into halo frames on a
    socket — and calls {!ghost_written} for every ghost it overwrites,
    which grows the frontier through the plan's halo rows.

    The store is the whole-graph steppers' own: boxed states
    ({!Tl_engine.Stepper.boxed} with the shard's [l2g]) or flat int
    slabs ({!Tl_engine.Flat.store}). *)

type t

val csr : Plan.shard -> Tl_engine.Stepper.csr
(** The shard's sub-CSR: owned locals step, ghosts follow. *)

val create :
  Plan.shard ->
  Tl_engine.Stepper.csr ->
  sched:Tl_engine.Engine.scheduling ->
  Tl_engine.Stepper.store ->
  t
(** [create sh (csr sh) ~sched store]: every owned node starts active.
    Evaluates [store.halted] once per owned node, ascending. *)

val stepper : t -> Tl_engine.Stepper.t
(** The shard's round body. A round is [Stepper.compute ~par:1] — it
    touches only this shard's store, so distinct shards may compute
    concurrently — then [Stepper.commit], the exchange, and
    [Stepper.advance]. *)

val drain :
  t -> (dst:int array -> slot:int array -> src:int array -> int -> int) -> unit
(** [drain t deliver] hands the routes appended since the last drain,
    in append order, to [deliver ~dst ~slot ~src n]: route [b < n]
    ships owned local [src.(b)]'s state to ghost [slot.(b)] of shard
    [dst.(b)]. [deliver] returns how many messages it delivered — only
    those count towards {!halo_words} — and must not keep the arrays.
    Then empties the buffer; without routes, [deliver] is not called. *)

val ghost_written : t -> int -> unit
(** [ghost_written t slot]: ghost [slot] of this shard got a new state
    — under [Active_set], its owned neighbors step next round. *)

val halo_words : t -> int
(** Messages delivered by {!drain} so far. *)

val exchange_rounds : t -> int
(** Rounds in which this shard had at least one route to drain. *)

val report :
  Plan.t ->
  plan_hit:bool ->
  prefix:string ->
  count_key:string ->
  ?shape:int ->
  latency_s:float ->
  (int -> (int * int) option) ->
  unit
(** The observability of one run over a plan, emitted by the backend
    after its round loop, also when the run raised. [traffic s] is
    shard [s]'s [(halo_words, exchange_rounds)], [None] when unknown.
    With [prefix = "shard"] and [count_key = "shards"] (the proc
    backend: ["proc"], ["procs"], [~shape]), an ambient span gets
    [shard:shards], [shard:cut_edges], [shard:imbalance],
    [shard:plan_hit] or [shard:plan_miss] and the summed
    [shard:halo_words], plus one ["shard:<s>"] child span per known
    shard with its owned, halo, cut_edges, halo_words, imbalance and
    exchange_rounds counters. An enabled registry gets
    [shard_halo_words_total] and [shard_runs_total] increments and one
    "exchange" recorder event keyed ["shards:<count>"]. *)
