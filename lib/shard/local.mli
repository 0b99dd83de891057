(** One shard's side of a synchronous LOCAL round (Definition 5): the
    round body each process-backend worker runs. It is
    {!Tl_engine.Stepper}'s body over the shard's sub-CSR ({!csr}), whose
    commit also appends one route per (target shard, ghost slot) of
    every changed boundary node. Between commit and advance the worker
    {!drain}s the route buffer into halo frames on its sockets, and
    calls {!ghost_written} for every ghost a received frame overwrites,
    which grows the frontier through the plan's halo rows.

    {e Link cuts} — (round, peer) pairs, the fault injector's link
    drops — make {!drain} skip every route to that peer in that round.
    A skipped route is lost, not delayed: routes fire only on change.

    The store is the whole-graph flat stepper's own: the kernel's int
    slab ({!Tl_engine.Flat.store}) over the shard's sub-CSR. *)

type t

val csr : Plan.shard -> Tl_engine.Stepper.csr
(** The shard's sub-CSR: owned locals step, ghosts follow. *)

val create :
  Plan.shard ->
  Tl_engine.Stepper.csr ->
  sched:Tl_engine.Engine.scheduling ->
  cuts:(int * int) list ->
  Tl_engine.Stepper.store ->
  t
(** [create sh (csr sh) ~sched ~cuts store]: every owned node starts
    active; [cuts] are the run's link cuts as (round, peer shard)
    pairs. Evaluates [store.halted] once per owned node, ascending. *)

val stepper : t -> Tl_engine.Stepper.t
(** The shard's round body. A round is [Stepper.compute ~par:1] — it
    touches only this shard's store, so distinct shards may compute
    concurrently — then [Stepper.commit], the exchange, and
    [Stepper.advance]. *)

val drain :
  t ->
  round:int ->
  (dst:int array -> slot:int array -> src:int array -> int -> unit) ->
  unit
(** [drain t ~round deliver] hands the routes appended since the last
    drain, in append order, to [deliver ~dst ~slot ~src n]: route
    [b < n] ships owned local [src.(b)]'s state to ghost [slot.(b)] of
    shard [dst.(b)]. Routes to a peer cut in [round] are skipped first
    and counted in {!dropped}; the rest count towards {!halo_words}.
    [deliver] must not keep the arrays. Then empties the buffer; without
    routes left, [deliver] is not called. *)

val ghost_written : t -> int -> unit
(** [ghost_written t slot]: ghost [slot] of this shard got a new state
    — under [Active_set], its owned neighbors step next round. *)

val halo_words : t -> int
(** Messages delivered by {!drain} so far. *)

val dropped : t -> (int * int * int) list
(** [(round, peer, msgs)] per cut that fired, in first-firing order. *)

val exchange_rounds : t -> int
(** Rounds in which this shard had at least one route to drain. *)

val report :
  Plan.t ->
  shape:int ->
  latency_s:float ->
  (int -> (int * int) option) ->
  unit
(** The observability of one proc run over a plan, emitted by the
    coordinator after its round loop, also when the run raised.
    [traffic s] is shard [s]'s [(halo_words, exchange_rounds)], [None]
    when unknown; [shape] is the collective-tree shape code. An ambient
    span gets [proc:procs], [proc:shape], [proc:cut_edges],
    [proc:imbalance] and the summed [proc:halo_words], plus one
    ["proc:<s>"] child span per known shard with its owned, halo,
    cut_edges, halo_words, imbalance and exchange_rounds counters. An
    enabled registry gets [proc_halo_words_total] and [proc_runs_total]
    increments and one "exchange" recorder event keyed
    ["procs:<count>"]. *)
