(** One shard's side of a synchronous LOCAL round (Definition 5): the
    round body shared by the in-process {!Shard} backend and the process
    backend's workers.

    A round over one shard is
    {e compute → commit → exchange → advance}:

    + {!compute} steps the active owned nodes into the store's scratch,
      reading only published states (owned nodes and ghosts);
    + {!commit} publishes the changed nodes in active order, keeps the
      halted count, grows the next frontier (the node and its owned
      neighbors) and appends one route per (target shard, ghost slot)
      of every changed boundary node;
    + the backend's exchange {!drain}s the route buffer — into other
      shards' arrays, or into halo frames on a socket — and calls
      {!ghost_written} for every ghost it overwrites, which grows the
      frontier through the plan's halo rows;
    + {!advance} makes the next frontier current, rebuilding it
      ascending from its bitmap when it is dense.

    Under [Full_scan] every owned node stays active and no frontier is
    kept. Node states live behind a {!store}, so the same body runs
    boxed states ({!boxed}) and the process backend's flat int slabs. *)

type store = {
  step : round:int -> int array -> int -> unit;
      (** [step ~round active n] computes the next state of the owned
          locals [active.(0) .. active.(n-1)] into the store's scratch. *)
  publish : int -> bool;
      (** [publish l]: if owned local [l]'s computed state differs from
          its published one, publish it and return [true]. *)
  halted : (int -> bool) option;
      (** The halting predicate on owned local [l]'s published state —
          [Some] exactly when the run stops on halting. *)
}

type t

val create : Plan.shard -> sched:Tl_engine.Engine.scheduling -> store -> t
(** Every owned node starts active. Evaluates [store.halted] once per
    owned node, ascending. *)

val compute : t -> round:int -> unit
(** Step the active set. Touches only this shard's store, so distinct
    shards may compute concurrently. *)

val commit : t -> int
(** Publish the computed states; returns how many changed. *)

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

val advance : t -> unit
(** Swap in the next frontier (no-op under [Full_scan]). *)

val n_active : t -> int
(** Owned nodes the next round steps. *)

val unhalted : t -> int
(** Owned nodes whose published state is not halted (0 when the store
    has no halting predicate). *)

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

val boxed :
  Plan.shard ->
  init:(int -> 'state) ->
  step:'state Tl_engine.Engine.step_fn ->
  equal:('state -> 'state -> bool) ->
  halted:('state -> bool) option ->
  'state array * store
(** The boxed store. States live in an array of [n_local] slots, owned
    nodes then ghosts, each initialized by [init] of its global id. A
    step sees global node and edge ids and its neighbors in the
    compiled topology's incident order, so [step] cannot tell a shard
    from the whole graph. Returns the array — backends write ghosts
    into it and read owned states back — with the store over it. *)
