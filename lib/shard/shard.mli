(** Sharded halo-exchange execution backend for the LOCAL engine.

    This module implements {!Tl_engine.Engine}'s [Shard s] mode: the
    compiled topology is partitioned by {!Plan} into [s] contiguous
    shards with ghost (halo) copies of remote neighbors, and every
    synchronous round runs as

    {e local step → batched boundary exchange → barrier}:

    + {b local step} — each shard re-steps its active owned nodes
      against its compact local arrays (states, sub-CSR, ghosts). When
      the domain pool ({!Tl_engine.Pool}) is wider than one worker the
      shards are fanned over it in fixed contiguous chunks; each shard
      writes only its own scratch, so the fan-out is race-free and
      timing-independent.
    + {b batched boundary exchange} — changed states are published
      shard-by-shard in ascending shard order; each shard then drains
      its preallocated flat route buffer, copying boundary states into
      the target shards' ghost slots and growing their active sets
      through the plan's halo rows. Buffers are (target, slot, source)
      int triples — no per-message allocation.
    + {b barrier} — only after every shard has exchanged do the active
      sets advance and the round counter tick; the next round observes a
      globally consistent frontier, exactly like the monolithic stepper.

    The per-shard round body (frontier, route buffer, halo-row marking,
    halted count, traffic counters, boxed step loop) is {!Local}, which
    the process backend's workers run too; this module adds only the
    in-memory delivery between shards and the {!fault_drop_hook}.

    {2 Determinism}

    For any shard count and any pool width, labelings, round counts,
    per-round trace records ([active]/[changed]/[unhalted]) and failure
    behavior are bit-identical to [Seq] (and hence [Par p]) under the
    engine's stationarity contract. The argument: the compute phase
    reads only states committed in the previous round (ghosts are only
    written between barriers); the commit and exchange phases run in
    ascending shard order on the coordinating domain; and the per-shard
    active sets are an exact partition of the engine's global active
    set, because a changed node dirties its owned neighbors locally and
    its remote neighbors through halo rows — the same
    [{changed} ∪ N({changed})] frontier, split by ownership.

    {2 Observability}

    When a {!Tl_obs.Span} is ambient, every run attaches one child span
    per shard (["shard:<id>"]) carrying [shard:cut_edges],
    [shard:halo_words], [shard:imbalance] and [shard:exchange_rounds]
    counters, plus aggregate counters on the current span; they are
    emitted even when the run raises, and merge into the run report like
    any other span. Engine traces work unchanged — the engine owns trace
    creation and delivery, this backend only records the rounds.

    Linking [tl_shard] installs the backend into
    {!Tl_engine.Engine.shard_backend} (see {!register});
    {!Tl_local.Runtime} force-links it, so every runtime-based binary
    can run [Shard] mode. A run in that mode is
    [Engine.run ~mode:(Shard s)] (or [run_until_stable]/[run_rounds]);
    the shards fan over the ambient {!Tl_engine.Pool.default_workers}. *)

val register : unit -> unit
(** No-op whose call forces this module's initialization, which installs
    the backend into {!Tl_engine.Engine.shard_backend}. Call it (or
    reference anything in this module) from code that wants [Shard] mode
    available without depending on [Tl_local.Runtime]. *)

val fault_drop_hook : (round:int -> src:int -> dst:int -> bool) option ref
(** Fault-injection link hook, owned by [Tl_fault.Injector]. While
    armed, the boundary exchange asks it once per halo message —
    [drop ~round ~src ~dst] returning [true] suppresses the delivery of
    one (src shard → dst shard) ghost update in committed round [round]
    (stale ghost value kept, pending set not grown). Exchange routes
    fire only on change, so a dropped message is lost until the owner
    next changes — the repair layer's job to heal. Disarmed ([None],
    the default) the hook costs one ref read per round and one branch
    per halo message. [halo_words] counts only
    delivered messages. Shard runs go through the shared
    {!Tl_engine.Engine.drive}, so an armed fault gate interrupts them at
    round boundaries exactly like the in-process steppers. *)
