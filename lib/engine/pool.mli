(** Deterministic, work-stealing-free domain pool.

    The paper's Algorithms 2 and 4 solve the list variants "in parallel"
    over all rake components / star families (Theorems 12 and 15). This
    pool is the execution substrate for that parallelism: a fixed number
    of workers, {e fixed contiguous chunking} of the task array (the same
    discipline as the engine's [Par p] stepper — no work stealing, no
    queues), and a {e sequential commit order}, so a pooled run is
    bit-identical to the sequential one for any worker count.

    Determinism contract:
    - task [i] is executed by worker [i / ⌈n/p⌉] — a pure function of
      [(n, p, i)], never of runtime timing;
    - [f] receives its worker index so callers can hand each worker its
      own scratch (BFS arrays, buffers) — workers must only write to
      worker-indexed scratch and to task-owned regions of shared state
      (disjoint by construction; see {!Tl_core.Theorem1} for the
      owner-check discipline);
    - results (and exceptions) are collected per task and delivered in
      task-index order after all workers joined: the first failing task
      in {e index} order re-raises, regardless of which worker hit an
      exception first on the wall clock.

    Spans ({!Tl_obs.Span}) are per-process and must not be touched from
    worker callbacks; record pool counters from the coordinating domain
    (the callers do: [pool:workers], [pool:tasks]). *)

type t

val tap : (tasks:int -> workers:int -> unit) option ref
(** Observation hook: when set, every {!map} reports its task count and
    effective worker count once, from the coordinating domain, before
    any worker spawns. Owned by [Tl_obs.Metrics.enable] (the registry
    sits above this library in the DAG); the callback must not raise. *)

val create : ?workers:int -> unit -> t
(** [create ?workers ()] — a pool descriptor (the domains themselves are
    owned by the process-wide {!Team} and shared between pools).
    [workers] defaults to [1] (sequential unless the caller opts in;
    the width is an argument of each run, never process state — the
    CLI's [--pool N] and a served request's [pool] pass it down through
    {!Tl_core.Pipeline}). Raises [Invalid_argument]
    with an explicit message when [workers] is outside [[1, 64]] — the
    bound used to be a silent clamp, which hid typo'd [--pool 640] runs
    behind plausible timings. *)

val workers : t -> int

val prewarm : t -> unit
(** Spawn and park the team members {!map} would use, without running
    any task — callers that benchmark or serve pay the one-time domain
    spawn cost here instead of inside the first timed map. *)

val map : t -> tasks:'a array -> f:(worker:int -> index:int -> 'a -> 'b) -> 'b array
(** [map t ~tasks ~f] applies [f] to every task and returns the results
    in task order. With [workers t = 1] (or fewer than 2 tasks) this is
    exactly [Array.mapi] on the current domain — the sequential
    reference path. Otherwise the task array is cut into
    [min (workers t) n] fixed contiguous chunks, chunk 0 runs on the
    calling domain and each remaining chunk on a parked {!Team} member
    (spawned once per process, reused across maps); the team barrier
    completes before any result is observed. If one or more
    tasks raised, the exception of the {e lowest-index} failing task is
    re-raised after the join (side effects of other tasks, including
    later-index ones, have already happened — callers that need
    all-or-nothing must not rely on partial failure). *)

val map_commit :
  t ->
  tasks:'a array ->
  work:(worker:int -> index:int -> 'a -> 'b) ->
  commit:(index:int -> 'b -> unit) ->
  unit
(** {!map} followed by a sequential commit pass in task-index order on
    the calling domain — the shape used by the theorem phases: compute
    in parallel, publish/accumulate deterministically. *)
