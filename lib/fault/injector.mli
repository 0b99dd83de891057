(** Hook installation: arms a {!Schedule} against the execution stack's
    fault seams.

    Arming instantiates the schedule and installs two hooks:

    - {!Tl_engine.Engine.fault_gate} — interrupts any engine-backed run
      at the round boundary {e before} the next pending crash / recover
      event takes effect, so topology surgery happens between rounds,
      never inside one;
    - [Tl_proc.Coordinator.fault_hooks] — hands a proc run its [Drop]
      link cuts between worker ranks, takes back the cuts that fired,
      and SIGKILLs the ranks of a [Kill] event before that round's
      decision broadcast; the in-process modes never fire either.

    Rounds in the schedule are {e absolute} chaos-run rounds; engine
    runs report relative rounds, so the driver (typically {!Chaos})
    tells the injector each run's base offset with {!set_base}. Only one
    injector may be armed per process at a time ([arm] raises
    [Invalid_argument] otherwise); {!with_armed} is the exception-safe
    wrapper. Disarming restores both hooks to [None] — the
    zero-overhead state. Every fault that actually fires is recorded in
    the injector's {e applied log}, in firing order; the log is a
    deterministic function of (schedule, instance, workload), which is
    what the differential chaos tests assert. A proc run's drops are
    logged when its epilogues arrive; a run killed before them logs
    none. *)

type t

type applied =
  | Crashed of int
  | Recovered of int
  | Dropped of { src : int; dst : int; msgs : int }
      (** one (round, src, dst) link cut, [src < dst]; [msgs] halo
          messages lost in both directions *)
  | Killed of int

val applied_to_string : applied -> string

val arm : Schedule.t -> n:int -> t
(** Instantiate the schedule against an [n]-node instance and install
    the hooks. Raises [Invalid_argument] if an injector is already
    armed, or on out-of-range node ids (see {!Schedule.instantiate}). *)

val disarm : t -> unit
(** Restore both hooks to [None]. Idempotent. *)

val with_armed : Schedule.t -> n:int -> (t -> 'a) -> 'a
(** [arm], run, always [disarm] (even on raise). *)

val set_base : t -> int -> unit
(** Absolute round already executed before the next engine run: a
    relative round [r] inside that run is absolute round [base + r]. *)

val base : t -> int

val next_topo_round : t -> int option
(** Earliest absolute round with a pending crash / recover event (the
    rounds at which the gate will interrupt). [None] when none remain. *)

val take_topo_due : t -> round:int -> Schedule.event list
(** Consume and return the pending crash / recover events at exactly
    absolute round [round] (schedule order), recording them in the
    applied log. *)

val log : t -> (int * applied) list
(** Applied events so far, in firing order, with absolute rounds.
    [Dropped] entries aggregate one round's losses per (src, dst). *)

val counts : t -> int * int * int * int
(** [(crashes, recoveries, drops, kills)] over the applied log; a
    [Dropped] entry counts once regardless of [msgs]. *)
