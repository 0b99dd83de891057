(** Deterministic fault schedules: seeded, reproducible plans of
    crash-stop, crash-recover, halo link-drop and worker-kill events,
    keyed on (round, node / rank pair / rank).

    A schedule is a {e plan}, not a log: it may name nodes explicitly
    ([crash@8:5,17]), draw them from a seeded PRNG ([crash_random@8:50]),
    or describe background churn (a per-(round, node) crash probability
    over a round window, optionally recovering each casualty [ttl]
    rounds later). {!instantiate} expands the plan against an instance
    size into a flat, round-sorted event list — a pure function of
    [(schedule, n)], so the same spec and seed always produce the
    identical event sequence, which is what makes every chaos run
    replayable.

    {2 Spec grammar}

    JSON (parsed with {!Tl_obs.Json}, the CLI accepts a file path):

    {v
    { "seed": 42,
      "events": [ { "round": 8,  "crash": [5, 17] },
                  { "round": 8,  "crash_random": 50 },
                  { "round": 12, "recover": [5] },
                  { "round": 6,  "drop": ["0-1", "2-3"] },
                  { "round": 3,  "kill": [1] } ],
      "churn": { "rounds": "4-16", "rate": 0.001,
                 "kind": "crash-recover", "ttl": 4 } }
    v}

    or the equivalent compact one-liner (the CLI accepts it inline):

    {v
    seed=42;crash@8:5,17;crash_random@8:50;recover@12:5;drop@6:0-1,2-3;\
    kill@3:1;churn@4-16:rate=0.001,kind=crash-recover,ttl=4
    v}

    [crash]/[recover] name {e node} ids; [drop] names undirected pairs
    of proc worker {e ranks} ([a-b] drops every halo message between
    workers [a] and [b] in that round, both directions); [kill] names
    worker {e ranks} too — both act on the proc backend's wire only.
    Rounds are absolute 1-based rounds of the whole chaos run: an event
    at round [r] takes effect {e after} round [r] commits. *)

type item =
  | Crash_nodes of int list
  | Crash_random of int  (** crash this many distinct alive nodes, seeded *)
  | Recover_nodes of int list
  | Drop_links of (int * int) list  (** undirected worker-rank pairs *)
  | Kill_ranks of int list

type clause = { round : int; item : item }

type churn_kind = Crash_stop | Crash_recover

type churn = {
  from_round : int;
  to_round : int;
  rate : float;  (** per-(round, node) crash probability, in [0, 1] *)
  kind : churn_kind;
  ttl : int;  (** crash-recover: rounds until the casualty recovers *)
}

type t = { seed : int; clauses : clause list; churn : churn option }

val empty : t
(** [{ seed = 0; clauses = []; churn = None }] — a valid schedule with
    no faults; arming it measures pure hook overhead. *)

(** {1 Parsing} *)

val of_json : Tl_obs.Json.t -> (t, string) result
val to_json : t -> Tl_obs.Json.t
(** [of_json (to_json t) = Ok t] for every schedule this module builds. *)

val of_spec : string -> (t, string) result
(** Parse the compact one-liner grammar. *)

val of_arg : string -> (t, string) result
(** CLI entry point: if the argument names an existing file, parse its
    contents as JSON; otherwise parse the argument itself (as the
    compact grammar, or as inline JSON when it starts with ['{']). *)

val max_churn_window : int
(** The longest churn window every parser accepts, in rounds (10,000).
    Churn draws a coin per node in every round of its window, so the
    window bounds {!instantiate}'s work; a longer one is rejected with
    the usual [Error], naming the window and the cap. *)

(** {1 Instantiation} *)

type event =
  | Crash of int  (** node leaves the surviving graph *)
  | Recover of int  (** node rejoins with a fresh initial state *)
  | Drop of int * int  (** one round of halo loss between two worker ranks *)
  | Kill of int  (** SIGKILL worker rank (proc backend) *)

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string

val instantiate : t -> n:int -> (int * event) list
(** Expand the plan against an [n]-node instance into a flat event list,
    sorted by round (stable within a round: ttl-recoveries first, then
    explicit clauses in spec order, then churn crashes by ascending node
    id). Deterministic: a pure function of [(t, n)]. It visits only the
    rounds that can emit an event (the clause rounds, the churn window
    unless its rate is 0, and the rounds a casualty is due back), so a
    clause at round 10{^10} costs what one at round 10 does and a rate-0
    window costs nothing; a recovery due past [max_int] never fires.
    [Crash_random]
    draws distinct {e alive} nodes (never crashes the same node twice
    without an intervening recovery) by rejection-sampling a splitmix64
    stream seeded from [seed]; churn decides each (round, node) pair
    from an independent hash of [(seed, round, node)], so inserting or
    removing explicit clauses never shifts the churn pattern. Events
    that cannot apply (crashing an already-dead node, recovering an
    alive one) are elided. Out-of-range node ids raise
    [Invalid_argument]. *)
